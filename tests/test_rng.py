from apksift.rng import SplitMix64, fnv1a64


def test_splitmix64_reference_outputs():
    # First outputs of the published SplitMix64 generator seeded with 0.
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


SEEDS = (0, 1, 7, 42, 2**63 + 5, 2**64 - 1)


def _fisher_yates(items: list, rng: SplitMix64) -> None:
    for i in range(len(items) - 1, 0, -1):
        j = rng.next_u64() % (i + 1)
        items[i], items[j] = items[j], items[i]


def test_shuffle_is_fisher_yates_over_next_u64():
    for seed in SEEDS:
        for n in (0, 1, 2, 97, 2000):
            items, expected = list(range(n)), list(range(n))
            SplitMix64(seed).shuffle(items)
            _fisher_yates(expected, SplitMix64(seed))
            assert items == expected, (seed, n)


def test_shuffle_continues_the_stream():
    # A shuffle of n items takes n - 1 draws; the draws after it come next in the stream.
    for seed in SEEDS:
        rng, ref = SplitMix64(seed), SplitMix64(seed)
        for n in (0, 1, 2, 10, 2000):
            rng.shuffle(list(range(n)))
            _fisher_yates(list(range(n)), ref)
            assert [rng.next_u64() for _ in range(3)] == [ref.next_u64() for _ in range(3)]


def test_fnv1a64_reference_values():
    assert fnv1a64("") == 0xCBF29CE484222325
    assert fnv1a64("a") == 0xAF63DC4C8601EC8C
