from apksift.rng import SplitMix64, fnv1a64


def test_splitmix64_reference_outputs():
    # First outputs of the published SplitMix64 generator seeded with 0.
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


def test_shuffle_is_fisher_yates_over_next_u64():
    for seed, n in ((0, 0), (1, 1), (7, 2), (42, 97), (2**64 - 1, 500)):
        items = list(range(n))
        SplitMix64(seed).shuffle(items)
        expected, draws = list(range(n)), SplitMix64(seed)
        for i in range(n - 1, 0, -1):
            j = draws.next_u64() % (i + 1)
            expected[i], expected[j] = expected[j], expected[i]
        assert items == expected, (seed, n)


def test_shuffle_continues_the_stream():
    rng, ref = SplitMix64(5), SplitMix64(5)
    rng.shuffle(list(range(10)))
    for _ in range(9):
        ref.next_u64()
    assert rng.next_u64() == ref.next_u64()


def test_fnv1a64_reference_values():
    assert fnv1a64("") == 0xCBF29CE484222325
    assert fnv1a64("a") == 0xAF63DC4C8601EC8C
