import math
import random

import numpy as np
import pytest

from apksift.corpus import ClassLabel
from apksift.detectors import FeatureMatrix
from apksift.errors import RankingError
from apksift.ranking import (
    ContingencyTable,
    build_contingency,
    mutual_information,
    rank_features,
    select_top,
    write_ranking_csv,
)

from published_values import TABLE4, TABLE5


def entropy_identity_mi(table: ContingencyTable) -> float:
    """Independent oracle: MI = H(R) + H(C) - H(R, C) over the four cells."""
    n = table.n_sus + table.n_ben

    def h(probs):
        return -sum(p * math.log2(p) for p in probs if p > 0)

    joint = [
        table.n_pos_sus / n,
        table.n_pos_ben / n,
        table.n_neg_sus / n,
        table.n_neg_ben / n,
    ]
    p_r1 = (table.n_pos_sus + table.n_pos_ben) / n
    p_sus = table.n_sus / n
    return h([p_r1, 1 - p_r1]) + h([p_sus, 1 - p_sus]) - h(joint)


def random_table(rng: random.Random) -> ContingencyTable:
    n_sus = rng.randint(1, 400)
    n_ben = rng.randint(1, 400)
    return ContingencyTable(
        feature="f",
        n_pos_sus=rng.randint(0, n_sus),
        n_pos_ben=rng.randint(0, n_ben),
        n_sus=n_sus,
        n_ben=n_ben,
    )


def test_mi_equals_entropy_oracle_on_random_tables():
    rng = random.Random(42)
    for _ in range(1000):
        table = random_table(rng)
        assert mutual_information(table) == pytest.approx(
            entropy_identity_mi(table), abs=1e-12
        )


def _paper_table(name: str, ben: int, mal: int) -> ContingencyTable:
    return ContingencyTable(feature=name, n_pos_sus=mal, n_pos_ben=ben, n_sus=1000, n_ben=1000)


@pytest.mark.parametrize(
    "name,ben,mal,score",
    [
        ("READ_SMS", *TABLE4["READ_SMS"]),
        ("WRITE_SMS", *TABLE4["WRITE_SMS"]),
        ("getSubscriberId", *TABLE5["getSubscriberId"]),
        ("getDeviceId", *TABLE5["getDeviceId"]),
    ],
)
def test_published_scores_reproduced(name, ben, mal, score):
    assert mutual_information(_paper_table(name, ben, mal)) == pytest.approx(score, abs=5e-4)


def test_identical_distribution_scores_zero():
    table = ContingencyTable("f", n_pos_sus=100, n_pos_ben=100, n_sus=1000, n_ben=1000)
    assert mutual_information(table) == pytest.approx(0.0, abs=1e-12)


def test_zero_law_iff_equal_rates():
    equal = ContingencyTable("f", 30, 15, n_sus=200, n_ben=100)  # 15% in both classes
    assert mutual_information(equal) == pytest.approx(0.0, abs=1e-12)
    unequal = ContingencyTable("f", 30, 14, n_sus=200, n_ben=100)
    assert mutual_information(unequal) > 1e-6


def test_class_swap_symmetry():
    rng = random.Random(7)
    for _ in range(200):
        t = random_table(rng)
        swapped = ContingencyTable(
            "f", n_pos_sus=t.n_pos_ben, n_pos_ben=t.n_pos_sus, n_sus=t.n_ben, n_ben=t.n_sus
        )
        assert mutual_information(t) == pytest.approx(mutual_information(swapped), abs=1e-12)


def test_scale_invariance():
    rng = random.Random(13)
    for _ in range(200):
        t = random_table(rng)
        doubled = ContingencyTable(
            "f", n_pos_sus=2 * t.n_pos_sus, n_pos_ben=2 * t.n_pos_ben,
            n_sus=2 * t.n_sus, n_ben=2 * t.n_ben,
        )
        assert mutual_information(t) == pytest.approx(mutual_information(doubled), abs=1e-12)


def test_mi_nonnegative_and_bounded():
    # for a binary class, MI <= H(C) <= 1 bit
    rng = random.Random(99)
    for _ in range(500):
        t = random_table(rng)
        score = mutual_information(t)
        assert 0.0 <= score <= 1.0 + 1e-12


def test_mi_needs_both_classes():
    with pytest.raises(RankingError):
        mutual_information(ContingencyTable("f", 0, 0, n_sus=0, n_ben=10))


def test_table_invariant_validation():
    with pytest.raises(RankingError):
        ContingencyTable("f", n_pos_sus=11, n_pos_ben=0, n_sus=10, n_ben=10)


# --- build_contingency -------------------------------------------------------

def _matrix(ids, labels, names, bits):
    return FeatureMatrix(
        ids=tuple(ids),
        labels=tuple(labels),
        feature_names=tuple(names),
        rows=tuple(map(bytes, bits)),
    )


def test_build_contingency_hand_case():
    m = _matrix(
        ["b1", "b2", "s1", "s2"],
        [ClassLabel.BENIGN, ClassLabel.BENIGN, ClassLabel.SUSPICIOUS, ClassLabel.SUSPICIOUS],
        ["f"],
        [[1], [0], [1], [1]],
    )
    (table,) = build_contingency(m)
    assert (table.n_pos_ben, table.n_neg_ben) == (1, 1)
    assert (table.n_pos_sus, table.n_neg_sus) == (2, 0)


def test_build_contingency_all_zero_column():
    m = _matrix(
        ["b", "s"],
        [ClassLabel.BENIGN, ClassLabel.SUSPICIOUS],
        ["f"],
        [[0], [0]],
    )
    (table,) = build_contingency(m)
    assert table.n_pos_ben == 0 and table.n_pos_sus == 0


def test_build_contingency_exact_past_a_byte():
    """Counts past 255 per column: rows are summed as integers in chunks that
    no byte-wide column sum overflows."""
    n, width = 600, 5
    labels = [ClassLabel.BENIGN] * n + [ClassLabel.SUSPICIOUS] * n
    m = FeatureMatrix(tuple(f"a{i}" for i in range(2 * n)), tuple(labels),
                      tuple(f"f{j}" for j in range(width)), (b"\x01" * width,) * (2 * n))
    assert [(t.n_pos_ben, t.n_pos_sus) for t in build_contingency(m)] == [(n, n)] * width


def test_build_contingency_unlabeled_fatal():
    m = _matrix(["a", "b"], [ClassLabel.BENIGN, None], ["f"], [[0], [1]])
    with pytest.raises(RankingError, match="unlabeled"):
        build_contingency(m)


def test_build_contingency_single_class_fatal():
    m = _matrix(["a"], [ClassLabel.BENIGN], ["f"], [[0]])
    with pytest.raises(RankingError, match="class"):
        build_contingency(m)


# --- rank_features / select_top ------------------------------------------------

def _ranked_from_counts(counts: dict[str, tuple[int, int]], n=1000):
    tables = [
        ContingencyTable(name, n_pos_sus=mal, n_pos_ben=ben, n_sus=n, n_ben=n)
        for name, (ben, mal) in counts.items()
    ]
    return rank_features(tables)


def test_rank_descending_with_counts():
    ranked = _ranked_from_counts(
        {name: (ben, mal) for name, (ben, mal, _) in list(TABLE5.items())[:6]}
    )
    scores = [r.score for r in ranked]
    assert scores == sorted(scores, reverse=True)
    assert ranked[0].name == "getSubscriberId"
    assert (ranked[0].benign_count, ranked[0].malware_count) == (42, 742)


def test_tie_break_by_name():
    ranked = _ranked_from_counts({"zeta": (10, 200), "alpha": (10, 200)})
    assert [r.name for r in ranked] == ["alpha", "zeta"]


def test_single_feature_rank():
    ranked = _ranked_from_counts({"only": (5, 50)})
    assert len(ranked) == 1 and ranked[0].name == "only"


def test_rank_stability_zero_feature_appends_at_tail():
    base = {name: (ben, mal) for name, (ben, mal, _) in list(TABLE5.items())[:5]}
    ranked = _ranked_from_counts(base)
    with_zero = _ranked_from_counts({**base, "zzz-nothing": (0, 0)})
    assert [r.name for r in with_zero[:-1]] == [r.name for r in ranked]
    assert with_zero[-1].name == "zzz-nothing"
    assert with_zero[-1].score == 0.0


def test_select_presets():
    ranked = _ranked_from_counts(
        {name: (ben, mal) for name, (ben, mal, _) in list(TABLE5.items())[:20]}
    )
    all_names = [r.name for r in ranked]
    assert list(select_top(ranked, preset="5fT").names) == all_names[:5]
    assert list(select_top(ranked, preset="5fL").names) == all_names[15:20]
    assert list(select_top(ranked, preset="15f").names) == all_names[:15]
    assert list(select_top(ranked, n=1).names) == all_names[:1]
    assert select_top(ranked, preset="5fL").tag == "5fL"
    assert select_top(ranked, n=3).tag == "custom-3"


def test_select_insufficient_features():
    ranked = _ranked_from_counts({"a": (1, 10), "b": (2, 20)})
    with pytest.raises(RankingError, match="needs 20.*2 available"):
        select_top(ranked, preset="5fL")


def test_select_requires_exactly_one_spec():
    ranked = _ranked_from_counts({"a": (1, 10)})
    with pytest.raises(RankingError):
        select_top(ranked)
    with pytest.raises(RankingError):
        select_top(ranked, preset="5fT", n=3)


def test_ranking_csv_format(tmp_path):
    ranked = _ranked_from_counts({"READ_SMS": (20, 591)})
    out = tmp_path / "rank.csv"
    write_ranking_csv(ranked, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "rank,feature,benign_count,malware_count,total,infogain"
    assert lines[1] == "1,READ_SMS,20,591,611,0.32920"
