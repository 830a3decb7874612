"""Acceptance suite: one test per release criterion, at pinned tolerances.

Each test prints an ``[ACCEPTANCE] <criterion>: PASS`` line when it
succeeds; a failing criterion shows up as the test's failure line.
Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import csv
import itertools
import json
import random
import time

import numpy as np
import pytest

from apksift.catalog import data_table_path, load_catalog
from apksift.classifier import posterior_matrix
from apksift.cli import main, time_extraction_settings
from apksift.corpus import ClassLabel, load_corpus
from apksift.corpusgen import FrequencyEntry, FrequencySpec, generate, spec_from_table
from apksift.detectors import FeatureMatrix, extract_corpus
from apksift.evaluation import (
    ConfusionCounts,
    cross_validate,
    metrics,
    roc,
    stratified_kfold,
)
from apksift.ranking import build_contingency
from apksift.rng import SplitMix64

from published_values import TABLE4, TABLE5, TABLE6, TABLE6_ORDER, ZERO_CELL_FEATURES
from test_classifier import linear_space_posterior, random_model
from test_evaluation import pair_count_auc

BEN, SUS = ClassLabel.BENIGN, ClassLabel.SUSPICIOUS


def _passed(name: str) -> None:
    print(f"\n[ACCEPTANCE] {name}: PASS")


@pytest.fixture(scope="module")
def catalog_m():
    return load_catalog("builtin", "M")


@pytest.fixture(scope="module")
def table6_rank(tmp_path_factory):
    """Generate the published-mixed-table corpus (1000+1000) and rank it
    through the CLI; returns (ranked rows, elapsed seconds)."""
    base = tmp_path_factory.mktemp("accept_t6")
    started = time.perf_counter()
    assert main(["gen", "--table", "table6", "--benign", "1000", "--malware", "1000",
                 "--seed", "7", "--out", str(base / "corpus")]) == 0
    assert main(["rank", "--corpus", str(base / "corpus"),
                 "--labels", str(base / "corpus" / "labels.csv"),
                 "--mode", "M", "--out", str(base / "rank.csv")]) == 0
    elapsed = time.perf_counter() - started
    with open(base / "rank.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    return rows, elapsed


@pytest.fixture(scope="module")
def table5_rank(tmp_path_factory):
    base = tmp_path_factory.mktemp("accept_t5")
    assert main(["gen", "--table", "table5", "--benign", "1000", "--malware", "1000",
                 "--seed", "11", "--out", str(base / "corpus")]) == 0
    assert main(["rank", "--corpus", str(base / "corpus"),
                 "--labels", str(base / "corpus" / "labels.csv"),
                 "--mode", "M", "--out", str(base / "rank.csv")]) == 0
    with open(base / "rank.csv", newline="") as fh:
        return list(csv.DictReader(fh))


def test_mi_score_reproduction(table6_rank, table5_rank):
    """Published infogain scores reproduce within +-5e-4 (nonzero-cell rows)
    and +-5e-3 (zero-benign-count rows), in under 60 seconds."""
    rows, elapsed = table6_rank
    scored = {r["feature"]: float(r["infogain"]) for r in rows}
    counted = {r["feature"]: (int(r["benign_count"]), int(r["malware_count"])) for r in rows}
    for name, (ben, mal, printed) in TABLE6.items():
        assert counted[name] == (ben, mal), f"{name}: counts {counted[name]} != ({ben}, {mal})"
        tolerance = 5e-3 if name in ZERO_CELL_FEATURES else 5e-4
        assert abs(scored[name] - printed) <= tolerance, (
            f"{name}: computed {scored[name]} vs printed {printed}"
        )
    for anchor, expected in [("READ_SMS", 0.32920), ("WRITE_SMS", 0.25053),
                             ("getSubscriberId", 0.42853), ("getDeviceId", 0.22919)]:
        assert abs(scored[anchor] - expected) <= 5e-4

    scored5 = {r["feature"]: float(r["infogain"]) for r in table5_rank}
    counted5 = {
        r["feature"]: (int(r["benign_count"]), int(r["malware_count"])) for r in table5_rank
    }
    for name, (ben, mal, printed) in TABLE5.items():
        assert counted5[name] == (ben, mal)
        tolerance = 5e-3 if name in ZERO_CELL_FEATURES else 5e-4
        assert abs(scored5[name] - printed) <= tolerance
    assert counted5["chmod"] == (19, 389)
    assert abs(scored5["pm install"] - 0.04725) <= 5e-3
    assert abs(scored["createSubprocess"] - 0.08615) <= 5e-3

    assert elapsed < 60.0, f"generation + ranking took {elapsed:.1f}s"
    _passed("MI score reproduction (tables 4/5/6)")


def test_ranking_order_reproduction(table6_rank):
    """Top 10 of the ranked mixed corpus matches the published order exactly."""
    rows, _ = table6_rank
    top10 = [r["feature"] for r in rows[:10]]
    assert top10 == TABLE6_ORDER[:10]
    _passed("ranking-order reproduction (top 10)")


def test_frequency_recovery(tmp_path_factory, catalog_m):
    """Detectors over a generated permission-table corpus recover every
    planted (benign, malware) count exactly, with zero tolerance."""
    base = tmp_path_factory.mktemp("accept_t4")
    spec = spec_from_table(data_table_path("table4"), catalog_m, 1000, 1000, seed=13)
    g = generate(spec, base / "corpus")
    corpus = load_corpus(g.root, g.labels)
    matrix, _ = extract_corpus(corpus, catalog_m)
    observed = {t.feature: (t.n_pos_ben, t.n_pos_sus) for t in build_contingency(matrix)}
    for name, (ben, mal, _) in TABLE4.items():
        assert observed[name] == (ben, mal), name
    assert len(spec.entries) == 30
    planted = set(TABLE4)
    for name, counts in observed.items():
        if name not in planted:
            assert counts == (0, 0), f"unplanted feature {name} has counts {counts}"
    _passed("frequency recovery (exact counts, 30 features)")


def test_posterior_oracle_equivalence():
    """Log-space posterior equals linear-space brute force within 1e-12 for
    100 random models over every vector of up to 8 features, each model's
    vectors scored as one matrix."""
    rng = random.Random(2025)
    for _ in range(100):
        n = rng.randint(1, 8)
        model = random_model(rng, n)
        vectors = list(itertools.product((0, 1), repeat=n))
        matrix = FeatureMatrix(
            ids=tuple(str(i) for i in range(len(vectors))),
            labels=(None,) * len(vectors),
            feature_names=model.feature_names,
            rows=tuple(map(bytes, vectors)),
        )
        for bits, p in zip(vectors, posterior_matrix(model, matrix).tolist()):
            assert p == pytest.approx(linear_space_posterior(model, bits), abs=1e-12)
    _passed("posterior oracle equivalence (100 models, all vectors)")


def test_auc_oracle_equivalence():
    """Trapezoidal AUC equals exhaustive Mann-Whitney pair counting within
    1e-12 on 200 random tied score sets; degenerate cases give 1.0 and 0.5."""
    rng = random.Random(7777)
    for _ in range(200):
        n_sus = rng.randint(1, 10)
        n_ben = rng.randint(1, 10)
        scores = [rng.randint(0, 4) / 4 for _ in range(n_sus + n_ben)]
        labels = [SUS] * n_sus + [BEN] * n_ben
        rng.shuffle(labels)
        assert roc(scores, labels).auc == pytest.approx(
            pair_count_auc(scores, labels), abs=1e-12
        )
    assert roc([0.9, 0.8, 0.1], [SUS, SUS, BEN]).auc == 1.0
    assert roc([0.5, 0.5, 0.5, 0.5], [SUS, BEN, SUS, BEN]).auc == 0.5
    _passed("AUC oracle equivalence (200 score sets + degenerate cases)")


def test_metric_identities():
    """Metric identities hold exactly on 1000 random confusion counts, and
    the hand-worked case reproduces."""
    rng = random.Random(555)
    checked = 0
    while checked < 1000:
        counts = ConfusionCounts(
            rng.randint(0, 400), rng.randint(0, 400),
            rng.randint(0, 400), rng.randint(0, 400),
        )
        if counts.n_bb + counts.n_bs == 0 or counts.n_sb + counts.n_ss == 0:
            continue
        m = metrics(counts)
        assert m.acc + m.err == 1
        assert m.tpr + m.fnr == 1
        assert m.tnr + m.fpr == 1
        checked += 1
    from fractions import Fraction

    hand = metrics(ConfusionCounts(190, 10, 18, 182))
    assert float(hand.acc) == 0.93
    assert float(hand.fpr) == 0.05
    assert float(hand.tpr) == 0.91
    assert hand.precision == Fraction(182, 192)
    _passed("metric identities (1000 random counts + hand case)")


def test_cv_protocol():
    """On 1000+1000 samples with k=5, every fold is an 800+800 train /
    200+200 test split; folds are disjoint, covering, and reproducible."""
    ids = [f"ben{i:05d}" for i in range(1000)] + [f"mal{i:05d}" for i in range(1000)]
    labels = {i: (BEN if i.startswith("ben") else SUS) for i in ids}
    folds = stratified_kfold(ids, labels, k=5, seed=42)
    assert len(folds) == 5
    for fold in folds:
        assert sum(1 for i in fold if labels[i] is BEN) == 200
        assert sum(1 for i in fold if labels[i] is SUS) == 200
        train_ids = set(ids) - set(fold)
        assert sum(1 for i in train_ids if labels[i] is BEN) == 800
        assert sum(1 for i in train_ids if labels[i] is SUS) == 800
    flat = [i for fold in folds for i in fold]
    assert len(flat) == len(set(flat)) == 2000
    assert set(flat) == set(ids)
    again = stratified_kfold(ids, labels, k=5, seed=42)
    assert json.dumps(folds).encode() == json.dumps(again).encode()
    _passed("CV protocol (800+800 train / 200+200 test, reproducible)")


@pytest.fixture(scope="module")
def null_corpus(tmp_path_factory, catalog_m):
    """200+200 corpus with moderate feature frequencies whose labels are
    then permuted, making every feature independent of the class.

    The [0.4, 0.6] null band was verified by simulation over 12 seed
    families before these seeds were pinned (observed acc range
    0.425-0.573, AUC range 0.416-0.573)."""
    names = ["READ_SMS", "SEND_SMS", "INTERNET", "CAMERA", "getSubscriberId",
             "chmod", "getDeviceId", "Runtime.exec", ".apk", "KeySpec"]
    counts = [(120, 80), (100, 100), (140, 110), (70, 90), (110, 120),
              (80, 60), (130, 140), (90, 110), (60, 80), (100, 70)]
    entries = tuple(
        FrequencyEntry(catalog_m.by_name(n), b, m) for n, (b, m) in zip(names, counts)
    )
    base = tmp_path_factory.mktemp("accept_null")
    g = generate(FrequencySpec(entries, 200, 200, seed=101), base / "corpus")
    rows = list(csv.reader(g.labels.read_text().splitlines()))
    header, body = rows[0], rows[1:]
    labels = [r[1] for r in body]
    SplitMix64(201).shuffle(labels)
    with open(g.labels, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([[r[0], lab] for r, lab in zip(body, labels)])
    return g


def test_end_to_end_sanity(tmp_path_factory, catalog_m, null_corpus):
    """A separable corpus evaluates perfectly; a label-permuted corpus
    lands in the [0.4, 0.6] null band for both accuracy and AUC."""
    base = tmp_path_factory.mktemp("accept_sep")
    sep_spec = FrequencySpec(
        (FrequencyEntry(catalog_m.by_name("chmod"), 0, 200),), 200, 200, seed=3
    )
    g = generate(sep_spec, base / "corpus")
    matrix, _ = extract_corpus(load_corpus(g.root, g.labels), catalog_m)
    report = cross_validate(matrix, preset="15f", alpha=1.0, k=5, seed=7)
    assert float(report.averaged.acc) == 1.0
    assert report.roc.auc == 1.0

    null_matrix, _ = extract_corpus(
        load_corpus(null_corpus.root, null_corpus.labels), catalog_m
    )
    null_report = cross_validate(null_matrix, preset="15f", alpha=1.0, k=5, seed=301)
    acc = float(null_report.averaged.acc)
    auc = null_report.roc.auc
    assert 0.4 <= acc <= 0.6, f"null accuracy {acc} outside [0.4, 0.6]"
    assert 0.4 <= auc <= 0.6, f"null AUC {auc} outside [0.4, 0.6]"
    _passed(f"end-to-end sanity (separable perfect; null acc={acc:.3f} auc={auc:.3f})")


def test_performance_ordering(tmp_path_factory, catalog_m):
    """Permission-only extraction is faster than top-25 mixed, which is
    faster than the full 189-feature catalog, on a 500-app corpus."""
    base = tmp_path_factory.mktemp("accept_bench")
    spec = spec_from_table(data_table_path("table6"), catalog_m, 1000, 1000, seed=5)
    entries = tuple(
        FrequencyEntry(e.feature, e.benign // 4, e.malware // 4) for e in spec.entries
    )
    g = generate(FrequencySpec(entries, 250, 250, seed=5), base / "corpus", pad_lines=600)
    corpus = load_corpus(g.root, g.labels)

    (_, _, t_mixed25), (_, _, t_perm), _, (_, _, t_full2) = time_extraction_settings(corpus)

    assert t_perm < t_mixed25, f"P-only {t_perm:.3f}s not below mixed-25 {t_mixed25:.3f}s"
    assert t_mixed25 < t_full2, f"mixed-25 {t_mixed25:.3f}s not below full {t_full2:.3f}s"
    _passed(
        "performance ordering "
        f"(P {t_perm:.3f}s < mixed-25 {t_mixed25:.3f}s < full {t_full2:.3f}s)"
    )
