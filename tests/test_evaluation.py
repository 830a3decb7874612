import dataclasses
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from apksift.classifier import train
from apksift.corpus import ClassLabel
from apksift.detectors import FeatureMatrix
from apksift.errors import EvaluationError, RankingError
from apksift.evaluation import (
    ConfusionCounts,
    _fit_and_score,
    _rows,
    confusion,
    cross_validate,
    emit_report,
    metrics,
    report_to_dict,
    roc,
    stratified_kfold,
)
from apksift.ranking import PRESETS, build_contingency

from reference import naive_cross_validate

BEN, SUS = ClassLabel.BENIGN, ClassLabel.SUSPICIOUS


def pair_count_auc(scores, labels):
    """Independent oracle: AUC as the Mann-Whitney statistic, counting each
    (suspicious, benign) pair once and ties as one half."""
    sus = [s for s, lab in zip(scores, labels) if lab is SUS]
    ben = [s for s, lab in zip(scores, labels) if lab is BEN]
    wins = sum(1 for s in sus for b in ben if s > b)
    ties = sum(1 for s in sus for b in ben if s == b)
    return (wins + 0.5 * ties) / (len(sus) * len(ben))


# --- metrics -----------------------------------------------------------------

def test_metrics_hand_case():
    m = metrics(ConfusionCounts(190, 10, 18, 182))
    assert m.acc == Fraction(93, 100)
    assert m.err == Fraction(7, 100)
    assert m.fpr == Fraction(5, 100)
    assert m.tpr == Fraction(91, 100)
    assert m.fnr == Fraction(9, 100)
    assert m.tnr == Fraction(95, 100)
    assert m.precision == Fraction(182, 192)


def test_metrics_perfect():
    m = metrics(ConfusionCounts(50, 0, 0, 50))
    assert (m.acc, m.err, m.fpr, m.tpr, m.precision) == (1, 0, 0, 1, 1)


def test_metrics_all_inverted():
    m = metrics(ConfusionCounts(0, 50, 50, 0))
    assert (m.acc, m.tpr, m.tnr) == (0, 0, 0)


def test_metrics_everything_called_suspicious():
    m = metrics(ConfusionCounts(0, 50, 0, 50))
    assert m.acc == Fraction(1, 2)
    assert m.fpr == 1
    assert m.tpr == 1
    assert m.precision == Fraction(1, 2)


def test_metric_identities_exact_on_random_counts():
    rng = random.Random(2024)
    for _ in range(1000):
        counts = ConfusionCounts(
            rng.randint(0, 500), rng.randint(0, 500),
            rng.randint(0, 500), rng.randint(0, 500),
        )
        if counts.n_bb + counts.n_bs == 0 or counts.n_sb + counts.n_ss == 0:
            continue
        m = metrics(counts)
        assert m.acc + m.err == 1
        assert m.tpr + m.fnr == 1
        assert m.tnr + m.fpr == 1


def test_precision_undefined_when_nothing_called_suspicious():
    m = metrics(ConfusionCounts(50, 0, 50, 0))
    assert m.precision is None


def test_metrics_empty_class_fatal():
    with pytest.raises(EvaluationError):
        metrics(ConfusionCounts(10, 5, 0, 0))


def test_negative_counts_rejected():
    with pytest.raises(EvaluationError):
        ConfusionCounts(-1, 0, 0, 1)


# --- confusion ------------------------------------------------------------------

def test_confusion_all_correct():
    truths = [BEN, BEN, SUS, SUS]
    c = confusion(truths, truths)
    assert (c.n_bb, c.n_bs, c.n_sb, c.n_ss) == (2, 0, 0, 2)


def test_confusion_all_inverted():
    c = confusion([BEN, BEN, SUS, SUS], [SUS, SUS, BEN, BEN])
    assert (c.n_bb, c.n_bs, c.n_sb, c.n_ss) == (0, 2, 2, 0)


# --- stratified_kfold --------------------------------------------------------------

def _ids_labels(n_ben, n_sus):
    ids = [f"b{i:04d}" for i in range(n_ben)] + [f"s{i:04d}" for i in range(n_sus)]
    labels = {i: (BEN if i.startswith("b") else SUS) for i in ids}
    return ids, labels


def test_kfold_balanced_10_10():
    ids, labels = _ids_labels(10, 10)
    folds = stratified_kfold(ids, labels, k=5, seed=1)
    assert len(folds) == 5
    for fold in folds:
        assert sum(1 for i in fold if labels[i] is BEN) == 2
        assert sum(1 for i in fold if labels[i] is SUS) == 2


def test_kfold_deterministic():
    ids, labels = _ids_labels(30, 30)
    assert stratified_kfold(ids, labels, seed=9) == stratified_kfold(ids, labels, seed=9)
    assert stratified_kfold(ids, labels, seed=9) != stratified_kfold(ids, labels, seed=10)


def test_kfold_disjoint_and_covering():
    ids, labels = _ids_labels(23, 31)
    folds = stratified_kfold(ids, labels, k=5, seed=3)
    seen = [i for fold in folds for i in fold]
    assert len(seen) == len(set(seen)) == len(ids)
    assert set(seen) == set(ids)
    sizes = sorted(len(f) for f in folds)
    assert sizes[-1] - sizes[0] <= 2  # floor/ceil of each class


def test_kfold_non_utf8_ids():
    # load_corpus keeps a non-UTF-8 directory name as a surrogate-escaped id
    ids = [f"\udcff{i}" for i in range(3)] + [f"b{i}" for i in range(3)]
    labels = {i: (BEN if i.startswith("b") else SUS) for i in ids}
    folds = stratified_kfold(ids, labels, k=3, seed=4)
    assert sorted(i for fold in folds for i in fold) == sorted(ids)
    assert stratified_kfold(ids[::-1], labels, k=3, seed=4) == folds


def test_kfold_class_smaller_than_k_fatal():
    ids, labels = _ids_labels(4, 10)
    with pytest.raises(EvaluationError, match="benign"):
        stratified_kfold(ids, labels, k=5)


def test_kfold_unlabeled_fatal():
    ids, labels = _ids_labels(5, 5)
    ids.append("mystery")
    with pytest.raises(EvaluationError, match="mystery"):
        stratified_kfold(ids, labels, k=5)


# --- roc ------------------------------------------------------------------------

def test_auc_perfect_separation():
    scores = [0.9, 0.8, 0.2, 0.1]
    labels = [SUS, SUS, BEN, BEN]
    assert roc(scores, labels).auc == pytest.approx(1.0)


def test_auc_all_scores_identical():
    curve = roc([0.5] * 6, [SUS, BEN, SUS, BEN, SUS, BEN])
    assert curve.auc == pytest.approx(0.5)
    # one diagonal segment: (0,0) then the tie group at (1,1)
    coords = [(fpr, tpr) for _, fpr, tpr in curve.points]
    assert coords[0] == (0.0, 0.0) and coords[-1] == (1.0, 1.0)


def test_auc_matches_pair_count_oracle():
    rng = random.Random(404)
    for _ in range(200):
        n_sus = rng.randint(1, 10)
        n_ben = rng.randint(1, 10)
        # coarse grid scores so ties actually occur
        scores = [rng.randint(0, 5) / 5 for _ in range(n_sus + n_ben)]
        labels = [SUS] * n_sus + [BEN] * n_ben
        rng.shuffle(labels)
        assert roc(scores, labels).auc == pytest.approx(
            pair_count_auc(scores, labels), abs=1e-12
        )


def test_roc_endpoints_and_monotone_fpr():
    rng = random.Random(8)
    scores = [rng.random() for _ in range(30)]
    labels = [SUS if rng.random() < 0.5 else BEN for _ in range(30)]
    if SUS not in labels:
        labels[0] = SUS
    if BEN not in labels:
        labels[1] = BEN
    curve = roc(scores, labels)
    assert curve.points[0][0] == math.inf and curve.points[0][1:] == (0.0, 0.0)
    assert curve.points[-1][0] == -math.inf and curve.points[-1][1:] == (1.0, 1.0)
    fprs = [fpr for _, fpr, _ in curve.points]
    assert fprs == sorted(fprs)


def test_auc_invariant_under_monotone_transform():
    rng = random.Random(15)
    scores = [rng.random() for _ in range(40)]
    labels = [SUS if i % 3 else BEN for i in range(40)]
    base = roc(scores, labels)
    transformed = roc([math.exp(3 * s) + 1 for s in scores], labels)
    assert transformed.auc == pytest.approx(base.auc, abs=1e-12)
    assert [(f, t) for _, f, t in transformed.points] == [(f, t) for _, f, t in base.points]


def test_label_reversal_maps_auc():
    rng = random.Random(16)
    scores = [rng.randint(0, 9) / 9 for _ in range(30)]
    labels = [SUS if rng.random() < 0.4 else BEN for _ in range(30)]
    if SUS not in labels:
        labels[0] = SUS
    if BEN not in labels:
        labels[1] = BEN
    flipped = [BEN if lab is SUS else SUS for lab in labels]
    assert roc(scores, flipped).auc == pytest.approx(1.0 - roc(scores, labels).auc, abs=1e-12)


def test_roc_single_class_fatal():
    with pytest.raises(EvaluationError):
        roc([0.1, 0.2], [BEN, BEN])


# --- cross_validate -----------------------------------------------------------------

def _separable_matrix(n_per_class=20, n_features=3):
    ids = [f"b{i:03d}" for i in range(n_per_class)] + [f"s{i:03d}" for i in range(n_per_class)]
    labels = [BEN] * n_per_class + [SUS] * n_per_class
    bits = np.zeros((2 * n_per_class, n_features), dtype=np.uint8)
    bits[n_per_class:, 0] = 1  # feature 0 present in exactly the suspicious class
    return FeatureMatrix(
        ids=tuple(ids),
        labels=tuple(labels),
        feature_names=tuple(f"f{i}" for i in range(n_features)),
        rows=tuple(map(bytes, bits)),
        mode="M",
    )


def test_cross_validate_separable_is_perfect():
    report = cross_validate(_separable_matrix(), top_n=1, k=5, seed=7)
    assert float(report.averaged.acc) == 1.0
    assert report.roc.auc == 1.0
    for fold in report.folds:
        assert fold.counts.n_bs == 0 and fold.counts.n_sb == 0


def test_cross_validate_deterministic():
    matrix = _separable_matrix(25, 4)
    r1 = cross_validate(matrix, top_n=2, k=5, seed=3)
    r2 = cross_validate(matrix, top_n=2, k=5, seed=3)
    d1, d2 = map(report_to_dict, (r1, r2))
    assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)


def test_cross_validate_averaged_is_fold_mean():
    report = cross_validate(_separable_matrix(15, 3), top_n=1, k=3, seed=1)
    for name in ("acc", "err", "fpr", "fnr", "tpr", "tnr"):
        values = [getattr(f.metrics, name) for f in report.folds]
        assert getattr(report.averaged, name) == sum(values) / len(values)


def test_cross_validate_selection_per_fold_reported():
    report = cross_validate(_separable_matrix(), top_n=2, k=5, seed=2)
    for fold in report.folds:
        assert fold.selected_features[0] == "f0"
        assert len(fold.selected_features) == 2


def test_cross_validate_unlabeled_fatal():
    m = _separable_matrix(10, 2)
    m = FeatureMatrix(m.ids, (None,) + m.labels[1:], m.feature_names, m.rows, m.mode)
    with pytest.raises(EvaluationError):
        cross_validate(m, top_n=1, k=5, seed=0)


def test_cross_validate_ignores_row_order():
    rng = random.Random(5)
    ids = [f"app{i:02d}" for i in range(60)]
    labels = [rng.choice((BEN, SUS)) for _ in ids]
    # Odd features lean suspicious, so folds rank, select and score differently.
    bits = np.array([[rng.random() < (0.7 if lab is SUS and j % 2 else 0.3) for j in range(8)]
                     for lab in labels], dtype=np.uint8)
    names = tuple(f"f{j}" for j in range(8))
    matrix = FeatureMatrix(tuple(ids), tuple(labels), names, tuple(map(bytes, bits)), "M")
    order = list(range(len(ids)))
    rng.shuffle(order)
    permuted = FeatureMatrix(
        tuple(ids[r] for r in order), tuple(labels[r] for r in order), names,
        tuple(map(bytes, bits[order])), "M"
    )
    for selection in ({"top_n": 3}, {"preset": "5fT"}):
        a = cross_validate(matrix, **selection, k=5, seed=3)
        b = cross_validate(permuted, **selection, k=5, seed=3)
        assert report_to_dict(a) == report_to_dict(b)
        assert [f.test_ids for f in a.folds] == [f.test_ids for f in b.folds]


def test_leakage_guard_test_labels_never_touch_training():
    matrix = _separable_matrix(20, 3)
    labels = {i: lab for i, lab in zip(matrix.ids, matrix.labels)}
    folds = stratified_kfold(list(matrix.ids), labels, k=5, seed=11)
    test_rows = [matrix.ids.index(t) for t in folds[0]]

    def fit(m):
        return _fit_and_score(build_contingency(m), _rows(m, test_rows), None, 2, 1.0)

    model_a, sel_a, post_a = fit(matrix)
    # flip the labels of the test rows only; training must be unaffected
    permuted = list(matrix.labels)
    for row in test_rows:
        permuted[row] = BEN if permuted[row] is SUS else SUS
    model_b, sel_b, post_b = fit(FeatureMatrix(
        matrix.ids, tuple(permuted), matrix.feature_names, matrix.rows, matrix.mode
    ))
    assert model_a == model_b
    assert sel_a == sel_b
    assert post_a == post_b
    # and the model is the one the training rows alone give
    train_rows = [r for r in range(len(matrix)) if r not in test_rows]
    tables = build_contingency(_rows(matrix, train_rows))
    assert model_a == train(tables, sel_a.names, alpha=1.0, catalog_mode=matrix.mode)


def _oracle_matrix(rng, n_ben, n_sus, n_features):
    """Random rows with all-zero, all-one, one-class-only and skewed columns."""
    labels = [BEN] * n_ben + [SUS] * n_sus
    rng.shuffle(labels)
    columns = []
    for j in range(n_features):
        kind = j % 5
        if kind == 0:
            columns.append([0] * len(labels))
        elif kind == 1:
            columns.append([1] * len(labels))
        elif kind == 2:
            columns.append([int(lab is SUS and rng.random() < 0.6) for lab in labels])
        else:
            p_ben, p_sus = rng.random(), rng.random()
            columns.append([int(rng.random() < (p_sus if lab is SUS else p_ben))
                            for lab in labels])
    bits = np.array(columns, dtype=np.uint8).T
    ids = tuple(f"app{i:03d}" for i in rng.sample(range(1000), len(labels)))
    names = tuple(f"f{j:02d}" for j in range(n_features))
    return FeatureMatrix(ids, tuple(labels), names, tuple(map(bytes, bits)),
                         rng.choice(("M", "P", None)))


def test_cross_validate_equals_naive_oracle():
    rng = random.Random(26)
    selections = [{"preset": p} for p in PRESETS] + [{"top_n": n} for n in (1, 3, 20)]
    case = 0
    for k in (2, 3, 5, 10):
        for alpha in (0.0, 1.0):
            # one class at its minimum size k, then the other, then two random sizes
            for sizes in ((k, 4 * k + 9), (4 * k + 9, k), None, None):
                n_ben, n_sus = sizes or (rng.randint(k, 4 * k + 9), rng.randint(k, 4 * k + 9))
                matrix = _oracle_matrix(rng, n_ben, n_sus, rng.randint(20, 26))
                selection = selections[case % len(selections)]
                case += 1
                seed = rng.randrange(2**32)
                fast = cross_validate(matrix, **selection, alpha=alpha, k=k, seed=seed)
                naive = naive_cross_validate(matrix, **selection, alpha=alpha, k=k, seed=seed)
                naive.config = fast.config
                assert report_to_dict(fast) == report_to_dict(naive), (k, alpha, selection)


def test_fold_plans_do_not_leak_between_calls():
    """Two matrix objects, each serving every preset (repeated, out of order) and
    top_n 7 at two seeds, k 3 and 5 and alpha 1 and 0, in one interleaved order:
    every report equals the naive oracle and the same call on a fresh copy of its
    matrix, and each matrix keeps one plan per (k, seed)."""
    rng = random.Random(33)
    matrices = [_oracle_matrix(rng, 24, 19, 22), _oracle_matrix(rng, 17, 26, 21)]
    selections = [{"preset": p} for p in PRESETS] + [{"top_n": 7}]
    calls = [(m, sel, alpha, k, seed) for m in matrices for sel in selections
             for alpha in (1.0, 0.0) for k in (3, 5) for seed in (4, 9)]
    rng.shuffle(calls)
    for matrix, selection, alpha, k, seed in calls + calls[::5]:
        args = dict(selection, alpha=alpha, k=k, seed=seed)
        shared = cross_validate(matrix, **args)
        fresh = cross_validate(dataclasses.replace(matrix), **args)
        naive = naive_cross_validate(matrix, **args)
        naive.config = shared.config
        assert report_to_dict(shared) == report_to_dict(fresh) == report_to_dict(naive), args
        assert [f.test_ids for f in shared.folds] == [f.test_ids for f in naive.folds]
        shared.folds[0].test_ids.clear()  # a caller's edit to its report reaches no plan
        shared.folds[0].selected_features.clear()
    for matrix in matrices:
        assert set(matrix.fold_plans) == {(3, 4), (3, 9), (5, 4), (5, 9)}


@pytest.mark.parametrize("selection, message", [
    ({"preset": "20f"}, "selection '20f' needs 20 ranked features, only 10 available"),
    ({"top_n": 11}, "selection 'custom-11' needs 11 ranked features, only 10 available"),
    ({"top_n": 0}, "top-n selection needs n >= 1, got 0"),
    ({"preset": "30f"}, "unknown preset '30f'"),
    ({}, "specify exactly one of preset or n"),
])
def test_bad_selection_fails_before_any_fold_work(selection, message):
    matrix = _separable_matrix(10, 10)
    with pytest.raises(RankingError) as caught:
        cross_validate(matrix, **selection, k=5, seed=1)
    assert str(caught.value).startswith(message)
    assert matrix.fold_plans == {}


# --- emit_report -------------------------------------------------------------------

def test_emit_report_files_and_roundtrip(tmp_path):
    report = cross_validate(_separable_matrix(), top_n=1, k=5, seed=4)
    files = emit_report(report, tmp_path / "out")
    names = [p.name for p in files]
    assert names == ["report.json", "metrics.csv", "roc.csv", "roc.svg"]

    payload = json.loads((tmp_path / "out" / "report.json").read_text())
    assert payload == report_to_dict(report)  # round-trips to an equal structure
    assert payload["schema_version"] == 1
    assert payload["config"]["seed"] == 4

    roc_lines = (tmp_path / "out" / "roc.csv").read_text().splitlines()
    assert roc_lines[0] == "threshold,fpr,tpr"
    fprs = [float(line.split(",")[1]) for line in roc_lines[1:]]
    assert fprs == sorted(fprs)

    svg = (tmp_path / "out" / "roc.svg").read_text()
    assert "<polyline" in svg
    # polyline reaches both the (0,0) and (1,1) plot corners
    assert "50.00,430.00" in svg and "430.00,50.00" in svg


def test_emit_report_format_subset(tmp_path):
    report = cross_validate(_separable_matrix(), top_n=1, k=5, seed=4)
    files = emit_report(report, tmp_path / "json_only", formats=("json",))
    assert [p.name for p in files] == ["report.json"]


def test_metrics_csv_layout(tmp_path):
    report = cross_validate(_separable_matrix(), top_n=1, k=5, seed=4)
    emit_report(report, tmp_path, formats=("csv",))
    lines = (tmp_path / "metrics.csv").read_text().splitlines()
    assert lines[0] == "fold,acc,err,fpr,fnr,tpr,tnr,precision"
    assert len(lines) == 1 + 5 + 1  # header + folds + average row
    assert lines[-1].startswith("avg,")
    assert lines[1].split(",")[1] == "1.00000"
