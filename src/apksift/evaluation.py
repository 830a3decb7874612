"""Stratified cross-validation, the full metric suite, ROC/AUC, and reports.

Metric values are kept as exact rationals so the identities
Acc + Err = 1, TPR + FNR = 1 and TNR + FPR = 1 hold without tolerance;
they are rendered to 5 decimal places in CSV output. Precision is
undefined when no sample was ever called suspicious; it is reported as
null and excluded from averages with a footnote count.

Fold assignment is a deterministic function of (ids, seed): within each
class, ids are byte-sorted, shuffled by a SplitMix64-driven Fisher-Yates
(class stream seeded with seed + 0 for benign, seed + 1 for suspicious),
and dealt round-robin over the k folds. The same inputs always reproduce
the same folds, on any platform. Each fold's training counts are the
corpus counts minus its test rows' counts: exact, the same bits as a recount.

No fold step depends on the selection or alpha: the folds, test rows,
training counts and rankings are one fold plan per (matrix, k, seed), kept
on the matrix (``FeatureMatrix.fold_plans``) by the first call after the
selection is checked, so each later call only selects, trains and scores.

One ROC curve is computed from the test scores of all folds pooled
together: thresholds sweep the distinct score values (with sentinels
above the maximum and below the minimum), ties are grouped into a single
point, and the area under the curve comes from the trapezoidal rule -
equal, under this construction, to the Mann-Whitney pair statistic with
ties counted one half.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from . import files
from .classifier import TrainedModel, posterior_matrix, train
from .corpus import BENIGN, PATH_KEY, SUSPICIOUS, ClassLabel
from .detectors import FeatureMatrix
from .errors import EvaluationError
from .ranking import (ContingencyTable, FeatureSelection, RankedFeature, build_contingency,
                      class_counts, rank_features, select_top)
from .rng import SplitMix64

REPORT_SCHEMA_VERSION = 1

#: Cross-validation calls a test row suspicious iff its posterior reaches this.
THRESHOLD = 0.5


@dataclass(frozen=True)
class ConfusionCounts:
    """The four outcome tallies of a test run."""

    n_bb: int  # benign -> benign
    n_bs: int  # benign -> suspicious
    n_sb: int  # suspicious -> benign
    n_ss: int  # suspicious -> suspicious

    def __post_init__(self):
        if min(self.n_bb, self.n_bs, self.n_sb, self.n_ss) < 0:
            raise EvaluationError("confusion counts must be nonnegative")

    @property
    def total(self) -> int:
        return self.n_bb + self.n_bs + self.n_sb + self.n_ss


@dataclass(frozen=True)
class MetricSet:
    acc: Fraction
    err: Fraction
    fpr: Fraction
    fnr: Fraction
    tpr: Fraction
    tnr: Fraction
    precision: Fraction | None

    def as_floats(self) -> dict[str, float | None]:
        return {
            "acc": float(self.acc),
            "err": float(self.err),
            "fpr": float(self.fpr),
            "fnr": float(self.fnr),
            "tpr": float(self.tpr),
            "tnr": float(self.tnr),
            "precision": None if self.precision is None else float(self.precision),
        }


@dataclass(frozen=True)
class RocCurve:
    """Threshold sweep points and the trapezoidal area under them."""

    points: tuple[tuple[float, float, float], ...]  # (threshold, fpr, tpr)
    auc: float


@dataclass
class FoldResult:
    fold: int
    test_ids: list[str]
    counts: ConfusionCounts
    metrics: MetricSet
    selected_features: list[str]


@dataclass
class EvalReport:
    config: dict
    folds: list[FoldResult]
    averaged: MetricSet
    precision_undefined_folds: int
    roc: RocCurve
    warnings: list[str] = field(default_factory=list)


def confusion(truths: list[ClassLabel], decisions: list[ClassLabel]) -> ConfusionCounts:
    """Cross-tabulate decisions against the ground-truth labels in the same order."""
    n_bb = n_bs = n_sb = n_ss = 0
    for truth, decided in zip(truths, decisions):
        if truth is BENIGN:
            if decided is BENIGN:
                n_bb += 1
            else:
                n_bs += 1
        else:
            if decided is BENIGN:
                n_sb += 1
            else:
                n_ss += 1
    return ConfusionCounts(n_bb, n_bs, n_sb, n_ss)


def metrics(counts: ConfusionCounts) -> MetricSet:
    """Accuracy, error, the four rates and precision, as exact rationals."""
    n_ben = counts.n_bb + counts.n_bs
    n_sus = counts.n_sb + counts.n_ss
    if n_ben == 0 or n_sus == 0:
        raise EvaluationError("metrics need at least one sample of each true class")
    total = counts.total
    predicted_sus = counts.n_bs + counts.n_ss
    return MetricSet(
        acc=Fraction(counts.n_bb + counts.n_ss, total),
        err=Fraction(counts.n_bs + counts.n_sb, total),
        fpr=Fraction(counts.n_bs, n_ben),
        fnr=Fraction(counts.n_sb, n_sus),
        tpr=Fraction(counts.n_ss, n_sus),
        tnr=Fraction(counts.n_bb, n_ben),
        precision=Fraction(counts.n_ss, predicted_sus) if predicted_sus else None,
    )


def stratified_kfold(
    ids: list[str],
    labels: dict[str, ClassLabel],
    k: int = 5,
    seed: int = 0,
) -> list[list[str]]:
    """Deterministic stratified fold assignment; returns k test-id lists.

    Folds are disjoint, cover all ids, and hold floor(N_c/k) or
    ceil(N_c/k) samples of each class.
    """
    if k < 2:
        raise EvaluationError(f"fold count must be >= 2, got {k}")
    if unlabeled := [app_id for app_id in ids if labels.get(app_id) is None]:
        raise EvaluationError(f"sample {unlabeled[0]!r} has no label; cannot stratify")
    folds: list[list[str]] = [[] for _ in range(k)]
    for class_index, label in enumerate((BENIGN, SUSPICIOUS)):
        members = sorted((app_id for app_id in ids if labels[app_id] is label), key=PATH_KEY)
        if len(members) < k:
            raise EvaluationError(
                f"class {label.value!r} has {len(members)} samples, fewer than k={k}"
            )
        SplitMix64(seed + class_index).shuffle(members)
        for i, app_id in enumerate(members):
            folds[i % k].append(app_id)
    return folds


def roc(scores: list[float], labels: list[ClassLabel]) -> RocCurve:
    """ROC points over the distinct-score threshold sweep, plus trapezoid AUC."""
    if len(scores) != len(labels):
        raise EvaluationError("scores and labels must align")
    n_sus = sum(1 for lab in labels if lab is SUSPICIOUS)
    n_ben = len(labels) - n_sus
    if n_sus == 0 or n_ben == 0:
        raise EvaluationError("ROC needs at least one sample of each class")

    order = sorted(range(len(scores)), key=scores.__getitem__, reverse=True)
    points: list[tuple[float, float, float]] = [(math.inf, 0.0, 0.0)]
    tp = fp = 0
    i = 0
    while i < len(order):
        value = scores[order[i]]
        while i < len(order) and scores[order[i]] == value:
            if labels[order[i]] is SUSPICIOUS:
                tp += 1
            else:
                fp += 1
            i += 1
        points.append((value, fp / n_ben, tp / n_sus))
    points.append((-math.inf, 1.0, 1.0))

    auc = 0.0
    for (_, x0, y0), (_, x1, y1) in zip(points, points[1:]):
        auc += (x1 - x0) * (y0 + y1) / 2.0
    return RocCurve(points=tuple(points), auc=auc)


def _mean_metrics(per_fold: list[MetricSet]) -> tuple[MetricSet, int]:
    k = len(per_fold)
    defined = [m.precision for m in per_fold if m.precision is not None]
    return (
        MetricSet(
            acc=sum(m.acc for m in per_fold) / k,
            err=sum(m.err for m in per_fold) / k,
            fpr=sum(m.fpr for m in per_fold) / k,
            fnr=sum(m.fnr for m in per_fold) / k,
            tpr=sum(m.tpr for m in per_fold) / k,
            tnr=sum(m.tnr for m in per_fold) / k,
            precision=sum(defined) / len(defined) if defined else None,
        ),
        k - len(defined),
    )


def _rows(matrix: FeatureMatrix, rows: list[int]) -> FeatureMatrix:
    return FeatureMatrix(
        ids=tuple(matrix.ids[r] for r in rows),
        labels=tuple(matrix.labels[r] for r in rows),
        feature_names=matrix.feature_names,
        rows=tuple(matrix.rows[r] for r in rows),
        mode=matrix.mode,
    )


def _fold_tables(totals: list[ContingencyTable], test: FeatureMatrix) -> tuple[list, list]:
    """The training tables (the corpus ``totals`` less the test rows' counts), ranked."""
    (n_sus, pos_sus), (n_ben, pos_ben) = class_counts(test)
    tables = [ContingencyTable(t.feature, t.n_pos_sus - s, t.n_pos_ben - b, t.n_sus - n_sus,
                               t.n_ben - n_ben) for t, s, b in zip(totals, pos_sus, pos_ben)]
    return tables, rank_features(tables)


def _select_and_score(tables: list[ContingencyTable], ranked: list[RankedFeature],
                      test: FeatureMatrix, preset: str | None, top_n: int | None,
                      alpha: float) -> tuple[TrainedModel, FeatureSelection, list[float]]:
    """Select from a fold's ranking, train on its tables and score its test rows."""
    selection = select_top(ranked, preset=preset, n=top_n)
    model = train(tables, selection.names, alpha=alpha, catalog_mode=test.mode)
    return model, selection, posterior_matrix(model, test).tolist()


def _fit_and_score(totals: list[ContingencyTable], test: FeatureMatrix, preset: str | None,
                   top_n: int | None, alpha: float) -> tuple:
    """Rank, select and train on the corpus ``totals`` less the test rows' counts,
    then score the test rows. Returns (model, selection, test posteriors)."""
    return _select_and_score(*_fold_tables(totals, test), test, preset, top_n, alpha)


def _fold_plan(matrix: FeatureMatrix, labels: dict[str, ClassLabel], k: int, seed: int) -> list:
    """Each fold's (test rows, training tables, ranking), built once per (k, seed)."""
    key = (operator.index(k), operator.index(seed))  # 5.0 must not hit the plan of 5
    if key not in matrix.fold_plans:
        totals = build_contingency(matrix)
        row_of = {app_id: i for i, app_id in enumerate(matrix.ids)}
        # Test rows keep fold order for the pooled ROC; counts ignore row order.
        tests = [_rows(matrix, [row_of[app_id] for app_id in test_ids])
                 for test_ids in stratified_kfold(list(matrix.ids), labels, k=k, seed=seed)]
        matrix.fold_plans[key] = [(test, *_fold_tables(totals, test)) for test in tests]
    return matrix.fold_plans[key]


def cross_validate(
    matrix: FeatureMatrix,
    preset: str | None = None,
    top_n: int | None = None,
    alpha: float = 1.0,
    k: int = 5,
    seed: int = 0,
) -> EvalReport:
    """Leakage-free k-fold evaluation: ranking and training see only the
    training portion of each fold; metrics average across folds and all
    test scores pool into a single ROC/AUC."""
    labels = dict(zip(matrix.ids, matrix.labels))
    if None in labels.values() or len(labels) != len(matrix):  # unlabeled, or an id repeated
        raise EvaluationError("cross-validation requires a fully labeled matrix")
    # select_top's checks on a ranking of the right length, before any fold work
    select_top([RankedFeature("", 0.0, 0, 0)] * len(matrix.feature_names), preset, top_n)

    fold_results: list[FoldResult] = []
    pooled_scores: list[float] = []
    pooled_labels: list[ClassLabel] = []
    for fold_index, (test, tables, ranked) in enumerate(_fold_plan(matrix, labels, k, seed)):
        _, selection, posteriors = _select_and_score(tables, ranked, test, preset, top_n, alpha)
        decisions = [
            SUSPICIOUS if p >= THRESHOLD else BENIGN for p in posteriors
        ]
        counts = confusion(test.labels, decisions)
        fold_results.append(
            FoldResult(
                fold=fold_index,
                test_ids=list(test.ids),
                counts=counts,
                metrics=metrics(counts),
                selected_features=list(selection.names),
            )
        )
        pooled_scores.extend(posteriors)
        pooled_labels.extend(test.labels)

    averaged, undefined = _mean_metrics([f.metrics for f in fold_results])
    config = {
        "mode": matrix.mode,
        "preset": preset if preset is not None else f"custom-{top_n}",
        "alpha": alpha,
        "folds": k,
        "seed": seed,
        "threshold": THRESHOLD,
        "fold_shuffle": "splitmix64-fisher-yates-roundrobin",
        "roc_aggregation": "pooled",
    }
    return EvalReport(
        config=config,
        folds=fold_results,
        averaged=averaged,
        precision_undefined_folds=undefined,
        roc=roc(pooled_scores, pooled_labels),
    )


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------

def _threshold_value(value: float) -> float | str:
    """A ROC threshold for JSON or CSV: the infinite sentinels as text.

    ``csv`` writes a float with ``repr``, so one value serves both files.
    """
    if value == math.inf:
        return "inf"
    if value == -math.inf:
        return "-inf"
    return value


def report_to_dict(report: EvalReport) -> dict:
    """Pure-JSON-type structure of the full report (round-trips losslessly)."""
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "config": report.config,
        "folds": [
            {
                "fold": f.fold,
                "counts": {
                    "n_bb": f.counts.n_bb,
                    "n_bs": f.counts.n_bs,
                    "n_sb": f.counts.n_sb,
                    "n_ss": f.counts.n_ss,
                },
                "metrics": f.metrics.as_floats(),
                "selected_features": f.selected_features,
                "test_size": len(f.test_ids),
            }
            for f in report.folds
        ],
        "averaged": report.averaged.as_floats(),
        "precision_undefined_folds": report.precision_undefined_folds,
        "roc": {
            "auc": report.roc.auc,
            "points": [
                [_threshold_value(t), fpr, tpr] for t, fpr, tpr in report.roc.points
            ],
        },
        "warnings": report.warnings,
    }


_METRIC_COLUMNS = ("acc", "err", "fpr", "fnr", "tpr", "tnr", "precision")


def _metric_row(label: str, m: MetricSet) -> list[str]:
    values = m.as_floats()
    return [label] + [
        "" if values[c] is None else f"{values[c]:.5f}" for c in _METRIC_COLUMNS
    ]


def emit_report(
    report: EvalReport,
    out_dir: Path | str,
    formats: tuple[str, ...] = ("json", "csv", "svg"),
) -> list[Path]:
    """Write report.json, metrics.csv, roc.csv and roc.svg under ``out_dir``."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise EvaluationError(f"cannot create report directory {out}: {exc}") from exc
    written: list[Path] = []

    if "json" in formats:
        written.append(out / "report.json")
        text = json.dumps(report_to_dict(report), indent=2, sort_keys=True) + "\n"
        files.write_text(written[-1], text, EvaluationError)

    if "csv" in formats:
        written.append(out / "metrics.csv")
        rows = [_metric_row(str(f.fold), f.metrics) for f in report.folds]
        rows.append(_metric_row("avg", report.averaged))
        files.write_csv(written[-1], ["fold", *_METRIC_COLUMNS], rows, EvaluationError)

        written.append(out / "roc.csv")
        rows = [[_threshold_value(t), f"{x:.5f}", f"{y:.5f}"] for t, x, y in report.roc.points]
        files.write_csv(written[-1], ["threshold", "fpr", "tpr"], rows, EvaluationError)

    if "svg" in formats:
        written.append(out / "roc.svg")
        files.write_text(written[-1], roc_svg(report.roc), EvaluationError)

    return written


def roc_svg(curve: RocCurve) -> str:
    """Standalone 480-pixel SVG plot of the ROC curve (FPR 0-1 vs TPR 0-1)."""
    size, margin = 480, 50
    span = size - 2 * margin

    def sx(fpr: float) -> float:
        return margin + fpr * span

    def sy(tpr: float) -> float:
        return size - margin - tpr * span

    poly = " ".join(f"{sx(fpr):.2f},{sy(tpr):.2f}" for _, fpr, tpr in curve.points)
    ticks = []
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        x, y = sx(frac), sy(frac)
        ticks.append(
            f'<text x="{x:.1f}" y="{size - margin + 18}" text-anchor="middle" '
            f'font-size="11">{frac:g}</text>'
        )
        ticks.append(
            f'<text x="{margin - 8}" y="{y + 4:.1f}" text-anchor="end" '
            f'font-size="11">{frac:g}</text>'
        )
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">\n'
        f'<rect width="{size}" height="{size}" fill="white"/>\n'
        f'<line x1="{margin}" y1="{size - margin}" x2="{size - margin}" '
        f'y2="{size - margin}" stroke="black"/>\n'
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{size - margin}" '
        f'stroke="black"/>\n'
        f'<line x1="{sx(0):.2f}" y1="{sy(0):.2f}" x2="{sx(1):.2f}" y2="{sy(1):.2f}" '
        f'stroke="#bbbbbb" stroke-dasharray="4 4"/>\n'
        f'<polyline points="{poly}" fill="none" stroke="#c0392b" stroke-width="1.5"/>\n'
        + "\n".join(ticks)
        + f'\n<text x="{size / 2:.0f}" y="{size - 12}" text-anchor="middle" '
        f'font-size="13">FPR</text>\n'
        f'<text x="14" y="{size / 2:.0f}" text-anchor="middle" font-size="13" '
        f'transform="rotate(-90 14 {size / 2:.0f})">TPR</text>\n'
        f'<text x="{size - margin}" y="{margin - 10}" text-anchor="end" '
        f'font-size="12">AUC = {curve.auc:.5f}</text>\n'
        "</svg>\n"
    )
