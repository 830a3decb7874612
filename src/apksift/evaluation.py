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
the same folds, on any platform.

One ROC curve is computed from the test scores of all folds pooled
together: thresholds sweep the distinct score values (with sentinels
above the maximum and below the minimum), ties are grouped into a single
point, and the area under the curve comes from the trapezoidal rule -
equal, under this construction, to the Mann-Whitney pair statistic with
ties counted one half.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path


from .classifier import TrainedModel, posterior_matrix, train
from .corpus import ClassLabel
from .detectors import FeatureMatrix
from .errors import EvaluationError
from .ranking import FeatureSelection, build_contingency, rank_features, select_top
from .rng import SplitMix64

REPORT_SCHEMA_VERSION = 1


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


def confusion(predictions, labels: dict[str, ClassLabel]) -> ConfusionCounts:
    """Cross-tabulate predictions against ground-truth labels by sample id."""
    truths, decisions = [], []
    for pred in predictions:
        truth = labels.get(pred.sample_id)
        if truth is None:
            raise EvaluationError(f"prediction for {pred.sample_id!r} has no ground-truth label")
        truths.append(truth)
        decisions.append(pred.decision)
    return _tally(truths, decisions)


def _tally(truths: list[ClassLabel], decisions: list[ClassLabel]) -> ConfusionCounts:
    n_bb = n_bs = n_sb = n_ss = 0
    for truth, decided in zip(truths, decisions):
        if truth is ClassLabel.BENIGN:
            if decided is ClassLabel.BENIGN:
                n_bb += 1
            else:
                n_bs += 1
        else:
            if decided is ClassLabel.BENIGN:
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
    by_class: dict[ClassLabel, list[str]] = {ClassLabel.BENIGN: [], ClassLabel.SUSPICIOUS: []}
    for app_id in ids:
        label = labels.get(app_id)
        if label is None:
            raise EvaluationError(f"sample {app_id!r} has no label; cannot stratify")
        by_class[label].append(app_id)
    folds: list[list[str]] = [[] for _ in range(k)]
    for class_index, label in enumerate((ClassLabel.BENIGN, ClassLabel.SUSPICIOUS)):
        members = sorted(by_class[label], key=lambda s: s.encode("utf-8"))
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
    n_sus = sum(1 for lab in labels if lab is ClassLabel.SUSPICIOUS)
    n_ben = len(labels) - n_sus
    if n_sus == 0 or n_ben == 0:
        raise EvaluationError("ROC needs at least one sample of each class")

    order = sorted(range(len(scores)), key=lambda i: -scores[i])
    points: list[tuple[float, float, float]] = [(math.inf, 0.0, 0.0)]
    tp = fp = 0
    i = 0
    while i < len(order):
        value = scores[order[i]]
        while i < len(order) and scores[order[i]] == value:
            if labels[order[i]] is ClassLabel.SUSPICIOUS:
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


def _submatrix(matrix: FeatureMatrix, row_ids: list[str]) -> FeatureMatrix:
    index = {app_id: i for i, app_id in enumerate(matrix.ids)}
    rows = [index[r] for r in row_ids]
    return FeatureMatrix(
        ids=tuple(row_ids),
        labels=tuple(matrix.labels[r] for r in rows),
        feature_names=matrix.feature_names,
        bits=matrix.bits[rows],
        mode=matrix.mode,
    )


def _evaluate_fold(
    matrix: FeatureMatrix,
    train_ids: list[str],
    test_ids: list[str],
    preset: str | None,
    top_n: int | None,
    alpha: float,
    threshold: float,
) -> tuple[TrainedModel, FeatureSelection, list[float], list[ClassLabel], list[ClassLabel]]:
    """Rank, select and train on the training rows only, then score the test rows.

    Returns (model, selection, test posteriors, test decisions, test truths).
    """
    train_matrix = _submatrix(matrix, train_ids)
    ranked = rank_features(build_contingency(train_matrix))
    selection = select_top(ranked, preset=preset, n=top_n)
    model = train(train_matrix, selection, alpha=alpha)
    test_matrix = _submatrix(matrix, test_ids)
    posteriors = posterior_matrix(model, test_matrix).tolist()
    decisions = [
        ClassLabel.SUSPICIOUS if p >= threshold else ClassLabel.BENIGN for p in posteriors
    ]
    truths = list(test_matrix.labels)
    return model, selection, posteriors, decisions, truths


def cross_validate(
    matrix: FeatureMatrix,
    preset: str | None = None,
    top_n: int | None = None,
    alpha: float = 1.0,
    k: int = 5,
    seed: int = 0,
    threshold: float = 0.5,
) -> EvalReport:
    """Leakage-free k-fold evaluation: ranking and training see only the
    training portion of each fold; metrics average across folds and all
    test scores pool into a single ROC/AUC."""
    labels = {
        app_id: lab for app_id, lab in zip(matrix.ids, matrix.labels) if lab is not None
    }
    if len(labels) != len(matrix.ids):
        raise EvaluationError("cross-validation requires a fully labeled matrix")
    folds = stratified_kfold(list(matrix.ids), labels, k=k, seed=seed)
    all_ids = set(matrix.ids)

    fold_results: list[FoldResult] = []
    pooled_scores: list[float] = []
    pooled_labels: list[ClassLabel] = []
    for fold_index, test_ids in enumerate(folds):
        train_ids = sorted(all_ids.difference(test_ids), key=lambda s: s.encode("utf-8"))
        _, selection, posteriors, decisions, truths = _evaluate_fold(
            matrix, train_ids, test_ids, preset, top_n, alpha, threshold
        )
        counts = _tally(truths, decisions)
        fold_results.append(
            FoldResult(
                fold=fold_index,
                test_ids=test_ids,
                counts=counts,
                metrics=metrics(counts),
                selected_features=list(selection.names),
            )
        )
        pooled_scores.extend(posteriors)
        pooled_labels.extend(truths)

    averaged, undefined = _mean_metrics([f.metrics for f in fold_results])
    config = {
        "mode": matrix.mode,
        "preset": preset if preset is not None else f"custom-{top_n}",
        "alpha": alpha,
        "folds": k,
        "seed": seed,
        "threshold": threshold,
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
        path = out / "report.json"
        path.write_text(
            json.dumps(report_to_dict(report), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        written.append(path)

    if "csv" in formats:
        path = out / "metrics.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["fold", *_METRIC_COLUMNS])
            for f in report.folds:
                writer.writerow(_metric_row(str(f.fold), f.metrics))
            writer.writerow(_metric_row("avg", report.averaged))
        written.append(path)

        path = out / "roc.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["threshold", "fpr", "tpr"])
            for t, fpr, tpr in report.roc.points:
                writer.writerow([_threshold_value(t), f"{fpr:.5f}", f"{tpr:.5f}"])
        written.append(path)

    if "svg" in formats:
        path = out / "roc.svg"
        path.write_text(roc_svg(report.roc), encoding="utf-8")
        written.append(path)

    return written


def roc_svg(curve: RocCurve, size: int = 480, margin: int = 50) -> str:
    """Standalone SVG plot of the ROC curve (FPR 0-1 vs TPR 0-1)."""
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
