"""Bernoulli naive Bayes over selected binary features.

Training reads the contingency tables ranking already took: class priors
from the class sizes and, for every selected feature, the probability of
seeing the bit set in each class with additive smoothing:
theta = (positives + alpha) / (class size + 2*alpha). Scoring follows one
written rule over a whole matrix (``_scores``): log joints (the likelihood
product underflows otherwise) summed left to right with libm's log and
exp, so no posterior bit depends on the CPU. A sample is called
suspicious when its posterior reaches the decision threshold; exact ties
go to suspicious, the costlier class to miss.

Models persist as JSON holding only integer counts plus the smoothing
value, so a save/load round trip reproduces posteriors bit-for-bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import files
from .catalog import MODES
from .corpus import ClassLabel
from .detectors import FeatureMatrix
from .errors import ModelError
from .ranking import ContingencyTable

MODEL_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class TrainedModel:
    feature_names: tuple[str, ...]
    n_benign: int
    n_suspicious: int
    pos_benign: tuple[int, ...]     # per feature: count of bit=1 among benign
    pos_suspicious: tuple[int, ...]
    alpha: float
    catalog_mode: str | None = None

    def __post_init__(self):
        names = self.feature_names
        bad = [n for i, n in enumerate(names) if not isinstance(n, str) or not n or n in names[:i]]
        if bad:
            raise ModelError(f"feature name {bad[0]!r} is not a unique, non-empty string")
        if self.n_benign < 1 or self.n_suspicious < 1:
            raise ModelError("training requires at least one sample of each class")
        if not (len(self.feature_names) == len(self.pos_benign) == len(self.pos_suspicious)):
            raise ModelError("per-feature count arrays must match the feature list")
        if not 0 <= self.alpha < math.inf:  # NaN fails the comparison too
            raise ModelError(f"smoothing alpha must be finite and nonnegative, got {self.alpha!r}")
        if self.catalog_mode not in (None, *MODES):
            raise ModelError(f"catalog mode {self.catalog_mode!r} is not one of {MODES} or null")
        for label, counts, size in (("benign", self.pos_benign, self.n_benign),
                                    ("suspicious", self.pos_suspicious, self.n_suspicious)):
            bad = [n for n, c in zip(self.feature_names, counts) if not 0 <= c <= size]
            if bad:
                raise ModelError(
                    f"{label} positive count of {bad[0]!r} is outside [0, {size}] (class size)")

    @property
    def priors(self) -> tuple[float, float]:
        """(P(benign), P(suspicious))."""
        n = self.n_benign + self.n_suspicious
        return self.n_benign / n, self.n_suspicious / n

    def theta(self, label: ClassLabel) -> tuple[float, ...]:
        """P(bit=1 | class) per feature, with additive smoothing."""
        counts, total = ((self.pos_benign, self.n_benign) if label is ClassLabel.BENIGN
                         else (self.pos_suspicious, self.n_suspicious))
        return tuple((c + self.alpha) / (total + 2.0 * self.alpha) for c in counts)


@dataclass(frozen=True)
class Prediction:
    sample_id: str
    posterior: float            # P(suspicious | row)
    decision: ClassLabel
    score: float                # log2 posterior odds of suspicious vs benign


def train(
    tables: list[ContingencyTable],
    names: tuple[str, ...],
    alpha: float = 1.0,
    catalog_mode: str | None = None,
) -> TrainedModel:
    """Fit priors and per-feature conditionals from ``build_contingency``'s tables."""
    by_name = {t.feature: t for t in tables}
    missing = [n for n in names if n not in by_name]
    if missing:
        raise ModelError(f"selected features have no contingency table: {', '.join(missing)}")
    chosen = [by_name[n] for n in names]
    n_sus, n_ben = (tables[0].n_sus, tables[0].n_ben) if tables else (0, 0)
    return TrainedModel(
        feature_names=tuple(names),
        n_benign=n_ben,
        n_suspicious=n_sus,
        pos_benign=tuple(t.n_pos_ben for t in chosen),
        pos_suspicious=tuple(t.n_pos_sus for t in chosen),
        alpha=alpha,
        catalog_mode=catalog_mode,
    )


def _log(p: float) -> float:
    return math.log(p) if p > 0 else -math.inf


def feature_columns(model_names: tuple[str, ...], names: tuple[str, ...]) -> list[int]:
    """Index in ``names`` of every model feature, in model order."""
    if missing := [n for n in model_names if n not in names]:
        raise ModelError(f"input is missing model feature(s): {', '.join(missing)}")
    return [names.index(n) for n in model_names]


def _scores(model: TrainedModel, matrix: FeatureMatrix) -> tuple[np.ndarray, np.ndarray]:
    """(posteriors, scores) of every row of a matrix, by this rule:

    A class's log joint starts with log(prior) and adds, for each model
    feature in model order, log(theta) if the bit is set or log(1 - theta)
    if it is clear, strictly left to right; a zero probability is -inf and
    stays -inf. With d = joint_sus - joint_ben and e = exp(-|d|), the
    posterior P(suspicious) is 1/(1+e) if d >= 0, else e/(1+e), and the
    score (log2 odds, still graded where the posterior rounds to 0 or 1)
    is d / ln 2. A row that both classes rule out gets 0.5 and 0. log and
    exp are libm's; each joint is a running sum, one feature's term at a time.
    """
    cols = feature_columns(model.feature_names, matrix.feature_names)
    thetas = [model.theta(label) for label in (ClassLabel.BENIGN, ClassLabel.SUSPICIOUS)]
    # (feature, class, 1): per feature, a column of its two class terms to broadcast over rows
    log_on = np.array([list(map(_log, theta)) for theta in thetas]).T[:, :, None]
    log_off = np.array([[_log(1.0 - t) for t in theta] for theta in thetas]).T[:, :, None]
    joints = np.repeat([[_log(p)] for p in model.priors], len(matrix), axis=1)  # (class, row)
    for feature_bits, on, off in zip(matrix.bits[:, cols].T, log_on, log_off):
        joints += np.where(feature_bits, on, off)
    with np.errstate(invalid="ignore"):
        d = joints[1] - joints[0]  # NaN where both classes are ruled out
    e = np.fromiter(map(math.exp, (-np.abs(d)).tolist()), np.float64, len(d))
    ruled_out = np.isnan(d)
    posteriors = np.where(ruled_out, 0.5, np.where(d >= 0, 1.0, e) / (1.0 + e))
    return posteriors, np.where(ruled_out, 0.0, d / math.log(2))


def posterior_matrix(model: TrainedModel, matrix: FeatureMatrix) -> np.ndarray:
    """P(suspicious | row) for every row of a matrix."""
    return _scores(model, matrix)[0]


def classify(
    model: TrainedModel, matrix: FeatureMatrix, threshold: float = 0.5
) -> list[Prediction]:
    """Predictions for every row: suspicious iff the posterior reaches
    ``threshold`` (ties suspicious), with the rule's log2-odds score."""
    posteriors, scores = _scores(model, matrix)
    return [
        Prediction(sample_id, p, ClassLabel.SUSPICIOUS if p >= threshold else ClassLabel.BENIGN, s)
        for sample_id, p, s in zip(matrix.ids, posteriors.tolist(), scores.tolist())
    ]


def save_model(model: TrainedModel, path: Path | str) -> None:
    """Write the model as schema-versioned JSON of integers (alpha as text)."""
    payload = {
        "schema_version": MODEL_SCHEMA_VERSION,
        "catalog_mode": model.catalog_mode,
        "alpha": repr(model.alpha),
        "class_counts": {"benign": model.n_benign, "suspicious": model.n_suspicious},
        "features": [
            {"name": n, "count_pos_sus": ps, "count_pos_ben": pb}
            for n, ps, pb in zip(model.feature_names, model.pos_suspicious, model.pos_benign)
        ],
    }
    files.write_text(path, json.dumps(payload, indent=2) + "\n", ModelError)


def _count(value) -> int:
    # JSON true is a bool, 3.7 a float, "3" a str; scoring needs a float to hold the count
    if type(value) is not int or value > 2**53:
        raise ValueError(f"count {value!r} is not an integer up to 2**53")
    return value


def load_model(path: Path | str) -> TrainedModel:
    try:
        payload = json.loads(files.read_text(path, "model file", ModelError))
    except (ValueError, RecursionError) as exc:  # also an over-long integer, or deep nesting
        raise ModelError(f"model file {path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict) or "schema_version" not in payload:
        raise ModelError(f"model file {path} has no schema_version")
    if payload["schema_version"] != MODEL_SCHEMA_VERSION:
        raise ModelError(
            f"model file {path} has schema_version {payload['schema_version']}, "
            f"this build reads version {MODEL_SCHEMA_VERSION}"
        )
    try:
        features, alpha = payload["features"], payload["alpha"]
        if type(alpha) not in (str, int, float):  # JSON true is a bool, and float(True) is 1.0
            raise TypeError(f"alpha {alpha!r} is neither a number nor its text")
        return TrainedModel(
            feature_names=tuple(f["name"] for f in features),
            n_benign=_count(payload["class_counts"]["benign"]),
            n_suspicious=_count(payload["class_counts"]["suspicious"]),
            pos_benign=tuple(_count(f["count_pos_ben"]) for f in features),
            pos_suspicious=tuple(_count(f["count_pos_sus"]) for f in features),
            alpha=float(alpha),
            catalog_mode=payload.get("catalog_mode"),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ModelError(f"model file {path} is malformed: {exc}") from exc
