"""Bernoulli naive Bayes over selected binary features.

Training reads the contingency tables ranking already took: class priors
from the class sizes and, for every selected feature, the probability of
seeing the bit set in each class with additive smoothing:
theta = (positives + alpha) / (class size + 2*alpha). Scoring has one
vectorized implementation over a whole matrix: the log joints of the two
classes (the likelihood product underflows past a few dozen features
otherwise), normalized back to a probability. A sample is called
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
        if self.n_benign < 1 or self.n_suspicious < 1:
            raise ModelError("training requires at least one sample of each class")
        if not (len(self.feature_names) == len(self.pos_benign) == len(self.pos_suspicious)):
            raise ModelError("per-feature count arrays must match the feature list")
        if self.alpha < 0:
            raise ModelError("smoothing alpha must be nonnegative")
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

    def theta(self, label: ClassLabel) -> np.ndarray:
        """P(bit=1 | class) per feature, with additive smoothing."""
        counts, total = {
            ClassLabel.BENIGN: (self.pos_benign, self.n_benign),
            ClassLabel.SUSPICIOUS: (self.pos_suspicious, self.n_suspicious),
        }[label]
        return (np.array(counts, dtype=np.float64) + self.alpha) / (total + 2.0 * self.alpha)


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


def _log_joints(model: TrainedModel, matrix: FeatureMatrix) -> np.ndarray:
    """Unnormalized log joints per row: column 0 benign, column 1 suspicious.

    A bit its class gives probability zero (only possible with alpha=0)
    makes the row impossible for that class: the cell is masked out of the
    matmul, since 0 * log(0) would be NaN, and the row's joint set to -inf.
    """
    try:
        cols = [matrix.feature_names.index(n) for n in model.feature_names]
    except ValueError:
        missing = [n for n in model.feature_names if n not in matrix.feature_names]
        raise ModelError(f"input is missing model feature(s): {', '.join(missing)}") from None
    bits = matrix.bits[:, cols].astype(np.float64)
    off = 1.0 - bits
    out = np.empty((len(matrix), 2), dtype=np.float64)
    with np.errstate(divide="ignore"):
        for k, (prior, label) in enumerate(
            zip(model.priors, (ClassLabel.BENIGN, ClassLabel.SUSPICIOUS))
        ):
            theta = model.theta(label)
            log_on, log_off = np.log(theta), np.log(1.0 - theta)
            dead_on, dead_off = np.isneginf(log_on), np.isneginf(log_off)
            log_on[dead_on] = 0.0
            log_off[dead_off] = 0.0
            out[:, k] = np.log(prior) + bits @ log_on + off @ log_off
            out[bits @ dead_on + off @ dead_off > 0, k] = -np.inf
    return out


def _posteriors(joints: np.ndarray) -> np.ndarray:
    """Normalize log joints to P(suspicious); 0.5 where both classes are impossible."""
    m = joints.max(axis=1, keepdims=True)
    m[~np.isfinite(m)] = 0.0
    expd = np.exp(joints - m)
    denom = expd.sum(axis=1)
    return np.where(denom > 0, expd[:, 1] / np.where(denom > 0, denom, 1.0), 0.5)


def posterior_matrix(model: TrainedModel, matrix: FeatureMatrix) -> np.ndarray:
    """P(suspicious | row) for every row of a matrix."""
    return _posteriors(_log_joints(model, matrix))


def classify(
    model: TrainedModel, matrix: FeatureMatrix, threshold: float = 0.5
) -> list[Prediction]:
    """Predictions for every row: suspicious iff the posterior reaches
    ``threshold`` (ties suspicious); the score is the log2 odds taken
    straight from the log joints, so it stays finite when the posterior
    rounds to 0 or 1."""
    joints = _log_joints(model, matrix)
    with np.errstate(invalid="ignore"):
        scores = (joints[:, 1] - joints[:, 0]) / math.log(2)
    scores[np.isnan(scores)] = 0.0  # both classes impossible: no evidence either way
    return [
        Prediction(sample_id, p, ClassLabel.SUSPICIOUS if p >= threshold else ClassLabel.BENIGN, s)
        for sample_id, p, s in zip(matrix.ids, _posteriors(joints).tolist(), scores.tolist())
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
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def load_model(path: Path | str) -> TrainedModel:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ModelError(f"cannot read model file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ModelError(f"model file {path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict) or "schema_version" not in payload:
        raise ModelError(f"model file {path} has no schema_version")
    if payload["schema_version"] != MODEL_SCHEMA_VERSION:
        raise ModelError(
            f"model file {path} has schema_version {payload['schema_version']}, "
            f"this build reads version {MODEL_SCHEMA_VERSION}"
        )
    try:
        features = payload["features"]
        return TrainedModel(
            feature_names=tuple(f["name"] for f in features),
            n_benign=int(payload["class_counts"]["benign"]),
            n_suspicious=int(payload["class_counts"]["suspicious"]),
            pos_benign=tuple(int(f["count_pos_ben"]) for f in features),
            pos_suspicious=tuple(int(f["count_pos_sus"]) for f in features),
            alpha=float(payload["alpha"]),
            catalog_mode=payload.get("catalog_mode"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelError(f"model file {path} is malformed: {exc}") from exc
