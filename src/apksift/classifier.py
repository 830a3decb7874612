"""Bernoulli naive Bayes over selected binary features.

Training reads the contingency tables ranking already took: class priors
from the class sizes and, for every selected feature, the probability of
seeing the bit set in each class with additive smoothing:
theta = (positives + alpha) / (class size + 2*alpha). Scoring follows one
written rule over a whole matrix (``_scores``): log joints (the likelihood
product underflows otherwise) summed left to right in Python floats with
libm's log and exp, so no posterior bit depends on the CPU or on a vector
library; rows with the same selected bits are scored once. A sample is
called suspicious when its posterior reaches the decision threshold;
exact ties go to suspicious, the costlier class to miss.

Models persist as JSON holding only integer counts plus the smoothing
value, so a save/load round trip reproduces posteriors bit-for-bit.
"""

from __future__ import annotations

import json
import math
from array import array
from dataclasses import dataclass
from operator import getitem, itemgetter
from pathlib import Path

from . import files
from .catalog import MODES
from .corpus import BENIGN, SUSPICIOUS, ClassLabel
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


_LN2 = math.log(2)


def _scores(model: TrainedModel, matrix: FeatureMatrix, with_score: bool) -> list:
    """The posterior, or (posterior, score) if ``with_score``, of every row of
    a matrix, by this rule:

    A class's log joint starts with log(prior) and adds, for each model
    feature in model order, log(theta) if the bit is set or log(1 - theta)
    if it is clear, strictly left to right; a zero probability is -inf and
    stays -inf. With d = joint_sus - joint_ben and e = exp(-|d|), the
    posterior P(suspicious) is 1/(1+e) if d >= 0, else e/(1+e), and the
    score (log2 odds, still graded where the posterior rounds to 0 or 1)
    is d / ln 2. A row that both classes rule out gets 0.5 and 0. log and
    exp are libm's; each joint is a running sum of Python floats (IEEE
    doubles), one feature's term at a time. Rows with the same model-feature
    bits are scored once.
    """
    cols = feature_columns(model.feature_names, matrix.feature_names)
    thetas = zip(model.theta(ClassLabel.BENIGN), model.theta(ClassLabel.SUSPICIOUS))
    # per feature, indexed by its bit: the (benign, suspicious) pair of terms
    terms = [((_log(1.0 - ben), _log(1.0 - sus)), (_log(ben), _log(sus))) for ben, sus in thetas]
    prior_ben, prior_sus = map(_log, model.priors)
    # itemgetter of one index returns the item, not a 1-tuple, and of none raises
    key = itemgetter(*cols) if len(cols) > 1 else lambda row: tuple(row[c] for c in cols)
    keys = list(map(key, matrix.rows))
    memo = dict.fromkeys(keys)
    for bits in memo:
        ben, sus = prior_ben, prior_sus
        for b, s in map(getitem, terms, bits):
            ben += b
            sus += s
        d = sus - ben  # NaN where both classes rule the row out
        e = math.exp(-abs(d))
        p = 0.5 if d != d else (1.0 if d >= 0 else e) / (1.0 + e)
        memo[bits] = (p, 0.0 if d != d else d / _LN2) if with_score else p
    return list(map(memo.__getitem__, keys))


def posterior_matrix(model: TrainedModel, matrix: FeatureMatrix) -> array:
    """P(suspicious | row) for every row of a matrix, as an array of doubles."""
    return array("d", _scores(model, matrix, with_score=False))


def classify(
    model: TrainedModel, matrix: FeatureMatrix, threshold: float = 0.5
) -> list[Prediction]:
    """Predictions for every row: suspicious iff the posterior reaches
    ``threshold`` (ties suspicious), with the rule's log2-odds score."""
    return [
        Prediction(sample_id, p, SUSPICIOUS if p >= threshold else BENIGN, s)
        for sample_id, (p, s) in zip(matrix.ids, _scores(model, matrix, with_score=True))
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
