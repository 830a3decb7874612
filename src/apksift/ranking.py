"""Contingency counts, mutual-information scoring, descending rank, and top-n selection.

Counts are exact integers: a matrix's rows, each read as one integer,
are summed 255 at a time and each sum is split back into its byte-wide
columns (``class_counts``).

Each feature's score is the plug-in mutual information (in bits, log
base 2) between its binary indicator and the class variable, estimated
from raw contingency counts with no smoothing; empty cells contribute
zero via the 0*log(0) convention. Features are ranked by descending
score, ties broken by ascending feature name so selections are
reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import add
from pathlib import Path

from . import files
from .corpus import SUSPICIOUS
from .detectors import FeatureMatrix
from .errors import RankingError

#: Fixed selection presets: top 5, ranks 16-20, and top 10/15/20.
PRESETS = {
    "5fT": (0, 5),
    "5fL": (15, 20),
    "10f": (0, 10),
    "15f": (0, 15),
    "20f": (0, 20),
}


@dataclass(frozen=True)
class ContingencyTable:
    """Per-feature class counts: how often the bit is set in each class."""

    feature: str
    n_pos_sus: int
    n_pos_ben: int
    n_sus: int
    n_ben: int

    def __post_init__(self):
        for label, count, total in (
            ("suspicious", self.n_pos_sus, self.n_sus),
            ("benign", self.n_pos_ben, self.n_ben),
        ):
            if not 0 <= count <= total:
                raise RankingError(
                    f"feature {self.feature!r}: {label} count {count} outside [0, {total}]"
                )

    @property
    def n_neg_sus(self) -> int:
        return self.n_sus - self.n_pos_sus

    @property
    def n_neg_ben(self) -> int:
        return self.n_ben - self.n_pos_ben


@dataclass(frozen=True)
class RankedFeature:
    name: str
    score: float
    benign_count: int
    malware_count: int

    @property
    def total(self) -> int:
        return self.benign_count + self.malware_count


@dataclass(frozen=True)
class FeatureSelection:
    names: tuple[str, ...]
    tag: str


def class_counts(matrix: FeatureMatrix) -> list[tuple[int, list[int]]]:
    """(rows, per-feature positives) of the suspicious rows, then of the benign
    rows. Rows are summed as integers (``row_ints``) 255 at a time, so no
    byte-wide column sum carries into the next, and each sum is split back
    into its columns with ``to_bytes``: exact integer counts."""
    width, pairs = len(matrix.feature_names), list(zip(matrix.row_ints, matrix.labels))
    counts = []
    for group in ([v for v, lab in pairs if lab is SUSPICIOUS],
                  [v for v, lab in pairs if lab is not SUSPICIOUS]):
        columns = [0] * width
        for start in range(0, len(group), 255):
            columns = list(map(add, columns, sum(group[start:start + 255]).to_bytes(width, "big")))
        counts.append((len(group), columns))
    return counts


def build_contingency(matrix: FeatureMatrix) -> list[ContingencyTable]:
    """Count per-feature positives in each class over a fully labeled matrix."""
    unlabeled = [matrix.ids[i] for i, lab in enumerate(matrix.labels) if lab is None]
    if unlabeled:
        raise RankingError(f"matrix contains unlabeled rows: {', '.join(unlabeled[:5])}")
    (n_sus, pos_sus), (n_ben, pos_ben) = class_counts(matrix)
    if n_sus == 0 or n_ben == 0:
        raise RankingError("both classes must be present to build contingency tables")
    return [ContingencyTable(name, s, b, n_sus, n_ben)
            for name, s, b in zip(matrix.feature_names, pos_sus, pos_ben)]


def mutual_information(table: ContingencyTable) -> float:
    """Plug-in mutual information of one feature with the class, in bits.

    Joint probabilities are cell/(N_sus + N_ben) and class priors are the
    class shares; for equal class sizes the score lies in [0, 1].
    """
    if table.n_sus < 1 or table.n_ben < 1:
        raise RankingError("mutual information needs at least one sample per class")
    n = table.n_sus + table.n_ben
    p_pos = (table.n_pos_sus + table.n_pos_ben) / n
    p_neg = (table.n_neg_sus + table.n_neg_ben) / n
    p_sus, p_ben = table.n_sus / n, table.n_ben / n
    score = 0.0
    for count, p_r, p_c in (
        (table.n_pos_sus, p_pos, p_sus),
        (table.n_pos_ben, p_pos, p_ben),
        (table.n_neg_sus, p_neg, p_sus),
        (table.n_neg_ben, p_neg, p_ben),
    ):
        if count == 0:
            continue  # 0 * log(0 / x) = 0 by convention
        p_joint = count / n
        score += p_joint * math.log2(p_joint / (p_r * p_c))
    return max(score, 0.0)


def rank_features(tables: list[ContingencyTable]) -> list[RankedFeature]:
    """Descending MI order; ties broken by ascending feature name."""
    scores: dict[tuple[int, int, int, int], float] = {}  # MI reads only the four counts
    ranked = []
    for t in tables:
        key = (t.n_pos_sus, t.n_pos_ben, t.n_sus, t.n_ben)
        if key not in scores:
            scores[key] = mutual_information(t)
        ranked.append(RankedFeature(t.feature, scores[key], t.n_pos_ben, t.n_pos_sus))
    ranked.sort(key=lambda r: (-r.score, r.name))
    return ranked


def select_top(ranked: list[RankedFeature], preset: str | None = None,
               n: int | None = None) -> FeatureSelection:
    """Resolve a named preset or an explicit top-n into concrete features."""
    if (preset is None) == (n is None):
        raise RankingError("specify exactly one of preset or n")
    if preset is not None:
        if preset not in PRESETS:
            raise RankingError(f"unknown preset {preset!r} (expected one of {sorted(PRESETS)})")
        start, stop = PRESETS[preset]
        tag = preset
    else:
        if n < 1:
            raise RankingError(f"top-n selection needs n >= 1, got {n}")
        start, stop = 0, n
        tag = f"custom-{n}"
    if len(ranked) < stop:
        raise RankingError(
            f"selection {tag!r} needs {stop} ranked features, only {len(ranked)} available"
        )
    return FeatureSelection(names=tuple(r.name for r in ranked[start:stop]), tag=tag)


def write_ranking_csv(ranked: list[RankedFeature], path: Path | str) -> None:
    """Ranking report mirroring the frequency-table layout, scores to 5 dp."""
    rows = ([pos, r.name, r.benign_count, r.malware_count, r.total, f"{r.score:.5f}"]
            for pos, r in enumerate(ranked, start=1))
    files.write_csv(path, ["rank", "feature", "benign_count", "malware_count", "total", "infogain"],
                    rows, RankingError)
