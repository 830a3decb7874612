"""Output checks against references the benchmark computes itself.

Every check returns a list of problems; an empty list means the output is
correct. Nothing here calls into apksift's scoring, ranking or report
code: the references are the shaped corpus's planted counts, a plug-in
mutual-information formula and a linear-space naive-Bayes oracle.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path

# The CLI prints posteriors and scores with 6 decimals; agreement is checked
# to half a unit in that place plus the 1e-9 the oracle may differ by.
_PRINTED_TOL = 0.5e-6 + 1e-9


def digest(path: Path) -> str:
    """sha256 over a file's bytes, or over every file's name and bytes in a tree."""
    h = hashlib.sha256()
    files = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
    for f in files:
        h.update(f.relative_to(path).as_posix().encode() if path.is_dir() else b"")
        h.update(f.read_bytes())
    return h.hexdigest()


def read_matrix_csv(path: Path) -> tuple[list[str], list[str], list[str], list[list[int]]]:
    """(feature names, ids, labels, bit rows) of a matrix CSV."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    names = rows[0][2:]
    body = [r for r in rows[1:] if r]
    return names, [r[0] for r in body], [r[1] for r in body], [[int(v) for v in r[2:]] for r in body]


def mutual_information(pos_ben: int, pos_sus: int, n_ben: int, n_sus: int) -> float:
    """Plug-in MI (bits) between a binary feature and the two-valued class."""
    n = n_ben + n_sus
    score = 0.0
    for present in (True, False):
        row = pos_ben + pos_sus if present else n - pos_ben - pos_sus
        for cls_size, cell in ((n_ben, pos_ben if present else n_ben - pos_ben),
                               (n_sus, pos_sus if present else n_sus - pos_sus)):
            if cell:
                score += cell / n * math.log2(cell * n / (row * cls_size))
    return max(score, 0.0)


class Reference:
    """What every output of one built corpus must say."""

    def __init__(self, counts: dict, n_benign: int, n_suspicious: int, warnings: int):
        self.counts = counts
        self.n_benign = n_benign
        self.n_suspicious = n_suspicious
        self.n = n_benign + n_suspicious
        self.warnings = warnings

    def _count_problems(self, name: str, benign: int, suspicious: int) -> list[str]:
        want = self.counts.get(name)
        if want != (benign, suspicious):
            return [f"feature {name!r}: counts ({benign}, {suspicious}), expected {want}"]
        return []

    def check_matrix(self, path: Path, n_features: int) -> list[str]:
        names, ids, labels, bits = read_matrix_csv(path)
        problems = []
        if len(names) != n_features:
            problems.append(f"matrix has {len(names)} features, catalog has {n_features}")
        if len(ids) != self.n:
            problems.append(f"matrix has {len(ids)} rows, expected {self.n}")
        is_ben = [lab == "benign" for lab in labels]
        is_sus = [lab == "suspicious" for lab in labels]
        for name, column in zip(names, zip(*bits)):
            ben = sum(v for v, keep in zip(column, is_ben) if keep)
            sus = sum(v for v, keep in zip(column, is_sus) if keep)
            problems += self._count_problems(name, ben, sus)
        return problems

    def check_warnings(self, stderr: str) -> list[str]:
        got = sum(1 for line in stderr.splitlines() if line.startswith("warning:"))
        return [] if got == self.warnings else [f"{got} warnings, expected {self.warnings}"]

    def reference_score(self, name: str) -> float:
        ben, sus = self.counts[name]
        return mutual_information(ben, sus, self.n_benign, self.n_suspicious)

    def check_ranking(self, path: Path, n_features: int) -> tuple[list[str], list[str]]:
        """Problems, plus the ranked names (for checking the trained selection)."""
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        problems = [] if len(rows) == n_features else [
            f"ranking has {len(rows)} rows, expected {n_features}"]
        names = [r["feature"] for r in rows]
        for r in rows:
            ben, sus = int(r["benign_count"]), int(r["malware_count"])
            problems += self._count_problems(r["feature"], ben, sus)
            if int(r["total"]) != ben + sus:
                problems.append(f"feature {r['feature']!r}: total is not benign + malware")
            if abs(float(r["infogain"]) - self.reference_score(r["feature"])) > 0.5e-5 + 1e-12:
                problems.append(f"feature {r['feature']!r}: infogain {r['infogain']} off reference")
        for a, b in zip(names, names[1:]):
            sa, sb = self.reference_score(a), self.reference_score(b)
            if sa < sb - 1e-12 or (abs(sa - sb) <= 1e-12 and a > b):
                problems.append(f"ranking order: {a!r} before {b!r}")
        return problems, names

    def check_model(self, model, ranked: list[str], top: int = 15) -> list[str]:
        problems = []
        if list(model.feature_names) != ranked[:top]:
            problems.append("model features are not the top of the ranking")
        if (model.n_benign, model.n_suspicious) != (self.n_benign, self.n_suspicious):
            problems.append("model class counts differ from the corpus")
        for name, ben, sus in zip(model.feature_names, model.pos_benign, model.pos_suspicious):
            problems += self._count_problems(name, ben, sus)
        return problems

    def check_predictions(self, path: Path, model, matrix_csv: Path) -> list[str]:
        """Posteriors and scores against a linear-space naive-Bayes oracle."""
        names, ids, _, bits = read_matrix_csv(matrix_csv)
        cols = [names.index(n) for n in model.feature_names]
        a = model.alpha
        theta_b = [(c + a) / (model.n_benign + 2 * a) for c in model.pos_benign]
        theta_s = [(c + a) / (model.n_suspicious + 2 * a) for c in model.pos_suspicious]
        n = model.n_benign + model.n_suspicious
        by_id = dict(zip(ids, bits))
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        problems = [] if [r["app_id"] for r in rows] == ids else ["prediction ids differ from corpus"]
        for r in rows:
            row = by_id.get(r["app_id"])
            if row is None:
                continue
            joint_b, joint_s = model.n_benign / n, model.n_suspicious / n
            for c, tb, ts in zip(cols, theta_b, theta_s):
                joint_b *= tb if row[c] else 1.0 - tb
                joint_s *= ts if row[c] else 1.0 - ts
            post = joint_s / (joint_b + joint_s)
            if abs(float(r["posterior"]) - post) > _PRINTED_TOL:
                problems.append(f"{r['app_id']}: posterior {r['posterior']} vs oracle {post!r}")
            # The CLI derives its score from the posterior p as log2(p / (1 - p)),
            # so at high confidence it inherits the rounding of 1 - p: allow that
            # (four units in the last place of p, scaled by d score / d p).
            score = math.log2(joint_s / joint_b)
            slack = 4 * 2.0 ** -52 * (2.0 ** min(abs(score), 1000) + 1) / math.log(2)
            if abs(float(r["score"]) - score) > _PRINTED_TOL + slack:
                problems.append(f"{r['app_id']}: score {r['score']} vs oracle {score!r}")
            if abs(post - 0.5) > 1e-9 and (r["decision"] == "suspicious") != (post >= 0.5):
                problems.append(f"{r['app_id']}: decision {r['decision']} vs oracle {post!r}")
        return problems[:20]

    def check_report_dir(self, out: Path, folds: int) -> list[str]:
        problems = [f"missing {name}" for name in ("report.json", "metrics.csv", "roc.csv", "roc.svg")
                    if not (out / name).is_file()]
        if problems:
            return problems
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        sizes = [f["test_size"] for f in report["folds"]]
        if len(sizes) != folds or sum(sizes) != self.n:
            problems.append(f"fold sizes {sizes} do not sum to {self.n}")
        for f in report["folds"]:
            if sum(f["counts"].values()) != f["test_size"]:
                problems.append(f"fold {f['fold']}: counts do not sum to its size")
        for m in [f["metrics"] for f in report["folds"]] + [report["averaged"]]:
            for x, y in (("acc", "err"), ("tpr", "fnr"), ("tnr", "fpr")):
                if abs(m[x] + m[y] - 1.0) > 1e-12:
                    problems.append(f"{x} + {y} = {m[x] + m[y]!r}")
        if not 0.0 <= report["roc"]["auc"] <= 1.0:
            problems.append(f"auc {report['roc']['auc']} outside [0, 1]")
        return problems

    def check_cv_report(self, report, folds: int, n_selected: int) -> tuple[list[str], str]:
        """Problems, plus a digest of the report's outcome for repeat checks."""
        problems = []
        test_ids = [i for f in report.folds for i in f.test_ids]
        if len(report.folds) != folds or len(test_ids) != self.n or len(set(test_ids)) != self.n:
            problems.append("folds do not partition the samples")
        for f in report.folds:
            if f.counts.total != len(f.test_ids):
                problems.append(f"fold {f.fold}: counts do not sum to its size")
            if len(f.selected_features) != n_selected:
                problems.append(f"fold {f.fold}: {len(f.selected_features)} features selected")
        for m in [f.metrics for f in report.folds] + [report.averaged]:
            if Fraction(m.acc) + Fraction(m.err) != 1:
                problems.append("acc + err != 1")
        outcome = repr([(f.counts, f.selected_features) for f in report.folds]) + repr(report.roc.auc)
        return problems, hashlib.sha256(outcome.encode()).hexdigest()
