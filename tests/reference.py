"""A deliberately naive reference extractor: the oracle for the fast path.

It answers the question ``detectors.extract_features`` answers (which
catalog features does one sample set?) the slow, obvious way, and it
imports nothing from extraction; it reads only the catalog's data:

* each real ``smali``/``smali_classes<N>``/``assets``/``lib``/``res``
  directory (N >= 2, no leading zero) is walked with
  ``os.walk(followlinks=False)``; anything whose ``lstat`` is not a
  regular file is skipped, and so is a file over the read cap;
* a native library is searched as raw bytes, every part anywhere; any
  other file is decoded with ``errors="replace"`` and every part must be
  on one ``str.splitlines`` line;
* a payload extension is a suffix of a listed file's path;
* the manifest is parsed with ElementTree, falling back to a regex over
  ``android:name`` attributes when the XML is malformed, with a warning
  that carries ElementTree's error text.

It also holds ``nb_scores``, the naive-Bayes scoring rule of the
``classifier`` docstring written out one row and one term at a time with
``math``; it reads a model's counts and imports nothing from the classifier.

``naive_cross_validate`` is the oracle for ``evaluation.cross_validate``:
per fold it copies the training rows and counts them with
``build_contingency``, ranks by one ``mutual_information`` call per
feature, and scores the test rows with ``nb_scores``; its ROC tests every
distinct score as a threshold over all rows. It uses the fold assignment,
confusion tally and metrics of ``evaluation``, never its fold loop.
"""

import math
import os
import re
import stat
import xml.etree.ElementTree as ET

SCOPE_OF_TOP = {"smali": "code", "assets": "assets", "res": "resources", "lib": "native-lib"}
ANDROID_NAME = "{http://schemas.android.com/apk/res/android}name"
NAME_ATTR_RE = re.compile(r'android:name\s*=\s*"([^"]*)"')


def _regular(path: str) -> os.stat_result | None:
    try:
        info = os.lstat(path)
    except OSError:
        return None
    return info if stat.S_ISREG(info.st_mode) else None


def _read(path: str, cap: int) -> bytes | None:
    info = _regular(path)
    if info is None or info.st_size > cap:
        return None
    with open(path, "rb") as fh:
        return fh.read()


def declared_names(text: str) -> tuple[set[str], list[str]]:
    """(declared permission names, warnings) of one decoded manifest."""
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        return (set(NAME_ATTR_RE.findall(text)),
                [f"malformed manifest XML ({exc}); fell back to attribute scan"])
    names = {e.get(ANDROID_NAME) or e.get("android:name") for e in root.iter()
             if e.tag.rsplit("}", 1)[-1] in ("uses-permission", "uses-permission-sdk-23")}
    return names - {None, ""}, []


def _top_scope(name: str) -> str | None:
    """Scope of a top-level directory name; smali_classes2, smali_classes3, ... are code."""
    if name in SCOPE_OF_TOP:
        return SCOPE_OF_TOP[name]
    number = name[len("smali_classes"):]
    if name.startswith("smali_classes") and number.isascii() and number.isdigit():
        if number[0] != "0" and int(number) >= 2:
            return "code"
    return None


def listed_files(app: str) -> list[tuple[str, str, str]]:
    """(relative path, scope, full path) of each regular file in the real scope directories."""
    found = []
    tops = [(top, _top_scope(top)) for top in os.listdir(app)] if os.path.isdir(app) else []
    for top, scope in tops:
        if scope is None:
            continue
        base = os.path.join(app, top)
        if os.path.islink(base) or not os.path.isdir(base):
            continue
        for dirpath, _, names in os.walk(base, followlinks=False):
            for name in names:
                path = os.path.join(dirpath, name)
                if _regular(path) is not None:
                    found.append((os.path.relpath(path, app), scope, path))
    return found


def _content_hit(pattern: tuple[str, ...], scope: str, data: bytes) -> bool:
    if scope == "native-lib":
        return all(p.encode("utf-8") in data for p in pattern)
    lines = data.decode("utf-8", errors="replace").splitlines()
    return any(all(p in line for p in pattern) for line in lines)


def reference_bits(app: str, catalog, cap: int) -> list[int]:
    """The sample's bit per catalog feature, in catalog order."""
    manifest = _read(os.path.join(app, "AndroidManifest.xml"), cap)
    names = (declared_names(manifest.decode("utf-8", errors="replace"))[0]
             if manifest is not None else set())
    listed = listed_files(app)
    contents = [(scope, _read(path, cap)) for _, scope, path in listed]
    bits = []
    for d in catalog.defs:
        scopes = {s.value for s in d.scopes}
        if d.kind == "permission":
            hit = f"android.permission.{d.pattern[0]}" in names
        elif d.kind == "payload-extension":
            hit = any(scope in scopes and rel.endswith(d.pattern[0]) for rel, scope, _ in listed)
        else:
            hit = any(scope in scopes and data is not None and _content_hit(d.pattern, scope, data)
                      for scope, data in contents)
        bits.append(int(hit))
    return bits


def _log(p: float) -> float:
    return math.log(p) if p > 0 else -math.inf


def nb_scores(model, rows) -> list[tuple[float, float]]:
    """(posterior, score) per row of 0/1 bits in model feature order."""
    n = model.n_benign + model.n_suspicious
    classes = [(model.n_benign / n, model.pos_benign, model.n_benign),
               (model.n_suspicious / n, model.pos_suspicious, model.n_suspicious)]
    out = []
    for row in rows:
        joints = []
        for prior, counts, size in classes:
            joint = _log(prior)
            for bit, count in zip(row, counts):
                theta = (count + model.alpha) / (size + 2.0 * model.alpha)
                joint += _log(theta) if bit else _log(1.0 - theta)
            joints.append(joint)
        d = joints[1] - joints[0]
        if math.isnan(d):
            out.append((0.5, 0.0))
            continue
        e = math.exp(-abs(d))
        out.append((1.0 / (1.0 + e) if d >= 0 else e / (1.0 + e), d / math.log(2)))
    return out


def _roc(scores, truths):
    """(points, auc) of the pooled threshold sweep: each distinct score, high to low,
    calls suspicious every row scoring at least that much."""
    n_sus = sum(t == "suspicious" for t in truths)
    n_ben = len(truths) - n_sus
    points = [(math.inf, 0.0, 0.0)]
    for value in sorted(set(scores), reverse=True):
        called = [t for s, t in zip(scores, truths) if s >= value]
        points.append((value, called.count("benign") / n_ben, called.count("suspicious") / n_sus))
    points.append((-math.inf, 1.0, 1.0))
    auc = 0.0
    for (_, x0, y0), (_, x1, y1) in zip(points, points[1:]):
        auc += (x1 - x0) * (y0 + y1) / 2.0
    return tuple(points), auc


def naive_cross_validate(matrix, preset=None, top_n=None, alpha=1.0, k=5, seed=0):
    """An ``EvalReport`` (with an empty config) of k-fold cross-validation,
    counting each fold's training rows from scratch."""
    from dataclasses import replace
    from fractions import Fraction

    from apksift.classifier import train
    from apksift.corpus import ClassLabel
    from apksift.evaluation import (EvalReport, FoldResult, MetricSet, RocCurve, confusion,
                                    metrics, stratified_kfold)
    from apksift.ranking import RankedFeature, build_contingency, mutual_information, select_top

    def rows(picked):
        return replace(matrix, ids=tuple(matrix.ids[r] for r in picked),
                       labels=tuple(matrix.labels[r] for r in picked),
                       rows=tuple(matrix.rows[r] for r in picked))

    folds = stratified_kfold(list(matrix.ids), dict(zip(matrix.ids, matrix.labels)), k, seed)
    results, scores, truths = [], [], []
    for index, test_ids in enumerate(folds):
        test_rows = [matrix.ids.index(i) for i in test_ids]
        tables = build_contingency(rows([r for r in range(len(matrix)) if r not in test_rows]))
        ranked = sorted((RankedFeature(t.feature, mutual_information(t), t.n_pos_ben, t.n_pos_sus)
                         for t in tables), key=lambda r: (-r.score, r.name))
        selection = select_top(ranked, preset=preset, n=top_n)
        model = train(tables, selection.names, alpha=alpha, catalog_mode=matrix.mode)
        cols = [matrix.feature_names.index(n) for n in model.feature_names]
        posteriors = [p for p, _ in nb_scores(model, [[matrix.rows[r][c] for c in cols]
                                                       for r in test_rows])]
        labels = [matrix.labels[r] for r in test_rows]
        counts = confusion(labels, [ClassLabel.SUSPICIOUS if p >= 0.5 else ClassLabel.BENIGN
                                    for p in posteriors])
        results.append(FoldResult(index, test_ids, counts, metrics(counts), list(selection.names)))
        scores += posteriors
        truths += [lab.value for lab in labels]
    each = [f.metrics for f in results]
    defined = [m.precision for m in each if m.precision is not None]
    averaged = MetricSet(*(sum((getattr(m, name) for m in each), Fraction(0)) / k
                           for name in ("acc", "err", "fpr", "fnr", "tpr", "tnr")),
                         precision=sum(defined) / len(defined) if defined else None)
    return EvalReport({}, results, averaged, k - len(defined), RocCurve(*_roc(scores, truths)))
