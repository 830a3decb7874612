"""A deliberately naive reference extractor: the oracle for the fast path.

It answers the question ``detectors.extract_features`` answers (which
catalog features does one sample set?) the slow, obvious way, and it
imports nothing from extraction; it reads only the catalog's data:

* each real ``smali``/``assets``/``lib``/``res`` directory is walked with
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
             if e.tag.rsplit("}", 1)[-1] == "uses-permission"}
    return names - {None, ""}, []


def listed_files(app: str) -> list[tuple[str, str, str]]:
    """(relative path, scope, full path) of each regular file in the real scope directories."""
    found = []
    for top, scope in SCOPE_OF_TOP.items():
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
