import csv
import errno
import io
import os

import numpy as np
import pytest

from apksift import detectors
from apksift.catalog import load_catalog, subset_catalog
from apksift.corpus import ClassLabel, load_corpus
from apksift.detectors import (
    FeatureMatrix,
    declared_permissions,
    extract_corpus,
    extract_features,
    write_matrix_csv,
    write_stats_csv,
)

from conftest import Listing, manifest_with, write_labels, write_sample
from reference import declared_names, reference_bits


CATALOG_M = load_catalog("builtin", "M")


@pytest.fixture(scope="module")
def cat():
    return CATALOG_M


def _bit(row, name):
    """One feature's byte in a row that ``extract_features`` returned over ``cat``."""
    return row[CATALOG_M.names.index(name)]


def _extract_one(root, cat, **layout):
    """Bits of a one-sample corpus laid out by ``write_sample``."""
    write_sample(root, "a", **layout)
    row, _ = extract_features(load_corpus(root).samples[0], cat)
    return row


# --- permission matching --------------------------------------------------------

def test_detect_permission_hit(tmp_path, cat):
    row = _extract_one(tmp_path, cat, manifest=manifest_with("READ_CONTACTS"))
    assert _bit(row, "READ_CONTACTS") == 1


def test_detect_permission_comment_does_not_count(tmp_path, cat):
    manifest = (
        '<?xml version="1.0"?>\n'
        '<manifest xmlns:android="http://schemas.android.com/apk/res/android">\n'
        "  <!-- android:name=\"android.permission.READ_CONTACTS\" -->\n"
        "  <application/>\n"
        "</manifest>\n"
    )
    assert _bit(_extract_one(tmp_path, cat, manifest=manifest), "READ_CONTACTS") == 0


def test_detect_permission_exact_name(tmp_path, cat):
    manifest = (
        '<?xml version="1.0"?>\n'
        '<manifest xmlns:android="http://schemas.android.com/apk/res/android">\n'
        '  <uses-permission android:name="android.permission.READ_CONTACTS2"/>\n'
        "</manifest>\n"
    )
    assert _bit(_extract_one(tmp_path, cat, manifest=manifest), "READ_CONTACTS") == 0


def test_detect_permission_malformed_xml_fallback(tmp_path, cat):
    broken = '<manifest><uses-permission android:name="android.permission.READ_SMS">'
    write_sample(tmp_path, "a", manifest=broken)
    row, stats = extract_features(load_corpus(tmp_path).samples[0], cat)
    assert _bit(row, "READ_SMS") == 1
    assert any("malformed manifest XML" in w for w in stats.warnings)


_NS = 'xmlns:android="http://schemas.android.com/apk/res/android"'
_USES = '<uses-permission android:name="android.permission.{}"/>'


def _manifest(body, head=""):
    return f"{head}<manifest {_NS}>{body}</manifest>"


_EXTERNAL_DTD = '<!DOCTYPE manifest SYSTEM "manifest.dtd">'

ORACLE_MANIFESTS = {
    "comment": _manifest("<!-- " + _USES.format("A") + " -->" + _USES.format("B")),
    "unbound prefix": _manifest('<uses-permission x:name="android.permission.A"/>'),
    "truncated": _manifest(_USES.format("A"))[:-5],
    "junk after root": _manifest(_USES.format("A")) + "<extra/>",
    "nul byte": _manifest(_USES.format("A") + "\x00"),
    "internal entity": _manifest(
        '<uses-permission android:name="&p;"/>',
        '<!DOCTYPE manifest [<!ENTITY p "android.permission.READ_SMS">]>'),
    "recursive entity": _manifest(
        "&a;", '<!DOCTYPE manifest [<!ENTITY a "&b;"><!ENTITY b "&a;">]>'),
    "undefined entity": _manifest(_USES.format("A") + "&foo;"),
    "undefined entity, external DOCTYPE": _manifest(_USES.format("A") + "\n &foo;", _EXTERNAL_DTD),
    "undefined long entity, external DOCTYPE": _manifest("&" + "\u00e9" * 60 + ";", _EXTERNAL_DTD),
    "predefined and character references, external DOCTYPE": _manifest(
        "a &amp; &#65;" + _USES.format("A"), _EXTERNAL_DTD),
    "declared external entity": _manifest(
        "&e;" + _USES.format("A"), '<!DOCTYPE manifest [<!ENTITY e SYSTEM "e.xml">]>'),
    "parameter entity": _manifest(
        "&foo;", '<!DOCTYPE manifest [<!ENTITY % pe SYSTEM "pe.dtd"> %pe;]>'),
    "latin-1 declaration": '<?xml version="1.0" encoding="latin-1"?>'
                           + _manifest(_USES.format("\u00e9")),
    "utf-16 declaration": '<?xml version="1.0" encoding="utf-16"?>'
                          + _manifest(_USES.format("\u00e9")),
    "empty text": "",
    "foreign-prefixed uses-permission": _manifest(
        '<f:uses-permission xmlns:f="urn:f" android:name="android.permission.A"/>'
        '<uses-permission android:name=""/><uses-permission/>'),
    "local name ending in uses-permission": _manifest(
        '<x-uses-permission android:name="android.permission.A"/>'
        '<f:my-uses-permission xmlns:f="urn:uses-permission" android:name="android.permission.B"/>'),
}

# Attribute names are namespace-expanded: the prefix is whatever binds the android URI.
NAMESPACE_MANIFESTS = {
    "alias prefix": (
        '<manifest xmlns:a="http://schemas.android.com/apk/res/android">'
        '<uses-permission a:name="android.permission.A"/></manifest>',
        {"android.permission.A"}, False),
    "unbound android prefix": (
        '<manifest><uses-permission android:name="android.permission.A"/></manifest>',
        {"android.permission.A"}, True),
    "android prefix bound to another URI": (
        '<manifest xmlns:android="urn:other">'
        '<uses-permission android:name="android.permission.A"/></manifest>',
        set(), False),
}
ORACLE_MANIFESTS.update((name, text) for name, (text, _, _) in NAMESPACE_MANIFESTS.items())


@pytest.mark.parametrize("text", ORACLE_MANIFESTS.values(), ids=ORACLE_MANIFESTS.keys())
def test_declared_permissions_matches_elementtree(text):
    assert declared_permissions(text) == declared_names(text)


@pytest.mark.parametrize("text, names, malformed", NAMESPACE_MANIFESTS.values(),
                         ids=NAMESPACE_MANIFESTS.keys())
def test_declared_permissions_namespace_rules(text, names, malformed):
    declared, warnings = declared_permissions(text)
    assert declared == names
    assert warnings == ([f"malformed manifest XML (unbound prefix: line 1, column 10); "
                         f"fell back to attribute scan"] if malformed else [])


def test_sdk23_permission_counted(tmp_path, cat):
    sdk23 = '    <uses-permission-sdk-23 android:name="android.permission.READ_SMS"/>\n'
    manifest = manifest_with("SEND_SMS").replace("    <application/>", sdk23 + "    <application/>")
    expected = {"android.permission.SEND_SMS", "android.permission.READ_SMS"}
    assert declared_permissions(manifest) == declared_names(manifest) == (expected, [])
    row = _extract_one(tmp_path, cat, manifest=manifest)
    assert _bit(row, "READ_SMS") == _bit(row, "SEND_SMS") == 1


# --- code-property matching -------------------------------------------------------

def _code_bit(root, cat, text, name):
    return _bit(_extract_one(root, cat, code={"A.smali": text}), name)


def test_detect_code_property_hit(tmp_path, cat):
    assert _code_bit(tmp_path, cat, '    const-string v0, "chmod 755"\n', "chmod") == 1


def test_detect_code_property_empty(tmp_path, cat):
    assert _code_bit(tmp_path, cat, "", "chmod") == 0


def test_compound_pattern_matches_smali_call_site(tmp_path, cat):
    line = (
        "    invoke-virtual {v1, v2}, "
        "Ljava/lang/Runtime;->exec(Ljava/lang/String;)Ljava/lang/Process;\n"
    )
    assert _code_bit(tmp_path, cat, line, "Runtime.exec") == 1


def test_compound_pattern_requires_same_line(tmp_path, cat):
    split = "    const-string v0, \"Runtime\"\n    const-string v1, \"exec(\"\n"
    assert _code_bit(tmp_path, cat, split, "Runtime.exec") == 0


def test_case_sensitive_matching(tmp_path, cat):
    assert _code_bit(tmp_path, cat, '    const-string v0, "CHMOD"\n', "chmod") == 0


# --- payload-extension matching ----------------------------------------------------

def test_payload_apk(tmp_path, cat):
    row = _extract_one(tmp_path, cat, payloads=["assets/update.apk"])
    assert _bit(row, ".apk") == 1


def test_payload_none(tmp_path, cat):
    row = _extract_one(tmp_path, cat, manifest=manifest_with())
    assert _bit(row, ".apk") == 0


def test_payload_jar_not_apk(tmp_path, cat):
    row = _extract_one(tmp_path, cat, payloads=["res/raw/lib.jar"])
    assert _bit(row, ".jar") == 1
    assert _bit(row, ".apk") == 0


MULTIDEX_DECOYS = ["smali_classes", "smali_classes0", "smali_classes02", "smali_classes1",
                   "smali_classes2x", "Smali"]


def test_multidex_code_is_read(tmp_path, cat):
    """apktool writes dex files 2, 3, ... to smali_classes2/, smali_classes3/, ..."""
    d = tmp_path / "a"
    for top, text in [("smali_classes2", '    const-string v0, "chmod 755"\n'),
                      ("smali_classes10", "    invoke-virtual {v0}, Lx;->getSubscriberId()V\n"),
                      *((decoy, '    const-string v0, "remount"\n') for decoy in MULTIDEX_DECOYS)]:
        (d / top / "p").mkdir(parents=True)
        (d / top / "p" / "X.smali").write_text(text, encoding="utf-8")
    row, stats = extract_features(load_corpus(tmp_path).samples[0], cat)
    assert (_bit(row, "chmod"), _bit(row, "getSubscriberId"), _bit(row, "remount")) == (1, 1, 0)
    assert stats.files_scanned["code"] == 2
    assert list(row) == reference_bits(str(d), cat, 1 << 20)


# --- extract_features ---------------------------------------------------------

def test_extract_permission_bit(tmp_path, cat):
    write_sample(tmp_path, "a", manifest=manifest_with("READ_SMS"))
    sample = load_corpus(tmp_path).samples[0]
    row, _ = extract_features(sample, cat)
    assert _bit(row, "READ_SMS") == 1
    assert _bit(row, "SEND_SMS") == 0


def test_extract_empty_sample_all_zero(tmp_path, cat):
    (tmp_path / "a").mkdir()
    sample = load_corpus(tmp_path).samples[0]
    row, stats = extract_features(sample, cat)
    assert row == bytes(len(cat))
    assert any("manifest missing" in w for w in stats.warnings)


def test_binary_presence_not_count(tmp_path, cat):
    call = '    invoke-virtual {v0}, Landroid/telephony/TelephonyManager;->getSubscriberId()Ljava/lang/String;\n'
    write_sample(tmp_path, "a", manifest=manifest_with(),
                 code={"A.smali": call, "B.smali": call})
    sample = load_corpus(tmp_path).samples[0]
    row, _ = extract_features(sample, cat)
    assert _bit(row, "getSubscriberId") == 1


def test_manifest_missing_still_scans_code(tmp_path, cat):
    write_sample(tmp_path, "a", code={"A.smali": '    const-string v0, "chmod"\n'})
    sample = load_corpus(tmp_path).samples[0]
    row, stats = extract_features(sample, cat)
    assert _bit(row, "chmod") == 1
    assert not any(row[:131])  # permission block zeroed
    assert stats.warnings


def test_native_lib_byte_scan(tmp_path, cat):
    d = write_sample(tmp_path, "a", manifest=manifest_with())
    lib = d / "lib" / "armeabi" / "libx.so"
    lib.parent.mkdir(parents=True)
    lib.write_bytes(b"\x7fELF\x00\x00/system/bin/sh\x00\xff")
    sample = load_corpus(tmp_path).samples[0]
    row, _ = extract_features(sample, cat)
    assert _bit(row, "/system/bin/sh") == 1
    assert _bit(row, "/system/bin") == 1  # substring of the longer path


def test_file_size_cap_skips_with_warning(tmp_path, cat):
    write_sample(tmp_path, "a", manifest=manifest_with(),
                 code={"A.smali": '    const-string v0, "chmod"\n'})
    sample = load_corpus(tmp_path).samples[0]
    row, stats = extract_features(sample, cat, max_file_bytes=8)
    assert _bit(row, "chmod") == 0
    assert any("cap" in w for w in stats.warnings)


def test_monotonicity_adding_file_keeps_bits(tmp_path, cat):
    write_sample(tmp_path, "a", manifest=manifest_with("READ_SMS"),
                 code={"A.smali": '    const-string v0, "chmod"\n'})
    sample = load_corpus(tmp_path).samples[0]
    before, _ = extract_features(sample, cat)
    write_sample(tmp_path, "a", code={"B.smali": '    const-string v0, "remount"\n'})
    after, _ = extract_features(sample, cat)
    assert all(a >= b for a, b in zip(after, before))


def test_scope_isolation(tmp_path, cat):
    write_sample(tmp_path, "a", manifest=manifest_with("READ_SMS"),
                 code={"A.smali": '    const-string v0, "chmod"\n'})
    sample = load_corpus(tmp_path).samples[0]
    base, _ = extract_features(sample, cat)

    # manifest-only change: code feature bits unchanged
    write_sample(tmp_path, "a", manifest=manifest_with("READ_SMS", "SEND_SMS"))
    changed, _ = extract_features(sample, cat)
    code_idx = [d.index for d in cat if d.kind != "permission"]
    assert [changed[i] for i in code_idx] == [base[i] for i in code_idx]

    # code-only change: permission bits unchanged
    write_sample(tmp_path, "a", code={"C.smali": '    const-string v0, "mount"\n'})
    changed2, _ = extract_features(sample, cat)
    perm_idx = [d.index for d in cat if d.kind == "permission"]
    assert [changed2[i] for i in perm_idx] == [changed[i] for i in perm_idx]


def test_mode_projection_consistency(tmp_path, cat):
    write_sample(tmp_path, "a", manifest=manifest_with("READ_SMS", "CAMERA"),
                 code={"A.smali": '    const-string v0, "chmod"\n'})
    write_sample(tmp_path, "b", manifest=manifest_with("INTERNET"))
    labels = write_labels(tmp_path, [("a", "suspicious"), ("b", "benign")])
    corpus = load_corpus(tmp_path, labels)
    cat_p = load_catalog("builtin", "P")
    matrix_m, _ = extract_corpus(corpus, cat)
    matrix_p, _ = extract_corpus(corpus, cat_p)
    cols = [matrix_m.feature_names.index(n) for n in matrix_p.feature_names]
    assert np.array_equal(matrix_m.bits[:, cols], matrix_p.bits)


def test_extract_corpus_determinism(tmp_path, cat):
    for i in range(6):
        write_sample(tmp_path, f"s{i}", manifest=manifest_with("READ_SMS"),
                     code={"A.smali": f'    const-string v0, "chmod {i}"\n'})
    corpus = load_corpus(tmp_path)
    m1, _ = extract_corpus(corpus, cat)
    m2, _ = extract_corpus(corpus, cat)
    assert np.array_equal(m1.bits, m2.bits)
    assert m1.ids == m2.ids
    rows = [extract_features(s, cat)[0] for s in corpus.samples]
    assert m1.bits.tobytes() == b"".join(rows)


def test_extract_empty_corpus(tmp_path, cat):
    corpus = load_corpus(tmp_path)
    matrix, stats = extract_corpus(corpus, cat)
    assert matrix.bits.shape == (0, len(cat))
    assert stats.total_duration_ms == 0.0


def test_permission_only_faster_than_mixed(tmp_path, cat):
    pad = "".join(f'    const/4 v{i % 8}, 0x0\n' for i in range(2000))
    for i in range(40):
        write_sample(tmp_path, f"s{i:02d}", manifest=manifest_with("READ_SMS"),
                     code={"A.smali": pad})
    corpus = load_corpus(tmp_path)
    cat_p = load_catalog("builtin", "P")
    import time

    t0 = time.perf_counter()
    extract_corpus(corpus, cat_p)
    t_perm = time.perf_counter() - t0
    t0 = time.perf_counter()
    extract_corpus(corpus, cat)
    t_mixed = time.perf_counter() - t0
    assert t_perm < t_mixed


def test_deep_code_tree_extracts(tmp_path, cat):
    # 1,100 nested directories: deeper than the default recursion limit.
    # Built with os.mkdir in a loop, since os.makedirs itself recurses.
    d = write_sample(tmp_path, "a", code={"A.smali": ""})
    chain = [d / "smali"]
    for _ in range(1100):
        chain.append(chain[-1] / "d")
        os.mkdir(chain[-1])
    deep = chain[-1] / "Deep.smali"
    deep.write_text("invoke-virtual {v0}, getDeviceId\n", encoding="utf-8")
    try:
        row, stats = extract_features(load_corpus(tmp_path).samples[0], cat)
        assert _bit(row, "getDeviceId") == 1
        assert stats.files_scanned["code"] == 2
    finally:
        # Remove the chain bottom-up: shutil.rmtree recurses and would
        # fail on it when pytest cleans its temporary directories.
        deep.unlink()
        for path in reversed(chain[1:]):
            os.rmdir(path)


def test_links_under_code_scope(tmp_path, cat):
    # No link is followed and no special file is opened: a file link, a
    # directory link, a looping link and a FIFO each give one warning, in
    # path order, and are never read.
    outside = tmp_path / "outside"
    outside.mkdir()
    (outside / "secret.txt").write_text('const-string v0, "chmod"\n', encoding="utf-8")
    (outside / "Inner.smali").write_text("getDeviceId\n", encoding="utf-8")
    d = write_sample(tmp_path / "corpus", "a", manifest=manifest_with(), code={"A.smali": ""})
    os.symlink(outside / "secret.txt", d / "smali" / "Link.smali")
    os.symlink(outside, d / "smali" / "linked")
    os.symlink(d / "smali" / "loop", d / "smali" / "loop")
    os.mkfifo(d / "smali" / "pipe.smali")
    row, stats = extract_features(load_corpus(tmp_path / "corpus").samples[0], cat)
    assert _bit(row, "chmod") == 0
    assert _bit(row, "getDeviceId") == 0
    assert stats.files_scanned["code"] == 1
    assert stats.warnings == [
        "a: skipped smali/Link.smali (link)",
        "a: skipped smali/linked (link)",
        "a: skipped smali/loop (link)",
        "a: skipped smali/pipe.smali (not a regular file)",
    ]


def test_unreadable_code_unit_skipped(tmp_path, cat, monkeypatch):
    write_sample(tmp_path, "a", manifest=manifest_with(), code={
        "A.smali": "chmod\n", "B.smali": "getDeviceId\n", "C.smali": "remount\n"})
    sample = load_corpus(tmp_path).samples[0]
    real_open = os.open

    def flaky_open(path, *args, **kwargs):
        if os.fspath(path).endswith("B.smali"):
            raise PermissionError(13, "denied", os.fspath(path))
        return real_open(path, *args, **kwargs)

    monkeypatch.setattr(os, "open", flaky_open)
    row, stats = extract_features(sample, cat)
    assert (_bit(row, "chmod"), _bit(row, "getDeviceId"), _bit(row, "remount")) == (1, 0, 1)
    assert stats.files_scanned["code"] == 2
    assert len(stats.warnings) == 1
    assert stats.warnings[0].startswith("a: unreadable file smali/B.smali: ")


def test_warnings_do_not_depend_on_corpus_root(tmp_path, cat, monkeypatch):
    real_open, real_scandir = os.open, os.scandir

    def failing_open(path, *args, **kwargs):
        if os.fspath(path).endswith("B.smali"):
            raise PermissionError(errno.EACCES, "Permission denied", os.fspath(path))
        return real_open(path, *args, **kwargs)

    def failing_scandir(path):
        if os.fspath(path).endswith("deny"):
            raise PermissionError(errno.EACCES, "Permission denied", os.fspath(path))
        return real_scandir(path)

    monkeypatch.setattr(os, "open", failing_open)
    monkeypatch.setattr(os, "scandir", failing_scandir)
    seen = []
    for root in (tmp_path / "c1", tmp_path / "deep" / "c2"):
        d = write_sample(root, "a", code={"A.smali": "", "B.smali": "", "deny/C.smali": ""})
        os.symlink("elsewhere.xml", d / "AndroidManifest.xml")
        _, stats = extract_corpus(load_corpus(root), cat)
        seen.append(stats.warnings)
    assert seen[0] == seen[1] == [
        f"a: manifest unreadable ({os.strerror(errno.ELOOP)}); permission features zeroed",
        "a: skipped smali/deny (cannot list: Permission denied)",
        "a: unreadable file smali/B.smali: Permission denied",
    ]


def test_extract_corpus_calls_extract_features_per_sample(tmp_path, cat, monkeypatch):
    # Per-sample timing wraps detectors.extract_features from outside, so
    # extract_corpus must call it through the module attribute, once per
    # sample, and return its bits as a numpy array. With two workers the
    # calling process extracts samples 0, 2, 4, ... itself, so timing sees them.
    for i in range(7):
        write_sample(tmp_path, f"s{i}", manifest=manifest_with("READ_SMS"))
    calls = []
    real = detectors.extract_features

    def counting(sample, *args, **kwargs):
        calls.append(sample.id)
        return real(sample, *args, **kwargs)

    monkeypatch.setattr(detectors, "extract_features", counting)
    matrix, _ = extract_corpus(load_corpus(tmp_path), cat)
    assert calls == [f"s{i}" for i in range(7)]
    assert isinstance(matrix.bits, np.ndarray) and matrix.bits.dtype == np.uint8
    assert int(matrix.bits.sum()) == 7

    calls.clear()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(detectors, "MIN_SHARE", 1)
    forked, _ = extract_corpus(load_corpus(tmp_path), cat)
    assert calls == ["s0", "s2", "s4", "s6"]
    assert forked.bits.tobytes() == matrix.bits.tobytes()


@pytest.mark.parametrize("which, stages", [
    ("M", ["read_manifest", "enumerate_code_units", "enumerate_payload_files"]),
    ("P", ["read_manifest"]),
    ("chmod", ["enumerate_code_units"]),
])
def test_stage_calls_per_sample(tmp_path, monkeypatch, which, stages):
    # Stage timing wraps these three through detectors' module attributes
    # and counts walks per sample: mode M lists each walk once per sample,
    # and mode P never walks. ``which`` is a builtin mode, or one builtin
    # feature alone: chmod searches code and assets, and every sample's
    # code sets it, so the payload walk is never listed.
    for i in range(3):
        write_sample(tmp_path, f"s{i}", manifest=manifest_with("READ_SMS"),
                     code={"A.smali": "chmod\n"}, payloads=["assets/p.apk"])
    calls = []

    def counted(name, real):
        def wrapper(sample, *args, **kwargs):
            calls.append((name, sample.id))
            return real(sample, *args, **kwargs)
        return wrapper

    for name in ("read_manifest", "enumerate_code_units", "enumerate_payload_files"):
        monkeypatch.setattr(detectors, name, counted(name, getattr(detectors, name)))
    catalog = (load_catalog("builtin", which) if which in ("M", "P")
               else subset_catalog(load_catalog("builtin", "M"), [which]))
    extract_corpus(load_corpus(tmp_path), catalog)
    assert sorted(calls) == sorted((name, f"s{i}") for name in stages for i in range(3))


# --- matrix CSV ----------------------------------------------------------------

def test_matrix_csv_roundtrip(tmp_path, cat):
    write_sample(tmp_path, "a", manifest=manifest_with("READ_SMS"))
    write_sample(tmp_path, "b", manifest=manifest_with())
    labels = write_labels(tmp_path, [("a", "suspicious")])
    corpus = load_corpus(tmp_path, labels)
    sub = subset_catalog(cat, ["READ_SMS", "chmod"])
    matrix, stats = extract_corpus(corpus, sub)
    out = tmp_path / "matrix.csv"
    write_matrix_csv(matrix, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "app_id,label,READ_SMS,chmod"
    assert lines[1] == "a,suspicious,1,0"
    assert lines[2] == "b,,0,0"  # unlabeled sample: empty label column
    assert len(lines) == 3

    stats_out = tmp_path / "stats.csv"
    write_stats_csv(stats, stats_out)
    assert stats_out.read_text().splitlines()[0] == "app_id,duration_ms,files_scanned,warnings"


def _per_row_csv(matrix):
    """The matrix file as one ``csv.writer`` row per sample, ints as ints: every
    cell holding a CR or an LF quoted (what a CRLF terminator quotes), LF line ends."""
    lines = [["app_id", "label", *matrix.feature_names]]
    for app_id, label, row in zip(matrix.ids, matrix.labels, matrix.bits.tolist()):
        lines.append([app_id, label.value if label is not None else "", *row])
    text = ""
    for line in lines:
        out = io.StringIO(newline="")
        csv.writer(out, lineterminator="\r\n").writerow(line)
        text += out.getvalue().removesuffix("\r\n") + "\n"
    return text.encode("utf-8", "surrogateescape")


@pytest.mark.parametrize("ids, n_features", [
    (("a,b", 'q"uote', "cr\r", "lf\n", " edge ", "\udcff", "plain"), 3),
    ((), 2),
    (("x", "y"), 1),
    (('"', "\r\n", " lead", 'a,"b"\r\nc', "tab\tid", "\udc80\udcff,", ""), 131),
])
def test_matrix_csv_matches_per_row_writer(tmp_path, ids, n_features):
    rng = np.random.default_rng(len(ids))
    labels = [ClassLabel.BENIGN, None, ClassLabel.SUSPICIOUS]
    matrix = FeatureMatrix(
        ids=ids,
        labels=tuple(labels[i % 3] for i in range(len(ids))),
        feature_names=tuple(f"f,{i}" for i in range(n_features)),
        rows=tuple(map(bytes, rng.integers(0, 2, (len(ids), n_features), dtype=np.uint8))),
    )
    out = tmp_path / "matrix.csv"
    write_matrix_csv(matrix, out)
    assert out.read_bytes() == _per_row_csv(matrix)
    with open(out, encoding="utf-8", errors="surrogateescape", newline="") as fh:
        read_back = list(csv.reader(fh))
    assert [row[0] for row in read_back[1:]] == list(ids)  # a CR in an id splits no row


# --- hostile trees ---------------------------------------------------------------

def test_manifest_over_cap_skipped(tmp_path, cat):
    write_sample(tmp_path, "a", manifest=manifest_with("READ_SMS"), code={"A.smali": "chmod\n"})
    row, stats = extract_features(load_corpus(tmp_path).samples[0], cat, max_file_bytes=64)
    assert _bit(row, "READ_SMS") == 0
    assert _bit(row, "chmod") == 1
    assert stats.files_scanned["manifest"] == 0
    assert stats.warnings == ["a: manifest exceeds 64 byte cap; permission features zeroed"]


def test_root_file_named_like_a_scope_is_skipped(tmp_path, cat):
    # Only a real directory at the root holds a scope's files.
    d = write_sample(tmp_path, "a", manifest=manifest_with())
    (d / "smali").write_text("chmod\n", encoding="utf-8")
    (d / "assets").write_text("remount\n", encoding="utf-8")
    row, stats = extract_features(load_corpus(tmp_path).samples[0], cat)
    assert (_bit(row, "chmod"), _bit(row, "remount")) == (0, 0)
    assert stats.files_scanned["code"] == stats.files_scanned["assets"] == 0
    assert stats.warnings == ["a: skipped smali (not a directory)",
                              "a: skipped assets (not a directory)"]


def test_listing_order_does_not_matter(tmp_path, cat, monkeypatch):
    d = write_sample(tmp_path, "a", manifest=manifest_with("READ_SMS"), code={
        "z/A.smali": "chmod\n", "a/B.smali": "chmod getDeviceId\n", ".h/C.smali": "remount\n",
        "m/D.smali": "Runtime exec(\n"})
    (d / "assets").mkdir()
    (d / "assets" / "x.txt").write_bytes(b"su -c\n")
    (d / "lib").mkdir()
    (d / "lib" / "libz.so").write_bytes(b"\x00JNI_OnLoad\x00")
    for rel in ("smali/z/L1.smali", "smali/a/L2.smali", "assets/L3.apk"):
        os.symlink(d / "smali" / "z" / "A.smali", d / rel)
    os.mkfifo(d / "smali" / "m" / "pipe")
    sample = load_corpus(tmp_path).samples[0]
    forward_row, forward = extract_features(sample, cat)
    real_scandir = os.scandir

    def reversed_scandir(path):
        with real_scandir(path) as it:
            return Listing(list(it)[::-1])

    monkeypatch.setattr(os, "scandir", reversed_scandir)
    backward_row, backward = extract_features(sample, cat)
    assert forward_row == backward_row
    assert forward.files_scanned == backward.files_scanned
    assert forward.warnings == backward.warnings == [
        "a: skipped smali/a/L2.smali (link)",
        "a: skipped smali/m/pipe (not a regular file)",
        "a: skipped smali/z/L1.smali (link)",
        "a: skipped assets/L3.apk (link)",
    ]
    assert _bit(forward_row, ".apk") == 0
