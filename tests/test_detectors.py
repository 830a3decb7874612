import numpy as np
import pytest

from apksift.catalog import load_catalog, subset_catalog
from apksift.corpus import load_corpus
from apksift.detectors import (
    extract_corpus,
    extract_features,
    write_matrix_csv,
    write_stats_csv,
)

from conftest import manifest_with, write_labels, write_sample


@pytest.fixture(scope="module")
def cat():
    return load_catalog("builtin", "M")


def _bit(vector, name):
    return int(vector.bits[vector.names.index(name)])


def _extract_one(root, cat, **layout):
    """Bits of a one-sample corpus laid out by ``write_sample``."""
    write_sample(root, "a", **layout)
    vector, _ = extract_features(load_corpus(root).samples[0], cat)
    return vector


# --- permission matching --------------------------------------------------------

def test_detect_permission_hit(tmp_path, cat):
    vector = _extract_one(tmp_path, cat, manifest=manifest_with("READ_CONTACTS"))
    assert _bit(vector, "READ_CONTACTS") == 1


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
    vector, stats = extract_features(load_corpus(tmp_path).samples[0], cat)
    assert _bit(vector, "READ_SMS") == 1
    assert any("malformed manifest XML" in w for w in stats.warnings)


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
    vector = _extract_one(tmp_path, cat, payloads=["assets/update.apk"])
    assert _bit(vector, ".apk") == 1


def test_payload_none(tmp_path, cat):
    vector = _extract_one(tmp_path, cat, manifest=manifest_with())
    assert _bit(vector, ".apk") == 0


def test_payload_jar_not_apk(tmp_path, cat):
    vector = _extract_one(tmp_path, cat, payloads=["res/raw/lib.jar"])
    assert _bit(vector, ".jar") == 1
    assert _bit(vector, ".apk") == 0


# --- extract_features ---------------------------------------------------------

def test_extract_permission_bit(tmp_path, cat):
    write_sample(tmp_path, "a", manifest=manifest_with("READ_SMS"))
    sample = load_corpus(tmp_path).samples[0]
    vector, _ = extract_features(sample, cat)
    assert _bit(vector, "READ_SMS") == 1
    assert _bit(vector, "SEND_SMS") == 0


def test_extract_empty_sample_all_zero(tmp_path, cat):
    (tmp_path / "a").mkdir()
    sample = load_corpus(tmp_path).samples[0]
    vector, stats = extract_features(sample, cat)
    assert not vector.bits.any()
    assert any("manifest missing" in w for w in stats.warnings)


def test_binary_presence_not_count(tmp_path, cat):
    call = '    invoke-virtual {v0}, Landroid/telephony/TelephonyManager;->getSubscriberId()Ljava/lang/String;\n'
    write_sample(tmp_path, "a", manifest=manifest_with(),
                 code={"A.smali": call, "B.smali": call})
    sample = load_corpus(tmp_path).samples[0]
    vector, _ = extract_features(sample, cat)
    assert _bit(vector, "getSubscriberId") == 1


def test_manifest_missing_still_scans_code(tmp_path, cat):
    write_sample(tmp_path, "a", code={"A.smali": '    const-string v0, "chmod"\n'})
    sample = load_corpus(tmp_path).samples[0]
    vector, stats = extract_features(sample, cat)
    assert _bit(vector, "chmod") == 1
    assert all(b == 0 for b in vector.bits[:131])  # permission block zeroed
    assert stats.warnings


def test_native_lib_byte_scan(tmp_path, cat):
    d = write_sample(tmp_path, "a", manifest=manifest_with())
    lib = d / "lib" / "armeabi" / "libx.so"
    lib.parent.mkdir(parents=True)
    lib.write_bytes(b"\x7fELF\x00\x00/system/bin/sh\x00\xff")
    sample = load_corpus(tmp_path).samples[0]
    vector, _ = extract_features(sample, cat)
    assert _bit(vector, "/system/bin/sh") == 1
    assert _bit(vector, "/system/bin") == 1  # substring of the longer path


def test_file_size_cap_skips_with_warning(tmp_path, cat):
    write_sample(tmp_path, "a", manifest=manifest_with(),
                 code={"A.smali": '    const-string v0, "chmod"\n'})
    sample = load_corpus(tmp_path).samples[0]
    vector, stats = extract_features(sample, cat, max_file_bytes=8)
    assert _bit(vector, "chmod") == 0
    assert any("cap" in w for w in stats.warnings)


def test_monotonicity_adding_file_keeps_bits(tmp_path, cat):
    write_sample(tmp_path, "a", manifest=manifest_with("READ_SMS"),
                 code={"A.smali": '    const-string v0, "chmod"\n'})
    sample = load_corpus(tmp_path).samples[0]
    before, _ = extract_features(sample, cat)
    write_sample(tmp_path, "a", code={"B.smali": '    const-string v0, "remount"\n'})
    after, _ = extract_features(sample, cat)
    assert np.all(after.bits >= before.bits)


def test_scope_isolation(tmp_path, cat):
    write_sample(tmp_path, "a", manifest=manifest_with("READ_SMS"),
                 code={"A.smali": '    const-string v0, "chmod"\n'})
    sample = load_corpus(tmp_path).samples[0]
    base, _ = extract_features(sample, cat)

    # manifest-only change: code feature bits unchanged
    write_sample(tmp_path, "a", manifest=manifest_with("READ_SMS", "SEND_SMS"))
    changed, _ = extract_features(sample, cat)
    code_idx = [d.index for d in cat if d.kind != "permission"]
    assert np.array_equal(changed.bits[code_idx], base.bits[code_idx])

    # code-only change: permission bits unchanged
    write_sample(tmp_path, "a", code={"C.smali": '    const-string v0, "mount"\n'})
    changed2, _ = extract_features(sample, cat)
    perm_idx = [d.index for d in cat if d.kind == "permission"]
    assert np.array_equal(changed2.bits[perm_idx], changed.bits[perm_idx])


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
    rows = [extract_features(s, cat)[0].bits for s in corpus.samples]
    assert np.array_equal(m1.bits, np.stack(rows))


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
