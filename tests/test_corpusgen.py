import hashlib
from pathlib import Path

import pytest

from apksift.catalog import data_table_path, load_catalog
from apksift.corpus import load_corpus
from apksift.corpusgen import (
    FrequencyEntry,
    FrequencySpec,
    generate,
    spec_from_table,
)
from apksift.detectors import extract_corpus
from apksift.errors import GenerationError
from apksift.ranking import build_contingency


@pytest.fixture(scope="module")
def cat():
    return load_catalog("builtin", "M")


def _entries(cat, counts):
    return tuple(FrequencyEntry(cat.by_name(n), b, m) for n, (b, m) in counts.items())


def _contingency_counts(root, labels, cat):
    corpus = load_corpus(root, labels)
    matrix, _ = extract_corpus(corpus, cat)
    return {t.feature: (t.n_pos_ben, t.n_pos_sus) for t in build_contingency(matrix)}


def tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(root.rglob("*"), key=lambda p: str(p)):
        h.update(str(path.relative_to(root)).encode())
        if path.is_file():
            h.update(path.read_bytes())
    return h.hexdigest()


# --- spec_from_table -------------------------------------------------------------

def test_spec_from_shipped_table4(cat):
    spec = spec_from_table(data_table_path("table4"), cat)
    assert len(spec.entries) == 30
    by_name = {e.feature.name: e for e in spec.entries}
    assert (by_name["READ_SMS"].benign, by_name["READ_SMS"].malware) == (20, 591)


def test_spec_from_empty_table(tmp_path, cat):
    table = tmp_path / "empty.csv"
    table.write_text("feature,benign_count,malware_count\n")
    spec = spec_from_table(table, cat)
    assert spec.entries == ()


def test_spec_single_row(tmp_path, cat):
    table = tmp_path / "one.csv"
    table.write_text("feature,benign_count,malware_count\nREAD_SMS,20,591\n")
    spec = spec_from_table(table, cat)
    assert len(spec.entries) == 1
    assert (spec.entries[0].benign, spec.entries[0].malware) == (20, 591)


def test_spec_unknown_feature_fatal(tmp_path, cat):
    table = tmp_path / "bad.csv"
    table.write_text("feature,benign_count,malware_count\nNOT_A_THING,1,2\n")
    with pytest.raises(GenerationError, match="NOT_A_THING"):
        spec_from_table(table, cat)


def test_spec_bad_header_fatal(tmp_path, cat):
    table = tmp_path / "bad.csv"
    table.write_text("name,ben,mal\nREAD_SMS,1,2\n")
    with pytest.raises(GenerationError, match="header"):
        spec_from_table(table, cat)


def test_spec_count_bounds_validated(cat):
    with pytest.raises(GenerationError, match="outside"):
        FrequencySpec(_entries(cat, {"READ_SMS": (11, 5)}), n_benign=10, n_suspicious=10)


# --- generate ---------------------------------------------------------------------

def test_generate_exact_counts_small(tmp_path, cat):
    counts = {"READ_SMS": (2, 9), "chmod": (1, 7), ".apk": (3, 5), "Runtime.exec": (0, 4)}
    spec = FrequencySpec(_entries(cat, counts), n_benign=10, n_suspicious=10, seed=5)
    g = generate(spec, tmp_path / "corpus")
    observed = _contingency_counts(g.root, g.labels, cat)
    for name, expected in counts.items():
        assert observed[name] == expected, name
    planted = set(counts)
    assert all(observed[n] == (0, 0) for n in observed if n not in planted)


def test_generate_nested_patterns_exact(tmp_path, cat):
    # "mount" is a substring of "remount"; "/system/bin" of "/system/bin/sh"
    counts = {
        "mount": (4, 8),
        "remount": (2, 6),
        "/system/bin": (5, 9),
        "/system/bin/sh": (1, 3),
    }
    spec = FrequencySpec(_entries(cat, counts), n_benign=12, n_suspicious=12, seed=1)
    g = generate(spec, tmp_path / "corpus")
    observed = _contingency_counts(g.root, g.labels, cat)
    for name, expected in counts.items():
        assert observed[name] == expected, name


def test_generate_infeasible_nesting_fatal(tmp_path, cat):
    # every remount line also sets mount, so remount > mount cannot be planted
    counts = {"mount": (1, 2), "remount": (5, 6)}
    spec = FrequencySpec(_entries(cat, counts), n_benign=8, n_suspicious=8, seed=0)
    with pytest.raises(GenerationError, match="remount"):
        generate(spec, tmp_path / "corpus")


def test_generate_zero_spec_all_zero_matrix(tmp_path, cat):
    spec = FrequencySpec((), n_benign=4, n_suspicious=4, seed=0)
    g = generate(spec, tmp_path / "corpus")
    observed = _contingency_counts(g.root, g.labels, cat)
    assert all(v == (0, 0) for v in observed.values())


def test_generate_deterministic_trees(tmp_path, cat):
    counts = {"READ_SMS": (2, 5), "chmod": (1, 3)}
    spec = FrequencySpec(_entries(cat, counts), n_benign=6, n_suspicious=6, seed=42)
    g1 = generate(spec, tmp_path / "one")
    g2 = generate(spec, tmp_path / "two")
    assert tree_digest(g1.root) == tree_digest(g2.root)
    other = FrequencySpec(_entries(cat, counts), n_benign=6, n_suspicious=6, seed=43)
    g3 = generate(other, tmp_path / "three")
    assert tree_digest(g1.root) != tree_digest(g3.root)


def test_generate_tree_bytes_frozen(tmp_path, cat):
    # Names and bytes of a table6 corpus with payload files and pad lines, as
    # generated before the writer moved to os.mkdir/os.open; any change to
    # the tree layout, file bytes or planting order moves this digest.
    spec = spec_from_table(data_table_path("table6"), cat, 1000, 1000, seed=11)
    entries = tuple(FrequencyEntry(e.feature, e.benign // 50, e.malware // 50)
                    for e in spec.entries)
    g = generate(FrequencySpec(entries, 20, 20, seed=11), tmp_path / "corpus", pad_lines=3)
    assert list((g.root / "mal00000").iterdir())
    assert tree_digest(g.root) == "d50156eaded2d0b2f26879899ac2ff1c16ad7f297aa692a0ab3bfee2f1e20f01"


def test_generate_nonempty_out_fatal(tmp_path, cat):
    out = tmp_path / "corpus"
    out.mkdir()
    (out / "existing").write_text("x")
    with pytest.raises(GenerationError, match="not empty"):
        generate(FrequencySpec((), 1, 1), out)


@pytest.mark.parametrize("below", ["", "sub"])
def test_generate_out_at_or_under_a_file_fatal(tmp_path, below):
    afile = tmp_path / "afile"
    afile.write_text("x")
    with pytest.raises(GenerationError, match="output directory"):
        generate(FrequencySpec((), 1, 1), afile / below)
    assert afile.read_text() == "x"


def test_generate_labels_file_format(tmp_path, cat):
    spec = FrequencySpec((), n_benign=2, n_suspicious=1, seed=0)
    g = generate(spec, tmp_path / "corpus")
    lines = g.labels.read_text().splitlines()
    assert lines[0] == "app_id,label"
    assert lines[1:] == ["ben00000,benign", "ben00001,benign", "mal00000,suspicious"]


def test_generate_pad_lines_inert(tmp_path, cat):
    counts = {"chmod": (1, 4), "getSubscriberId": (2, 3)}
    spec = FrequencySpec(_entries(cat, counts), n_benign=5, n_suspicious=5, seed=9)
    g = generate(spec, tmp_path / "padded", pad_lines=200)
    observed = _contingency_counts(g.root, g.labels, cat)
    for name, expected in counts.items():
        assert observed[name] == expected
    assert all(observed[n] == (0, 0) for n in observed if n not in counts)
    code = (g.root / "ben00000" / "smali" / "Gen.smali").read_text()
    assert len(code.splitlines()) > 200


def test_generated_corpus_layout(tmp_path, cat):
    counts = {"READ_SMS": (1, 1), ".apk": (1, 1)}
    spec = FrequencySpec(_entries(cat, counts), n_benign=1, n_suspicious=1, seed=2)
    g = generate(spec, tmp_path / "corpus")
    sample = g.root / "ben00000"
    assert (sample / "AndroidManifest.xml").is_file()
    assert (sample / "smali" / "Gen.smali").is_file()
    manifest = (sample / "AndroidManifest.xml").read_text()
    assert 'android:name="android.permission.READ_SMS"' in manifest
    payloads = list((sample / "assets").glob("*.apk"))
    assert len(payloads) == 1
