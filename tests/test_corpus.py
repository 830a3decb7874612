import os

import pytest

from apksift.corpus import (
    ClassLabel,
    ManifestMissing,
    Scope,
    enumerate_code_units,
    enumerate_payload_files,
    load_corpus,
    read_manifest,
    scope_of,
)
from apksift.errors import CorpusError

from conftest import manifest_with, write_labels, write_sample


def test_load_corpus_two_samples(tmp_path):
    write_sample(tmp_path, "a", manifest=manifest_with())
    write_sample(tmp_path, "b", manifest=manifest_with())
    labels = write_labels(tmp_path, [("a", "benign"), ("b", "suspicious")])
    corpus = load_corpus(tmp_path, labels)
    assert len(corpus) == 2
    assert corpus.label_counts == {"benign": 1, "suspicious": 1, "unlabeled": 0}
    assert [s.id for s in corpus] == ["a", "b"]


def test_link_at_corpus_root_skipped_with_warning(tmp_path):
    root = tmp_path / "corpus"
    write_sample(root, "a", manifest=manifest_with())
    write_sample(tmp_path, "else", code={"X.smali": "chmod\n"})
    os.symlink("../else", root / "x")
    corpus = load_corpus(root, write_labels(root, [("a", "benign")]))
    assert [s.id for s in corpus] == ["a"]
    assert corpus.warnings == ("x: skipped corpus entry (link)",)
    named = write_labels(root, [("a", "benign"), ("x", "suspicious")], name="named.csv")
    with pytest.raises(CorpusError, match="missing app directories: x"):
        load_corpus(root, named)


def test_load_corpus_empty(tmp_path):
    labels = tmp_path / "labels.csv"
    labels.write_text("app_id,label\n")
    corpus = load_corpus(tmp_path, labels)
    assert len(corpus) == 0


def test_load_corpus_missing_directory_named(tmp_path):
    write_sample(tmp_path, "a", manifest=manifest_with())
    labels = write_labels(tmp_path, [("a", "benign"), ("c", "suspicious")])
    with pytest.raises(CorpusError, match="c"):
        load_corpus(tmp_path, labels)


def test_load_corpus_duplicate_id_fatal(tmp_path):
    write_sample(tmp_path, "a", manifest=manifest_with())
    labels = write_labels(tmp_path, [("a", "benign"), ("a", "suspicious")])
    with pytest.raises(CorpusError, match="duplicate"):
        load_corpus(tmp_path, labels)


def test_load_corpus_bad_label_value(tmp_path):
    write_sample(tmp_path, "a", manifest=manifest_with())
    labels = write_labels(tmp_path, [("a", "malicious")])
    with pytest.raises(CorpusError, match="malicious"):
        load_corpus(tmp_path, labels)


def test_labels_with_byte_order_mark(tmp_path):
    write_sample(tmp_path, "a", manifest=manifest_with())
    labels = tmp_path / "labels.csv"
    labels.write_bytes(b"\xef\xbb\xbfapp_id,label\na,suspicious\n")
    corpus = load_corpus(tmp_path, labels)
    assert corpus.samples[0].label is ClassLabel.SUSPICIOUS


def test_labels_not_utf8_is_corpus_error(tmp_path):
    # The undecodable id is kept surrogate-escaped, like a directory name,
    # and no directory has that name.
    labels = tmp_path / "labels.csv"
    labels.write_bytes(b"app_id,label\n\xff,benign\n")
    with pytest.raises(CorpusError, match="label rows reference missing app directories"):
        load_corpus(tmp_path, labels)


def test_label_ids_compared_as_written(tmp_path):
    write_sample(tmp_path, " a", manifest=manifest_with())
    write_sample(tmp_path, "b ", manifest=manifest_with())
    labels = tmp_path / "labels.csv"
    labels.write_text(" app_id , label \n a, suspicious\nb ,benign \n", encoding="utf-8")
    corpus = load_corpus(tmp_path, labels)
    assert [(s.id, s.label) for s in corpus] == [
        (" a", ClassLabel.SUSPICIOUS), ("b ", ClassLabel.BENIGN)]
    stripped = write_labels(tmp_path, [("a", "suspicious")], name="stripped.csv")
    with pytest.raises(CorpusError, match="missing app directories: a$"):
        load_corpus(tmp_path, stripped)


def test_load_corpus_missing_root():
    with pytest.raises(CorpusError):
        load_corpus("/nonexistent/corpus/root")


def test_unlabeled_samples_kept(tmp_path):
    write_sample(tmp_path, "a", manifest=manifest_with())
    write_sample(tmp_path, "b", manifest=manifest_with())
    labels = write_labels(tmp_path, [("a", "benign")])
    corpus = load_corpus(tmp_path, labels)
    assert corpus.label_counts["unlabeled"] == 1
    assert corpus.samples[1].label is None
    counts = corpus.label_counts
    assert counts["benign"] + counts["suspicious"] + counts["unlabeled"] == len(corpus)


def test_load_corpus_idempotent(tmp_path):
    write_sample(tmp_path, "a", manifest=manifest_with("READ_SMS"))
    labels = write_labels(tmp_path, [("a", "benign")])
    first = load_corpus(tmp_path, labels)
    second = load_corpus(tmp_path, labels)
    assert first.samples == second.samples


def test_read_manifest_verbatim(tmp_path):
    text = manifest_with("READ_CONTACTS")
    write_sample(tmp_path, "a", manifest=text)
    labels = write_labels(tmp_path, [("a", "benign")])
    corpus = load_corpus(tmp_path, labels)
    assert read_manifest(corpus.samples[0]) == text
    assert "<uses-permission" in read_manifest(corpus.samples[0])


def test_read_manifest_empty(tmp_path):
    write_sample(tmp_path, "a", manifest="")
    corpus = load_corpus(tmp_path)
    assert read_manifest(corpus.samples[0]) == ""


def test_read_manifest_missing(tmp_path):
    write_sample(tmp_path, "a", code={"X.smali": ""})
    corpus = load_corpus(tmp_path)
    with pytest.raises(ManifestMissing) as err:
        read_manifest(corpus.samples[0])
    assert err.value.sample_id == "a"


def test_enumerate_code_units_sorted(tmp_path):
    write_sample(tmp_path, "a", code={"b/Z.smali": "", "a/A.smali": "", "M.smali": ""})
    corpus = load_corpus(tmp_path)
    assert enumerate_code_units(corpus.samples[0]) == [
        ("smali/M.smali", Scope.CODE),
        ("smali/a/A.smali", Scope.CODE),
        ("smali/b/Z.smali", Scope.CODE),
    ]


def test_enumerate_code_units_empty(tmp_path):
    write_sample(tmp_path, "a", manifest=manifest_with())
    corpus = load_corpus(tmp_path)
    assert enumerate_code_units(corpus.samples[0]) == []


def test_enumerate_payload_files(tmp_path):
    write_sample(tmp_path, "a", payloads=["assets/payload.apk"])
    corpus = load_corpus(tmp_path)
    assert enumerate_payload_files(corpus.samples[0]) == [
        ("assets/payload.apk", Scope.ASSETS)
    ]


def test_enumerate_payload_files_empty(tmp_path):
    write_sample(tmp_path, "a", manifest=manifest_with())
    corpus = load_corpus(tmp_path)
    assert enumerate_payload_files(corpus.samples[0]) == []


def test_enumerate_payload_files_ordering(tmp_path):
    write_sample(tmp_path, "a", payloads=["res/raw/x.jar", "lib/libfoo.so"])
    corpus = load_corpus(tmp_path)
    assert enumerate_payload_files(corpus.samples[0]) == [
        ("lib/libfoo.so", Scope.NATIVE_LIB),
        ("res/raw/x.jar", Scope.RESOURCES),
    ]


# --- member walk ----------------------------------------------------------------

def test_member_files_unlistable_directory_skipped(tmp_path, monkeypatch):
    write_sample(tmp_path, "a", code={"A.smali": "", "deny/B.smali": "", "ok/C.smali": ""})
    sample = load_corpus(tmp_path).samples[0]
    real_scandir = os.scandir

    def guarded(path):
        if os.fspath(path).endswith("deny"):
            raise PermissionError(13, "denied", os.fspath(path))
        return real_scandir(path)

    monkeypatch.setattr(os, "scandir", guarded)
    assert [rel for rel, _ in sample.member_files((Scope.CODE,))] == [
        "smali/A.smali", "smali/ok/C.smali"]


def test_member_files_missing_directory_empty(tmp_path):
    write_sample(tmp_path, "a", code={"A.smali": ""})
    sample = load_corpus(tmp_path).samples[0]
    os.rename(sample.directory, tmp_path / "gone")
    assert sample.member_files((Scope.CODE,)) == []


def test_scope_mapping():
    assert scope_of("AndroidManifest.xml") is Scope.MANIFEST
    assert scope_of("smali/com/x/A.smali") is Scope.CODE
    assert scope_of("assets/p.apk") is Scope.ASSETS
    assert scope_of("res/raw/x.jar") is Scope.RESOURCES
    assert scope_of("lib/armeabi/libx.so") is Scope.NATIVE_LIB
    assert scope_of("META-INF/CERT.RSA") is Scope.OTHER
    assert scope_of("smali") is scope_of("lib") is Scope.OTHER  # root files, not directories


def test_scope_of_multidex_code():
    assert scope_of("smali_classes2/a/B.smali") is scope_of("smali_classes31/B.smali") is Scope.CODE
    for decoy in ("smali_classes", "smali_classes0", "smali_classes02", "smali_classes1",
                  "smali_classes2x", "Smali", "smali_classes2\n", "smali_classes\u0662"):
        assert scope_of(f"{decoy}/B.smali") is Scope.OTHER, decoy


def test_class_label_values():
    assert {lab.value for lab in ClassLabel} == {"benign", "suspicious"}
