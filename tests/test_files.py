"""The file rules: every input and output file goes through ``apksift.files``.

Each case here is one way the per-module copies of those rules drifted:
a write that fails, an input that is not UTF-8, a BOM, a CSV field the
reader split differently from the writer, a blank row, an input that is
not a regular file or is over the size cap, and an output that is not a
regular file. Every failure exits 2 with one error line that names the
file, and no traceback.
"""

import csv
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from apksift import files
from apksift.catalog import builtin_catalog
from apksift.cli import main
from apksift.corpus import ClassLabel, load_corpus
from apksift.errors import CorpusError

from conftest import manifest_with, write_labels, write_sample

SRC = Path(__file__).resolve().parents[1] / "src"
TABLE_HEADER = "feature,benign_count,malware_count\n"


@pytest.fixture()
def corpus(tmp_path):
    """(root, labels, model): a separable corpus and a model trained on it."""
    root = tmp_path / "corpus"
    for i in range(3):
        write_sample(root, f"ben{i}", manifest=manifest_with("INTERNET"))
        write_sample(root, f"mal{i}", manifest=manifest_with("INTERNET"),
                     code={"A.smali": '    const-string v0, "chmod"\n'})
    labels = write_labels(tmp_path, [(f"ben{i}", "benign") for i in range(3)]
                          + [(f"mal{i}", "suspicious") for i in range(3)])
    model = tmp_path / "model.json"
    assert main(["train", "--corpus", str(root), "--labels", str(labels), "--top", "1",
                 "--out", str(model)]) == 0
    return root, labels, model


def _error_line(capsys, argv, named) -> str:
    """The one error line of a command that must fail with exit 2, naming ``named``."""
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    lines = [line for line in err.splitlines() if not line.startswith(("warning:", "note:"))]
    assert len(lines) == 1 and lines[0].startswith("apksift: error: "), err
    assert str(named) in lines[0]
    return lines[0]


def _argv(command, corpus, out, extra=()):
    root, labels, model = corpus
    base = {
        "extract": ["extract", "--corpus", str(root)],
        "rank": ["rank", "--corpus", str(root), "--labels", str(labels)],
        "train": ["train", "--corpus", str(root), "--labels", str(labels), "--top", "1"],
        "classify": ["classify", "--corpus", str(root), "--model", str(model)],
        "bench": ["bench", "--corpus", str(root), "--labels", str(labels)],
    }[command]
    return [*base, *extra, "--out", str(out)]


@pytest.mark.parametrize("command", ["extract", "rank", "train", "classify", "bench"])
def test_unwritable_out_is_data_error(tmp_path, corpus, capsys, command):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    out = blocker / "out"  # ENOTDIR, which root cannot override as it can permission bits
    line = _error_line(capsys, _argv(command, corpus, out), out)
    assert line.endswith("Not a directory")


def test_unwritable_extract_stats_is_data_error(tmp_path, corpus, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    stats = blocker / "stats.csv"
    _error_line(capsys, _argv("extract", corpus, tmp_path / "m.csv", ["--stats", str(stats)]),
                stats)


def test_unwritable_report_file_is_data_error(tmp_path, corpus, capsys):
    root, labels, _ = corpus
    out = tmp_path / "report"
    (out / "report.json").mkdir(parents=True)
    _error_line(capsys, ["evaluate", "--corpus", str(root), "--labels", str(labels),
                         "--top", "1", "--folds", "3", "--out", str(out)], out / "report.json")


def test_non_utf8_table_is_data_error(tmp_path, capsys):
    table = tmp_path / "table.csv"
    table.write_bytes(TABLE_HEADER.encode() + b"READ_SMS\xff,1,1\n")
    line = _error_line(capsys, ["gen", "--table", str(table), "--out", str(tmp_path / "c")],
                       table)
    assert "unknown catalog feature 'READ_SMS\\udcff'" in line


def test_non_utf8_catalog_is_data_error(tmp_path, corpus, capsys):
    catalog = tmp_path / "catalog.json"
    catalog.write_bytes(builtin_catalog().encode().replace(b"READ_SMS", b"READ_\xffSMS", 1))
    line = _error_line(capsys, _argv("extract", corpus, tmp_path / "m.csv",
                                     ["--catalog", str(catalog)]), catalog)
    assert "cannot read catalog" in line and "utf-8" in line


def test_non_utf8_model_is_data_error(tmp_path, corpus, capsys):
    model = tmp_path / "bad-model.json"
    model.write_bytes(corpus[2].read_bytes().replace(b'"chmod"', b'"chm\xffod"'))
    line = _error_line(capsys, ["classify", "--corpus", str(corpus[0]), "--model", str(model),
                                "--out", str(tmp_path / "p.csv")], model)
    assert "cannot read model file" in line


def test_table_with_byte_order_mark(tmp_path, capsys):
    table = tmp_path / "table.csv"
    table.write_bytes(b"\xef\xbb\xbf" + TABLE_HEADER.encode() + b"READ_SMS,1,2\n")
    out = tmp_path / "c"
    assert main(["gen", "--table", str(table), "--benign", "2", "--malware", "2",
                 "--out", str(out)]) == 0
    assert sum("READ_SMS" in p.read_text() for p in out.glob("*/AndroidManifest.xml")) == 3


def test_labels_round_trip_what_csv_writes(tmp_path):
    # A field holding a str.splitlines separator, or a quoted newline, is one id.
    ids = ["a\x1cb", "q\nr"]
    for app_id in ids:
        write_sample(tmp_path, app_id, manifest=manifest_with())
    labels = tmp_path / "labels.csv"
    with open(labels, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows([["app_id", "label"], [ids[0], "benign"], [ids[1], "suspicious"]])
    corpus = load_corpus(tmp_path, labels)
    assert {s.id: s.label for s in corpus} == {
        "a\x1cb": ClassLabel.BENIGN, "q\nr": ClassLabel.SUSPICIOUS}


def test_table_row_with_blank_name_is_not_skipped(tmp_path, capsys):
    # Both CSV inputs skip only rows of no cells or one blank cell.
    table = tmp_path / "table.csv"
    table.write_text(TABLE_HEADER + "\n \nREAD_SMS,1,1\n,5,6\n", encoding="utf-8")
    line = _error_line(capsys, ["gen", "--table", str(table), "--out", str(tmp_path / "c")],
                       table)
    assert line.endswith("line 5: unknown catalog feature ''")


def test_labels_blank_rows_skipped(tmp_path):
    write_sample(tmp_path, "a", manifest=manifest_with())
    labels = tmp_path / "labels.csv"
    labels.write_text("app_id,label\n\n \na,benign\n", encoding="utf-8")
    assert [s.label for s in load_corpus(tmp_path, labels)] == [ClassLabel.BENIGN]


def _input_argv(what, corpus, path, out):
    root = str(corpus[0])
    return {
        "model file": ["classify", "--corpus", root, "--model", str(path), "--out", out],
        "catalog": ["extract", "--corpus", root, "--catalog", str(path), "--out", out],
        "labels file": ["rank", "--corpus", root, "--labels", str(path), "--out", out],
        "table file": ["gen", "--table", str(path), "--out", out],
    }[what]


@pytest.mark.parametrize("what", ["model file", "catalog", "labels file", "table file"])
def test_fifo_input_is_refused_without_blocking(tmp_path, corpus, what):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    argv = _input_argv(what, corpus, fifo, str(tmp_path / "out"))
    # A child process, so that a blocking open fails the test instead of hanging it.
    done = subprocess.run([sys.executable, "-m", "apksift.cli", *argv], capture_output=True,
                          text=True, timeout=10, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert done.returncode == 2
    assert done.stderr.splitlines() == [
        f"apksift: error: cannot read {what} {fifo}: not a regular file"]


@pytest.mark.parametrize("what", ["model file", "catalog", "labels file", "table file"])
def test_input_over_the_cap_is_refused(tmp_path, corpus, capsys, what):
    big = tmp_path / "big"
    with open(big, "wb") as fh:  # sparse: no block is written
        fh.truncate(files.MAX_INPUT_BYTES + 1)
    line = _error_line(capsys, _input_argv(what, corpus, big, str(tmp_path / "out")), big)
    assert line == (f"apksift: error: cannot read {what} {big}: "
                    f"exceeds {files.MAX_INPUT_BYTES} byte cap")
    assert not (tmp_path / "out").exists()


def test_input_that_grows_past_the_cap_during_the_read_is_refused(tmp_path, monkeypatch):
    path = tmp_path / "catalog.json"
    path.write_text("[]" + " " * 9)  # 11 bytes, though fstat says 0
    real = os.fstat

    def stale(fd):
        fields = list(real(fd)[:10])
        fields[6] = 0
        return os.stat_result(fields)

    monkeypatch.setattr(files, "MAX_INPUT_BYTES", 10)
    monkeypatch.setattr(os, "fstat", stale)
    with pytest.raises(CorpusError, match=f"cannot read catalog {path}: exceeds 10 byte cap"):
        files.read_text(path, "catalog", CorpusError)


def test_reading_a_small_input_allocates_by_its_size(tmp_path):
    labels = write_labels(tmp_path, [(f"app{i}", "benign") for i in range(20)])
    tracemalloc.start()
    try:
        rows = files.read_rows(labels, ("app_id", "label"), "labels file", CorpusError)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rows) == 20
    assert peak < 1024 * 1024  # not the 64 MiB cap


@pytest.mark.parametrize("reader", [False, True])
@pytest.mark.parametrize("command", ["extract", "evaluate"])
def test_fifo_output_is_refused_without_blocking(tmp_path, corpus, command, reader):
    root, labels, _ = corpus
    if command == "extract":
        fifo = tmp_path / "matrix.csv"
        argv = ["extract", "--corpus", str(root), "--out", str(fifo)]
    else:
        fifo = tmp_path / "report" / "report.json"
        fifo.parent.mkdir()
        argv = ["evaluate", "--corpus", str(root), "--labels", str(labels), "--top", "1",
                "--folds", "3", "--out", str(fifo.parent)]
    os.mkfifo(fifo)
    # With a reader open, the child's open succeeds and the file type refuses it.
    held = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK) if reader else None
    try:
        # A child process, so that a blocking open fails the test instead of hanging it.
        done = subprocess.run([sys.executable, "-m", "apksift.cli", *argv], capture_output=True,
                              text=True, timeout=10, env={**os.environ, "PYTHONPATH": str(SRC)})
    finally:
        if held is not None:
            os.close(held)
    assert done.returncode == 2
    assert done.stderr.splitlines() == [f"apksift: error: cannot write {fifo}: not a regular file"]
