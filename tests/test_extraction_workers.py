"""Extraction over worker processes: the count never changes an output, a
failed child's share is extracted again in the caller, and no child outlives
``extract_corpus``."""

import csv
import errno
import os
import time

import pytest

from apksift import detectors
from apksift.catalog import load_catalog
from apksift.corpus import load_corpus
from apksift.detectors import extract_corpus, write_matrix_csv, write_stats_csv

from conftest import manifest_with, write_sample

CATALOG_M = load_catalog("builtin", "M")
CAP = 256
WORDS = ["chmod", "getDeviceId", "remount", "JNI_OnLoad", "/system/bin", "sendTextMessage",
         "Runtime.exec(", "DexClassLoader"]
PERMISSIONS = ["READ_SMS", "INTERNET", "SEND_SMS", "CAMERA"]


def _hostile_corpus(root, n=210):
    """``n`` samples whose bits vary with their index, one in seven of each of:
    a link, a FIFO, a truncated manifest, an over-cap file, a directory that
    cannot be listed (see ``_deny_listing``) and payload files."""
    outside = root.parent / "outside.smali"
    outside.write_text("chmod\n", encoding="utf-8")
    for i in range(n):
        words = " ".join(w for j, w in enumerate(WORDS) if i >> j & 1)
        perms = [p for j, p in enumerate(PERMISSIONS) if i >> (j + 2) & 1]
        d = write_sample(root, f"app{i:03d}", manifest=manifest_with(*perms),
                         code={"A.smali": f"    const-string v0, \"{words}\"\n"})
        kind = i % 7
        if kind == 0:
            os.symlink(outside, d / "smali" / "Link.smali")
        elif kind == 1:
            os.mkfifo(d / "smali" / "pipe.smali")
        elif kind == 2:
            (d / "AndroidManifest.xml").write_text(manifest_with(*perms)[:-40], encoding="utf-8")
        elif kind == 3:
            (d / "smali" / "Big.smali").write_text("getSubscriberId\n" + "x" * CAP,
                                                   encoding="utf-8")
        elif kind == 4:
            (d / "smali" / "deny").mkdir()
            (d / "smali" / "deny" / "C.smali").write_text("remount\n", encoding="utf-8")
        elif kind == 5:
            for rel, data in (("assets/p.apk", b"PK"), ("lib/x86/libx.so", b"\0JNI_OnLoad\0"),
                              ("res/raw/r.txt", words.encode())):
                (d / rel).parent.mkdir(parents=True, exist_ok=True)
                (d / rel).write_bytes(data)
    return load_corpus(root)


def _deny_listing(monkeypatch):
    # Permission bits do not stop root, so a directory named "deny" fails to
    # list; forked children inherit the patch.
    real_scandir = os.scandir

    def scandir(path):
        if os.fspath(path).endswith("deny"):
            raise PermissionError(errno.EACCES, "Permission denied", os.fspath(path))
        return real_scandir(path)

    monkeypatch.setattr(os, "scandir", scandir)


def _force_workers(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
    monkeypatch.setattr(detectors, "MIN_SHARE", 1)


def _count_forks(monkeypatch):
    forks, real_fork = [], os.fork

    def fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return forks


def _record(tmp_path, corpus, tag):
    """Matrix bytes, --stats rows with durations masked, warnings and file counts."""
    matrix, stats = extract_corpus(corpus, CATALOG_M, max_file_bytes=CAP)
    matrix_out, stats_out = tmp_path / f"matrix-{tag}.csv", tmp_path / f"stats-{tag}.csv"
    write_matrix_csv(matrix, matrix_out)
    write_stats_csv(stats, stats_out)
    with open(stats_out, encoding="utf-8", newline="") as fh:
        stats_rows = [row[:1] + row[2:] for row in csv.reader(fh)]
    return (matrix_out.read_bytes(), stats_rows, stats.warnings,
            [s.files_scanned for s in stats.per_sample])


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    return _hostile_corpus(tmp_path_factory.mktemp("workers") / "corpus")


def test_worker_count_never_changes_output(tmp_path, corpus, monkeypatch):
    _deny_listing(monkeypatch)
    records = []
    for n in (1, 2, 3):
        _force_workers(monkeypatch, n)
        forks = _count_forks(monkeypatch)
        assert detectors._worker_count(len(corpus.samples), CATALOG_M) == n
        records.append(_record(tmp_path, corpus, n))
        assert len(forks) == n - 1
    assert records[0] == records[1] == records[2]
    warnings = records[0][2]
    for expected in ("(link)", "(not a regular file)", "malformed manifest XML",
                     "byte cap", "cannot list: Permission denied"):
        assert any(expected in w for w in warnings), expected


def test_worker_count_rule(monkeypatch):
    share = detectors.MIN_SHARE
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    assert detectors._worker_count(share * 3 + share - 1, CATALOG_M) == 3
    assert detectors._worker_count(share * 9, CATALOG_M) == 4     # never above the usable CPUs
    assert detectors._worker_count(share * 2 - 1, CATALOG_M) == 1
    assert detectors._worker_count(0, CATALOG_M) == 1
    assert detectors._worker_count(10_000, load_catalog("builtin", "P")) == 1   # walks no file
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})   # pinned to one CPU
    assert detectors._worker_count(10_000, CATALOG_M) == 1
    monkeypatch.delattr(os, "fork")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    assert detectors._worker_count(10_000, CATALOG_M) == 1


@pytest.mark.parametrize("failure", ["raises", "short", "junk"])
def test_failed_child_share_is_extracted_again(tmp_path, corpus, monkeypatch, failure):
    _deny_listing(monkeypatch)
    serial = _record(tmp_path, corpus, "serial")
    real_encode, parent = detectors._encode_share, os.getpid()

    def encode(results):
        assert os.getpid() != parent  # only children encode
        if failure == "raises":
            raise RuntimeError("child failed")
        return real_encode(results)[:-3] if failure == "short" else b"junk"

    monkeypatch.setattr(detectors, "_encode_share", encode)
    _force_workers(monkeypatch, 2)
    forks = _count_forks(monkeypatch)
    assert _record(tmp_path, corpus, "forked") == serial
    assert len(forks) == 1


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_no_child_outlives_a_failed_parent_share(corpus, monkeypatch, error):
    parent, real = os.getpid(), detectors.extract_features

    def extract(sample, *args, **kwargs):
        if os.getpid() != parent:  # a child still running when the parent fails
            time.sleep(10)
            os._exit(3)
        elif sample is corpus.samples[3]:  # the parent is worker 0 of 3
            raise error("parent share failed")
        return real(sample, *args, **kwargs)

    monkeypatch.setattr(detectors, "extract_features", extract)
    _force_workers(monkeypatch, 3)
    forks = _count_forks(monkeypatch)
    started = time.perf_counter()
    with pytest.raises(error, match="parent share failed"):
        extract_corpus(corpus, CATALOG_M)
    assert len(forks) == 2
    assert time.perf_counter() - started < 5
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
