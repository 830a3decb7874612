"""Frozen output contract: the exact bytes of the deterministic CLI outputs.

A small corpus (the table6 counts divided by 40, 25+25 apps, fixed seed)
goes through ``extract``, ``rank``, ``train`` and ``evaluate --format all``,
and the sha256 of every file written is compared against a frozen digest.
Any change to a matrix, ranking, model or report byte fails here; a
deliberate format change must record new digests and say why.

The predictions CSV of ``classify`` is not pinned here; its posteriors
and scores are checked against oracles in test_classifier.py. The report
is also rebuilt in subprocesses under other string-hash seeds and on one
CPU (extraction in-process where the other runs fork), and must come out
byte-identical; and a five-preset ``evaluate`` writes, per preset, the
bytes of that preset's own run.

A second, hand-built corpus pins extraction itself: matrix bytes, warning
texts and per-scope file counts (see the extraction contract below).
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import apksift
from apksift import detectors
from apksift.catalog import (
    builtin_catalog,
    data_table_path,
    load_catalog,
    parse_catalog,
    subset_catalog,
)
from apksift.cli import main
from apksift.corpus import load_corpus
from apksift.corpusgen import FrequencyEntry, FrequencySpec, generate, spec_from_table
from apksift.detectors import extract_corpus, write_matrix_csv
from apksift.ranking import PRESETS

from conftest import manifest_with, write_sample

DIVISOR = 40
SEED = 5

FROZEN_SHA256 = {
    "matrix.csv": "777b0c2f69d7e6f5e9f92173d59c1c7573ce2174bbfc1552d59422752bb3a01a",
    "rank.csv": "b1e4f8d79156886dd332f80e5bce52429eb2cb884297ff57ee257e0ab3ed7851",
    "model.json": "4119c1d7c846f20b4a2fdfd6eadb86213a072788f1bb11718f601561e268317f",
    "report/report.json": "034b8d92c8f11c3c5bbf22b6b55d828905de8ac0124cc3c2d417b20ff8721346",
    "report/metrics.csv": "17f7c0028a9ebb8ba3717e35754a75b72da1b490a2ec4cd2a202fbacfdee1bf0",
    "report/roc.csv": "181b685d0937697e36f49ddf03646b23f209d2b1eda21396f997486abbd0d2d6",
    "report/roc.svg": "6bce3e05dcc9f21c17a8ef358bbfbf7958162b25890158ea2f2793471eae0aba",
}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    base = tmp_path_factory.mktemp("contract")
    full = spec_from_table(data_table_path("table6"), load_catalog("builtin", "M"))
    spec = FrequencySpec(
        tuple(FrequencyEntry(e.feature, e.benign // DIVISOR, e.malware // DIVISOR)
              for e in full.entries),
        1000 // DIVISOR, 1000 // DIVISOR, SEED,
    )
    g = generate(spec, base / "corpus")
    common = ["--corpus", str(g.root), "--labels", str(g.labels), "--mode", "M"]
    assert main(["extract", *common, "--out", str(base / "matrix.csv")]) == 0
    assert main(["rank", *common, "--out", str(base / "rank.csv")]) == 0
    assert main(["train", *common, "--out", str(base / "model.json")]) == 0
    assert main(["evaluate", *common, "--features", "15f", "--folds", "5",
                 "--seed", str(SEED), "--format", "all", "--out", str(base / "report")]) == 0
    return base


@pytest.mark.parametrize("name", sorted(FROZEN_SHA256))
def test_output_bytes_frozen(outputs, name):
    digest = hashlib.sha256((outputs / name).read_bytes()).hexdigest()
    assert digest == FROZEN_SHA256[name], f"{name} changed"


# Settings under which a run could still differ: the string hash seed (set and
# dict order of str keys) and, since every run extracts with MIN_SHARE 1 so that
# the others fork, one usable CPU, on which extraction runs in-process.
CPU_SETTINGS = (
    {},
    {"PYTHONHASHSEED": "0"},
    {"PYTHONHASHSEED": "4242"},
    {"ONE_CPU": "taskset"},
)
RUN = ("import sys; from apksift import detectors; from apksift.cli import main; "
       "detectors.MIN_SHARE = 1; sys.exit(main(sys.argv[1:]))")


def test_report_bytes_do_not_depend_on_the_cpu(outputs):
    if shutil.which("taskset") is None or not hasattr(os, "sched_getaffinity"):
        pytest.skip("needs taskset")
    one_cpu = ["taskset", "-c", str(min(os.sched_getaffinity(0)))]
    corpus = outputs / "corpus"
    src = str(Path(apksift.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    runs = [
        subprocess.Popen(
            [*(one_cpu if "ONE_CPU" in setting else []), sys.executable, "-c", RUN, "evaluate", "--corpus", str(corpus),
             "--labels", str(corpus / "labels.csv"), "--mode", "M", "--features", "15f",
             "--seed", str(SEED), "--out", str(outputs / f"cpu-{i}")],
            env={**os.environ, **setting, "PYTHONPATH": path},
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )
        for i, setting in enumerate(CPU_SETTINGS)
    ]
    for setting, run in zip(CPU_SETTINGS, runs):
        _, err = run.communicate(timeout=120)
        assert run.returncode == 0, (setting, err.decode())
    expected = {p.name: p.read_bytes() for p in (outputs / "report").iterdir()}
    for i, setting in enumerate(CPU_SETTINGS):
        got = {p.name: p.read_bytes() for p in (outputs / f"cpu-{i}").iterdir()}
        assert got == expected, setting


def test_preset_list_writes_each_preset_as_its_own_run(outputs, monkeypatch, capsys):
    """``evaluate --features 5fT,5fL,10f,15f,20f`` extracts once and writes each
    preset's files to OUT/PRESET/, byte for byte those of ``--features PRESET``."""
    corpus = outputs / "corpus"
    common = ["evaluate", "--corpus", str(corpus), "--labels", str(corpus / "labels.csv"),
              "--mode", "M", "--seed", str(SEED)]
    extract, calls = detectors.extract_corpus, []
    monkeypatch.setattr(detectors, "extract_corpus",
                        lambda *a, **kw: calls.append(a) or extract(*a, **kw))
    assert main([*common, "--features", ",".join(PRESETS), "--out", str(outputs / "all")]) == 0
    assert len(calls) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines[::5]] == list(PRESETS)
    assert sorted(p.name for p in (outputs / "all").iterdir()) == sorted(PRESETS)
    for preset in PRESETS:
        assert main([*common, "--features", preset, "--out", str(outputs / preset)]) == 0
        alone = {p.name: p.read_bytes() for p in (outputs / preset).iterdir()}
        assert {p.name: p.read_bytes() for p in (outputs / "all" / preset).iterdir()} == alone
        assert capsys.readouterr().out.startswith("averaged acc=")
    assert (outputs / "all" / "15f" / "report.json").read_bytes() == (
        outputs / "report" / "report.json").read_bytes()


# --- extraction contract --------------------------------------------------------
#
# A hand-built corpus that exercises every matching path of the detectors:
# nested and hidden code files, ASCII patterns next to invalid UTF-8,
# compound patterns split by line separators, asset/resource text, binary
# native libraries, payload suffixes, missing and truncated manifests, a
# code file over the read cap, and a catalog pattern outside ASCII. The
# matrix bytes, the warning texts in order and each sample's per-scope
# file counts are frozen for the full catalog and for a small subset on
# which early stopping shows in the counts.

EXTRACT_CAP = 4096

NON_ASCII_ENTRIES = [
    {"name": "Schlüssel", "kind": "string-token", "pattern": "Schlüssel",
     "scopes": ["assets", "code"]},
    {"name": "ключ.call", "kind": "api-call", "pattern": ["ключ", "call("],
     "scopes": ["code"]},
]

SUBSET = ("READ_SMS", "chmod", "Runtime.exec", "/system/bin", ".apk", "JNI_OnLoad",
          "Schlüssel")


def _raw(app_dir, rel, data: bytes):
    path = app_dir / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)


def _build_extraction_corpus(root):
    a = write_sample(root, "app-a", manifest=manifest_with("READ_SMS", "INTERNET"), code={
        "com/x/y/Deep.smali": "invoke-virtual {v0}, getDeviceId\n",
        ".hidden/H.smali": "const-string v1, \"/system/bin/sh\"\n",
        ".Dot.smali": "invoke-static Ldalvik/system/DexClassLoader;-><init>\n",
        "Same.smali": "invoke-virtual {v0}, Ljava/lang/Runtime;->exec(Ljava/lang/String;)\n",
        "U.smali": "ключ.call(x)\n",
    })
    _raw(a, "smali/Bad.smali", b"\xff\xfe junk \xe2\x82chmod 777\n\xc0\xafremount\n")
    _raw(a, "assets/cfg.txt", b"su -c 'ls -l x'\nSchl\xc3\xbcssel=1\n")
    _raw(a, "res/values/strings.xml", b"<string>content://sms/inbox</string>\n")
    _raw(a, "lib/x86/libnat.so",
         b"\x7fELF\x02\x01\x01\x00" + bytes(range(256)) + b"JNI_OnLoad\x00/system/xbin\x00")
    _raw(a, "assets/payload.apk", b"PK\x03\x04")
    _raw(a, "res/raw/extra.jar", b"PK\x03\x04")

    b = write_sample(root, "app-b", manifest=manifest_with("SEND_SMS"), code={
        "A.smali": "Runtime\rexec(\n",
        "B.smali": "Runtime\u2028exec( ключ\u2029call(\n",
        "C.smali": "getRuntime()\n",
    })
    _raw(b, "smali/D.smali", b"\xd0\xba\xd0\xbb\xd1\x8e\xd1 call(\n")
    _raw(b, "res/layout/main.xml", b"SMSReceiver getprop\n")
    _raw(b, "other/notes.txt", b"chown sendTextMessage\n")

    c = write_sample(root, "app-c", code={"M.smali": "getSimSerialNumber\n"})
    _raw(c, "smali/Big.smali", b"getSubscriberId\n" + b"x" * EXTRACT_CAP)
    _raw(c, "assets/boot.sh", b"mount -o remount /system\r\nSchl\xfcssel\n")
    _raw(c, "lib/armeabi/libc.so", b"\x00\x01insmod /data/local/tmp\x00")

    d = write_sample(root, "app-d", code={"Z.smali": "Cipher\n"})
    _raw(d, "AndroidManifest.xml",
         b'<?xml version="1.0"?>\n<manifest xmlns:android="http://schemas.android.com/'
         b'apk/res/android">\n  <uses-permission android:name="android.permission.CAMERA"/>\n'
         b'  <uses-permission android:name="android.permission.REA')
    _raw(d, "assets/lib/inner.jar", b"")

    write_sample(root, "app-e", manifest=manifest_with(), code={
        "A.smali": "chmod Runtime.exec( /system/bin JNI_OnLoad Schlüssel\n",
        "B.smali": "getDeviceId\n",
    })
    _raw(root / "app-e", "assets/x.txt", b"remount\n")
    return root


def _extraction_record(root, catalog):
    matrix, stats = extract_corpus(load_corpus(root), catalog, max_file_bytes=EXTRACT_CAP)
    out = root.parent / f"matrix-{len(catalog)}.csv"
    write_matrix_csv(matrix, out)
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    scanned = {s.sample_id: s.files_scanned for s in stats.per_sample}
    return digest, stats.warnings, scanned


@pytest.fixture(scope="module")
def extraction_catalogs():
    entries = json.loads(builtin_catalog()) + NON_ASCII_ENTRIES
    full = parse_catalog(json.dumps(entries, ensure_ascii=False), "M")
    return {"full": full, "subset": subset_catalog(full, SUBSET)}


def _scanned(manifest, code, assets, resources, native_lib):
    return {"manifest": manifest, "code": code, "assets": assets, "resources": resources,
            "native-lib": native_lib, "other": 0}


FROZEN_EXTRACTION = {
    "full": (
        "f7a3056b23965256dc2ecf1bea42355686d35b7429fc275ac30d94f3c1462343",
        {
            "app-a": _scanned(1, 6, 2, 2, 1),
            "app-b": _scanned(1, 4, 0, 1, 0),
            "app-c": _scanned(0, 1, 1, 0, 1),
            "app-d": _scanned(1, 1, 1, 0, 0),
            "app-e": _scanned(1, 2, 1, 0, 0),
        },
    ),
    "subset": (
        "d64087b44af69a0194261f84c16c43bfcf1255893a01c3a7db99b5f75e8beaa0",
        {
            "app-a": _scanned(1, 6, 2, 0, 1),
            "app-b": _scanned(1, 4, 0, 0, 0),
            "app-c": _scanned(0, 1, 1, 0, 1),
            "app-d": _scanned(1, 1, 1, 0, 0),
            "app-e": _scanned(1, 1, 0, 0, 0),
        },
    ),
}

FROZEN_WARNINGS = [
    "app-c: manifest missing; permission features zeroed",
    f"app-c: skipped smali/Big.smali (exceeds {EXTRACT_CAP} byte cap)",
    "app-d: malformed manifest XML (unclosed token: line 4, column 2); "
    "fell back to attribute scan",
]


@pytest.mark.parametrize("label", sorted(FROZEN_EXTRACTION))
def test_extraction_frozen(tmp_path, extraction_catalogs, label):
    root = _build_extraction_corpus(tmp_path / "corpus")
    digest, warnings, scanned = _extraction_record(root, extraction_catalogs[label])
    assert digest == FROZEN_EXTRACTION[label][0], "matrix.csv changed"
    assert warnings == FROZEN_WARNINGS
    assert scanned == FROZEN_EXTRACTION[label][1]
