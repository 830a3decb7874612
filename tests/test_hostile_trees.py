"""Property test: extraction over generated hostile sample trees.

Trees mix nested and hidden directories, names that are not valid UTF-8,
file and directory links inside and outside the sample, looping and
dangling links, top-level directories that are links, top-level regular
files named like scope directories, FIFOs and files over the read cap.
For every tree, extraction must not raise, must open and list only
paths under the sample root that reach no link on the way (a link as the
final component of an open is refused by O_NOFOLLOW), must give the same bits,
warnings and file counts whatever order directories list in and from a
forked worker process, and must give the bits of the naive reference
extractor (``reference.py``). A second
property draws the catalog too, so that each scope's features differ.
"""

import dataclasses
import json
import os
import shutil
import tempfile
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from apksift import detectors
from apksift.catalog import builtin_catalog, parse_catalog
from apksift.corpus import load_corpus
from apksift.detectors import extract_corpus, extract_features

from conftest import Listing, manifest_with
from reference import reference_bits

CAP = 512
# The builtin catalog plus a compound pattern in payload scopes, so that
# native libraries (raw bytes) and assets (lines) disagree on split parts.
CATALOG = parse_catalog(json.dumps(json.loads(builtin_catalog()) + [
    {"name": "Runtime+exec(", "kind": "api-call", "pattern": ["Runtime", "exec("],
     "scopes": ["assets", "native-lib"]},
]))

# Multidex code directories, then decoys that hold no scope's files.
TOPS = [b"smali", b"assets", b"lib", b"res", b"other", b"smali_classes2", b"smali_classes10",
        b"smali_classes", b"smali_classes0", b"smali_classes02", b"smali_classes2x", b"Smali"]
DIRS = [b"d", b".hid", b"\xff\xfe", b"n\xc3\xa9"]
LEAVES = [b"A.smali", b".H.smali", b"\xff.smali", b"x.so", b"p.apk", b"t.txt"]
CONTENTS = [b"chmod\n", b"getDeviceId\n", b"Runtime exec(\n", b"\xff\xfe remount\n",
            b"JNI_OnLoad\x00/system/bin\x00", b"Runtime\rexec(\n",
            "Runtime\u2028exec(\n".encode("utf-8")]
KINDS = ["file", "big", "link-in-file", "link-in-dir", "link-up", "link-out-file",
         "link-out-dir", "loop", "dangling", "fifo"]
MANIFESTS = ["file", "absent", "big", "dir", "fifo", "link-out", "link-proc"]

# Drawn catalogs: content patterns from the words of CONTENTS, each on a
# non-empty subset of the scopes content kinds search, and suffixes of
# LEAVES, each on a non-empty subset of the payload scopes.
PATTERNS = ["chmod", "getDeviceId", ["Runtime", "exec("], "remount", "JNI_OnLoad",
            "/system/bin", ["JNI_OnLoad", "/system/bin"]]
SUFFIXES = sorted({os.fsdecode(leaf[leaf.rindex(b"."):]) for leaf in LEAVES})
PAYLOAD = ["assets", "resources", "native-lib"]


def _scopes(names):
    return st.lists(st.sampled_from(names), min_size=1, unique=True)


drawn_catalogs = st.tuples(
    st.lists(st.tuples(st.sampled_from(PATTERNS), _scopes(["code", *PAYLOAD])), max_size=4),
    st.lists(st.tuples(st.sampled_from(SUFFIXES), _scopes(PAYLOAD)), min_size=1, max_size=3),
).map(lambda drawn: parse_catalog(json.dumps(
    [{"name": f"c{i}", "kind": "string-token", "pattern": p, "scopes": s}
     for i, (p, s) in enumerate(drawn[0])]
    + [{"name": f"x{i}", "kind": "payload-extension", "pattern": p, "scopes": s}
       for i, (p, s) in enumerate(drawn[1])])))

nodes = st.lists(
    # About half the nodes are plain files, whose bits the reference checks.
    st.tuples(st.sampled_from(TOPS), st.lists(st.sampled_from(DIRS), max_size=3),
              st.sampled_from(LEAVES), st.one_of(st.just("file"), st.sampled_from(KINDS)),
              st.sampled_from(CONTENTS)),
    max_size=12,
)

# Plain files in the payload scopes, so that each drawn scope set is tested.
payload_files = st.lists(
    st.tuples(st.sampled_from([b"assets", b"lib", b"res"]), st.lists(st.sampled_from(DIRS), max_size=1),
              st.sampled_from(LEAVES), st.just("file"), st.sampled_from(CONTENTS)),
    min_size=1, max_size=4,
)


# Regular files at the sample root named like scope directories: no scope's files.
top_files = st.lists(st.tuples(st.sampled_from(TOPS[:4]), st.sampled_from(CONTENTS)), max_size=2)


def _build(base: bytes, manifest: str, linked_tops, tree, top_files=()) -> bytes:
    outside = os.path.join(base, b"outside")
    os.makedirs(os.path.join(outside, b"dir"))
    with open(os.path.join(outside, b"secret.smali"), "wb") as fh:
        fh.write(b"chmod getDeviceId remount\n")
    with open(os.path.join(outside, b"dir", b"Inner.smali"), "wb") as fh:
        fh.write(b"Runtime exec(\n")
    root = os.path.join(base, b"corpus")
    app = os.path.join(root, b"app")
    os.makedirs(app)
    target = os.path.join(app, b"AndroidManifest.xml")
    if manifest in ("file", "big"):
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(manifest_with(*["READ_SMS"] * (1 if manifest == "file" else 20)))
    elif manifest == "dir":
        os.mkdir(target)
    elif manifest == "fifo":
        os.mkfifo(target)
    elif manifest == "link-out":
        os.symlink(os.path.join(outside, b"secret.smali"), target)
    elif manifest == "link-proc":
        os.symlink(b"/proc/self/mem", target)
    for top in linked_tops:
        if not os.path.lexists(os.path.join(app, top)):
            os.symlink(os.path.join(outside, b"dir"), os.path.join(app, top))
    for top, content in top_files:
        if not os.path.lexists(os.path.join(app, top)):
            with open(os.path.join(app, top), "xb") as fh:
                fh.write(content)
    for top, dirs, leaf, kind, content in tree:
        parent = os.path.join(app, top, *dirs)
        path = os.path.join(parent, leaf)
        try:
            os.makedirs(parent, exist_ok=True)
            if kind == "file":
                with open(path, "xb") as fh:
                    fh.write(content)
            elif kind == "big":
                with open(path, "xb") as fh:
                    fh.write(content * (CAP // len(content) + 1))
            elif kind == "fifo":
                os.mkfifo(path)
            else:
                os.symlink({
                    "link-in-file": os.path.join(app, b"AndroidManifest.xml"),
                    "link-in-dir": os.path.join(app, top),
                    "link-up": b"..",
                    "link-out-file": os.path.join(outside, b"secret.smali"),
                    "link-out-dir": os.path.join(outside, b"dir"),
                    "loop": path,
                    "dangling": os.path.join(base, b"nowhere"),
                }[kind], path)
        except OSError:
            continue  # the path runs through a file, a link or an existing entry
    return root


def _reaches_no_link(root: bytes, path: bytes, final_may_link: bool) -> bool:
    if path != root and not path.startswith(root + b"/"):
        return False
    parts = path[len(root):].split(b"/")[1:]
    checked = parts if not final_may_link else parts[:-1]
    current = root
    for part in checked:
        current = os.path.join(current, part)
        if part in (b"", b".", b"..") or os.path.islink(current):
            return False
    return True


def _extract(sample, listing_order, catalog):
    real_open, real_scandir = os.open, os.scandir
    opened, listed = [], []

    def recording_open(path, flags, *args, **kwargs):
        opened.append((os.fsencode(path), flags))
        return real_open(path, flags, *args, **kwargs)

    def recording_scandir(path):
        listed.append(os.fsencode(path))
        with real_scandir(path) as it:
            return Listing(listing_order(list(it)))

    with mock.patch.object(os, "open", recording_open), \
            mock.patch.object(os, "scandir", recording_scandir):
        row, stats = extract_features(sample, catalog, max_file_bytes=CAP)
    return row, stats, opened, listed


def _check(manifest, linked_tops, tree, catalog, top_files=()):
    base = os.fsencode(tempfile.mkdtemp(prefix="apksift-hostile-"))
    try:
        root = _build(base, manifest, linked_tops, tree, top_files)
        corpus = load_corpus(os.fsdecode(root))
        sample = corpus.samples[0]
        app = os.fsencode(sample.directory)
        forward = _extract(sample, lambda entries: entries, catalog)
        backward = _extract(sample, lambda entries: entries[::-1], catalog)
        for _, _, opened, listed in (forward, backward):
            # A link as the final component is refused by O_NOFOLLOW, not followed.
            assert all(flags & os.O_NOFOLLOW for _, flags in opened), opened
            assert all(_reaches_no_link(app, p, final_may_link=True) for p, _ in opened), opened
            assert all(_reaches_no_link(app, p, final_may_link=False) for p in listed), listed
        assert forward[0] == backward[0]
        assert forward[1].warnings == backward[1].warnings
        assert forward[1].files_scanned == backward[1].files_scanned
        assert list(forward[0]) == reference_bits(str(sample.directory), catalog, CAP)
        # Two workers, each extracting the sample once: the forked child's
        # bits, warnings and counts come back as the calling process's.
        doubled = dataclasses.replace(corpus, samples=corpus.samples * 2)
        with mock.patch.object(os, "sched_getaffinity", lambda pid: {0, 1}), \
                mock.patch.object(detectors, "MIN_SHARE", 1):
            assert detectors._worker_count(2, catalog) == 2
            matrix, stats = extract_corpus(doubled, catalog, max_file_bytes=CAP)
        assert matrix.bits.tobytes() == forward[0] * 2
        assert [s.warnings for s in stats.per_sample] == [forward[1].warnings] * 2
        assert [s.files_scanned for s in stats.per_sample] == [forward[1].files_scanned] * 2
    finally:
        shutil.rmtree(base)


@settings(max_examples=50, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(manifest=st.sampled_from(MANIFESTS), linked_tops=st.lists(st.sampled_from(TOPS), max_size=2),
       top_files=top_files, tree=nodes)
def test_extraction_over_hostile_trees(manifest, linked_tops, top_files, tree):
    _check(manifest, linked_tops, tree, CATALOG, top_files)


@settings(max_examples=50, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(catalog=drawn_catalogs, linked_tops=st.lists(st.sampled_from(TOPS), max_size=2), tree=nodes,
       payloads=payload_files)
def test_extraction_with_drawn_catalogs(catalog, linked_tops, tree, payloads):
    _check("file", linked_tops, payloads + tree, catalog)
