"""Detector engine: run a catalog over samples to build binary feature rows.

Matching contracts, per feature kind:

* permission        - exact match of a ``<uses-permission>`` or
                      ``<uses-permission-sdk-23>`` element's
                      ``android:name`` attribute against
                      ``android.permission.<NAME>`` in the manifest,
                      scanned by expat without a tree. Malformed XML falls
                      back to an attribute-string scan of the raw text,
                      warned with the stdlib etree parser's error text.
* api-call, string-token, system-command, shell-path, intent-action
                    - case-sensitive literal substring of a single line
                      of file text in the feature's scopes; compound
                      patterns require every part on the same line.
                      Native-lib files are searched as raw bytes.
* payload-extension - file path suffix match over assets/res/lib files.

A feature is present (bit 1) as soon as one file in one of its scopes
matches; repeated hits do not count again, and scanning for a feature
stops at its first match.

File text is the file's bytes decoded as UTF-8 with invalid sequences
replaced. A single-part pattern that is all ASCII is searched for in the
raw bytes instead, which gives the same answer: an ASCII byte never
occurs inside a multi-byte UTF-8 sequence, and replacement turns only
non-ASCII bytes into U+FFFD, never dropping, merging or producing an
ASCII character. A file is decoded at most once, and only while a
compound or non-ASCII pattern is still pending for it.

The line rule and byte forms of a pattern live on ``catalog.FeatureDef``
and each scope's features in the catalog's ``plan``. One scan loop runs
the code walk, then the payload walk, each only while some feature that
searches one of its scopes is unset, and takes a scope's features once
per run of same-scope files. Files are read only through
``AppSample.read``: each link, special file or file over
``max_file_bytes`` (the manifest too) is skipped with a warning.

``extract_corpus`` splits a corpus by stride over one process per usable
CPU (``os.sched_getaffinity``), each taking at least ``MIN_SHARE``
samples: the calling process extracts samples 0, n, 2n, ... itself and
forked children the other strides, each sending its rows and stats back
over a pipe. The results are put back in corpus order, so every output
is the same whatever the count. A catalog that walks no files (only
permissions: a manifest parse costs little more than its fork and
transfer), a platform without ``os.fork`` or ``os.sched_getaffinity``, or
a process pinned to one CPU extracts in-process. The count follows the
affinity mask, not a cgroup CPU quota. A child that fails or sends a bad
result has its share extracted again in the caller, and no child
outlives the call.
"""

from __future__ import annotations

import contextlib
import functools
import marshal
import os
import re
import signal
import time
from dataclasses import dataclass, field
from pathlib import Path
from xml.parsers import expat

from . import files
from .catalog import FeatureCatalog, FeatureDef
from .corpus import (
    DEFAULT_MAX_FILE_BYTES,
    AppSample,
    ClassLabel,
    Corpus,
    Scope,
    enumerate_code_units,
    enumerate_payload_files,
    read_manifest,
)
from .errors import CorpusError, ManifestMissing

_NAME_KEY = "http://schemas.android.com/apk/res/android}name"
_PERMISSION_TAGS = ("uses-permission", "uses-permission-sdk-23")
_NS_PERMISSION_TAGS = tuple("}" + tag for tag in _PERMISSION_TAGS)
_NAME_ATTR_RE = re.compile(r'android:name\s*=\s*"([^"]*)"')
_NO_FILES = dict.fromkeys((s.value for s in Scope), 0)
_MANIFEST = Scope.MANIFEST.value
_LABEL_TEXT = {None: "", **{label: label.value for label in ClassLabel}}
_BIT_TEXT = bytes.maketrans(b"\x00\x01", b"01")

#: The fewest samples a worker process is started for. A second process
#: pays when its share s satisfies s * (c - t) > F: fork + reap F is
#: 1.4-2.6 ms, transfer t is 1.4-2.5 us a sample, and extraction c is
#: 22-30 us a sample for a manifest parse alone (mode P, a lower bound for
#: any sample) and 300-365 us for bulk-code's mode M (2-vCPU x86-64,
#: Python 3.11). So a share breaks even at 63-119 samples at worst.
MIN_SHARE = 128


@dataclass
class SampleStats:
    sample_id: str
    duration_ms: float
    files_scanned: dict[str, int]
    warnings: list[str] = field(default_factory=list)

    @property
    def total_files(self) -> int:
        return sum(self.files_scanned.values())


@dataclass
class ExtractionStats:
    """Aggregate timing and warning record for a corpus extraction."""

    per_sample: list[SampleStats]
    wall_ms: float = 0.0  # elapsed time of the whole extraction

    @property
    def total_duration_ms(self) -> float:
        return sum(s.duration_ms for s in self.per_sample)

    @property
    def warnings(self) -> list[str]:
        return [w for s in self.per_sample for w in s.warnings]


@dataclass(frozen=True)
class FeatureMatrix:
    """Per-sample rows (one 0/1 byte per feature) in corpus order, with labels attached.
    ``row_ints`` and the fold plans are computed once: never mutate a matrix."""

    ids: tuple[str, ...]
    labels: tuple[ClassLabel | None, ...]
    feature_names: tuple[str, ...]
    rows: tuple[bytes, ...]
    mode: str | None = None

    def __len__(self) -> int:
        return len(self.ids)

    @functools.cached_property
    def row_ints(self) -> list[int]:
        """Each row read as one integer, its first feature the high byte; computed once."""
        return [int.from_bytes(row, "big") for row in self.rows]

    @functools.cached_property
    def fold_plans(self) -> dict:
        """``evaluation.cross_validate``'s fold plans, keyed by (k, seed)."""
        return {}

    @property
    def bits(self):
        """The rows as a read-only uint8 numpy array, built on each access (needs numpy)."""
        import numpy as np
        bits = np.frombuffer(b"".join(self.rows), np.uint8)
        return bits.reshape(len(self), len(self.feature_names))


def declared_permissions(manifest_text: str) -> tuple[set[str], list[str]]:
    """Names of all uses-permission and uses-permission-sdk-23 elements, plus warnings.

    Well-formed XML is parsed properly (comments don't count); malformed
    documents degrade to a regex scan over android:name attributes. As in
    etree, after a DOCTYPE each entity reference expat leaves unexpanded
    (undefined, or external) makes the document malformed. Names are
    namespace-expanded: an ``android:`` prefix bound to another URI names
    nothing, and an unbound one is malformed XML.
    """
    names = set()

    def start(tag, attrs):
        if tag in _PERMISSION_TAGS or tag.endswith(_NS_PERMISSION_TAGS):  # "uri}local"
            name = attrs.get(_NAME_KEY)
            if name:
                names.add(name)

    def doctype(*_):
        parser.CharacterDataHandler = lambda data: None  # keeps "&amp;" etc. from `unexpanded`
        parser.DefaultHandlerExpand = unexpanded

    def unexpanded(text):  # etree's message keeps the reference's first 100 bytes
        if text[:1] == "&":
            ref = text.encode()[:100].decode(errors="replace")
            raise expat.ExpatError(f"undefined entity {ref}: line {parser.ErrorLineNumber}, "
                                   f"column {parser.ErrorColumnNumber}")

    parser = expat.ParserCreate(namespace_separator="}")
    parser.StartElementHandler, parser.StartDoctypeDeclHandler = start, doctype
    try:
        parser.Parse(manifest_text, True)
    except expat.ExpatError as exc:
        names = set(_NAME_ATTR_RE.findall(manifest_text))
        return names, [f"malformed manifest XML ({exc}); fell back to attribute scan"]
    finally:
        del parser  # parser -> doctype -> parser: without this the parser waits for the cycle GC
    return names, []


def _hits(data: bytes, scope: Scope, pending: list[FeatureDef]) -> list[FeatureDef]:
    """The pending features whose pattern occurs in one file of ``scope``.

    A native library is raw bytes: every part may occur anywhere. Any
    other file is text: ASCII needles match on the bytes, and the file is
    decoded at most once, only when a feature without a needle is reached.
    """
    if scope is Scope.NATIVE_LIB:
        return [d for d in pending if all(p in data for p in d.encoded)]
    hits, text = [], None
    for d in pending:
        if d.needle is not None:
            hit = d.needle in data
        else:
            if text is None:
                text = data.decode("utf-8", errors="replace")
            hit = d.on_one_line(text)
        if hit:
            hits.append(d)
    return hits


def extract_features(
    sample: AppSample,
    catalog: FeatureCatalog,
    max_file_bytes: int = DEFAULT_MAX_FILE_BYTES,
) -> tuple[bytes, SampleStats]:
    """Run every catalog detector over one sample: one 0/1 byte per catalog feature.

    Files of a scope are read only while some feature still searches that
    scope, and each feature stops at its first match, so a permission-only
    catalog never touches code or payload files.
    """
    start = time.perf_counter()
    plan = catalog.plan
    warnings: list[str] = []
    scanned = _NO_FILES.copy()
    bits = bytearray(len(catalog.defs))

    if plan.permissions:
        try:
            manifest = read_manifest(sample, max_file_bytes)
        except ManifestMissing:
            warnings.append(f"{sample.id}: manifest missing; permission features zeroed")
        except CorpusError as exc:
            warnings.append(f"{sample.id}: {exc}; permission features zeroed")
        else:
            scanned[_MANIFEST] += 1
            declared, manifest_warnings = declared_permissions(manifest)
            for w in manifest_warnings:
                warnings.append(f"{sample.id}: {w}")
            for name in declared:
                for i in plan.permissions.get(name, ()):
                    bits[i] = 1

    # The walks are module globals read per call: stage timing wraps them by name.
    for walk, watched in zip((enumerate_code_units, enumerate_payload_files), plan.watched):
        if all(map(bits.__getitem__, watched)):
            continue
        scope = None
        for rel, in_scope in walk(sample, warnings):
            if in_scope is not scope:
                scope, key, suffixes = in_scope, in_scope.value, plan.suffixes[in_scope]
                pending = [d for d in plan.content[scope] if not bits[d.index]]
            for d in suffixes:
                if rel.endswith(d.pattern[0]):
                    bits[d.index] = 1
            if not pending:
                continue
            data = sample.read(rel, max_file_bytes, warnings)
            if data is None:
                continue
            scanned[key] += 1
            hits = _hits(data, scope, pending)
            for d in hits:
                bits[d.index] = 1
            if hits:
                pending = [d for d in pending if not bits[d.index]]

    duration_ms = (time.perf_counter() - start) * 1000.0
    return bytes(bits), SampleStats(sample.id, duration_ms, scanned, warnings)


def extract_corpus(
    corpus: Corpus,
    catalog: FeatureCatalog,
    max_file_bytes: int = DEFAULT_MAX_FILE_BYTES,
) -> tuple[FeatureMatrix, ExtractionStats]:
    """Extract every sample, in corpus order, on up to one process per usable CPU."""
    if len(catalog) == 0:
        raise CorpusError("cannot extract with an empty catalog")

    start = time.perf_counter()
    results = _map_samples(corpus.samples, catalog, max_file_bytes)
    wall_ms = (time.perf_counter() - start) * 1000.0
    matrix = FeatureMatrix(
        ids=tuple(s.id for s in corpus.samples),
        labels=tuple(s.label for s in corpus.samples),
        feature_names=catalog.names,
        rows=tuple(row for row, _ in results),
        mode=catalog.mode,
    )
    return matrix, ExtractionStats(per_sample=[st for _, st in results], wall_ms=wall_ms)


def _worker_count(n_samples: int, catalog: FeatureCatalog) -> int:
    """Processes to extract with: one per usable CPU, each with ``MIN_SHARE``
    samples or more; one if the catalog walks no files or the platform cannot fork.

    A catalog that walks no files stays in-process: on 2 usable CPUs,
    forking cut wide-manifest command times by 10-16% (medians) while both
    CPUs were free, but raised them by 16-24% while the two gave one CPU's
    time, and took 18-25% more CPU time either way."""
    if not any(catalog.plan.watched) or not (hasattr(os, "fork")
                                             and hasattr(os, "sched_getaffinity")):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), n_samples // MIN_SHARE))


def _map_samples(samples, catalog: FeatureCatalog, max_file_bytes: int) -> list:
    """``extract_features`` of each sample, in order: worker ``w`` of ``n`` takes
    ``samples[w::n]``, this process is worker 0 and forks the others."""
    n = _worker_count(len(samples), catalog)
    results = [None] * len(samples)
    children = {}  # worker -> (pid, read end of its pipe), until reaped
    try:
        for w in range(1, n):
            if (child := _fork_share(samples[w::n], catalog, max_file_bytes)) is not None:
                children[w] = child
        results[0::n] = _extract_share(samples[0::n], catalog, max_file_bytes)
        for w in range(1, n):
            share, got = samples[w::n], None
            if w in children:
                pid, fd = children[w]
                blob = _read_to_eof(fd)
                _, status = os.waitpid(pid, 0)
                del children[w]
                os.close(fd)
                if status == 0:
                    got = _decode_share(blob, share, len(catalog))
            results[w::n] = got if got is not None else _extract_share(share, catalog,
                                                                        max_file_bytes)
    finally:
        for pid, fd in children.values():
            with contextlib.suppress(OSError):
                os.kill(pid, signal.SIGKILL)
            with contextlib.suppress(OSError):
                os.waitpid(pid, 0)
            os.close(fd)
    return results


def _extract_share(samples, catalog: FeatureCatalog, max_file_bytes: int) -> list:
    # extract_features is read per call: per-sample timing wraps it by name.
    return [extract_features(s, catalog, max_file_bytes) for s in samples]


def _fork_share(samples, catalog: FeatureCatalog, max_file_bytes: int):
    """(pid, read end) of a child that writes the encoded share to a pipe and
    exits 0, or exits non-zero; None if no child could be started."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        return None
    if pid == 0:  # the child never returns
        status = 1
        try:
            os.close(r)
            blob = memoryview(_encode_share(_extract_share(samples, catalog, max_file_bytes)))
            while blob:
                blob = blob[os.write(w, blob):]
            status = 0
        finally:
            os._exit(status)
    os.close(w)
    return pid, r


def _read_to_eof(fd: int) -> bytes:
    chunks = []
    while chunk := os.read(fd, 1 << 16):
        chunks.append(chunk)
    return b"".join(chunks)


def _encode_share(results) -> bytes:
    """Plain values, not dataclasses: the rows joined, then each sample's
    duration, file counts and warnings."""
    return marshal.dumps((b"".join(row for row, _ in results),
                          [(st.duration_ms, st.files_scanned, st.warnings) for _, st in results]))


def _decode_share(blob: bytes, samples, row_len: int) -> list | None:
    """The (row, stats) of each of ``samples`` from a child's blob; None if the
    blob is short, undecodable or of another share's shape."""
    try:
        rows, stats = marshal.loads(blob)
        if len(rows) != len(samples) * row_len or len(stats) != len(samples):
            return None
        return [(rows[i * row_len:(i + 1) * row_len], SampleStats(s.id, *st))
                for i, (s, st) in enumerate(zip(samples, stats))]
    except (EOFError, ValueError, TypeError):
        return None


def write_matrix_csv(matrix: FeatureMatrix, path: Path | str) -> None:
    """Matrix file: header ``app_id,label,<feature names>``, 0/1 cells, LF endings."""
    heads = zip(matrix.ids, map(_LABEL_TEXT.__getitem__, matrix.labels))
    files.write_csv(path, ["app_id", "label", *matrix.feature_names], heads, CorpusError,
                    _cell_runs(matrix.rows, len(matrix.feature_names)))


def _cell_runs(rows, width: int):
    """Text of each row's 0/1 cells, each cell led by its comma (cells must be 0/1)."""
    run = bytearray(b",0" * width)
    for row in rows:
        run[1::2] = row
        yield run.translate(_BIT_TEXT).decode("ascii")


def write_stats_csv(stats: ExtractionStats, path: Path | str) -> None:
    rows = ([s.sample_id, f"{s.duration_ms:.3f}", s.total_files, len(s.warnings)]
            for s in stats.per_sample)
    files.write_csv(path, ["app_id", "duration_ms", "files_scanned", "warnings"], rows, CorpusError)
