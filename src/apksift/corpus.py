"""Corpus loading: labeled app samples backed by decoded package trees.

On-disk contract (one directory per app under the corpus root):

    <root>/<app-id>/AndroidManifest.xml   decoded UTF-8 XML
    <root>/<app-id>/smali/**/*.smali      disassembled code, one class per file
    <root>/<app-id>/assets/**             bundled asset payloads
    <root>/<app-id>/res/**                resources
    <root>/<app-id>/lib/**                native libraries

Labels come from a sidecar CSV (``app_id,label`` header, label one of
``benign``/``suspicious``); directories absent from the CSV load as
unlabeled samples. All iteration orders are byte-wise path sorts so
results never depend on platform directory-listing order.
"""

from __future__ import annotations

import csv
import enum
import errno
import os
from dataclasses import dataclass, field
from pathlib import Path

from .errors import CorpusError, ManifestMissing

MANIFEST_NAME = "AndroidManifest.xml"

_IGNORED_ERRNOS = (errno.ENOENT, errno.ENOTDIR, errno.EBADF, errno.ELOOP)

#: Default per-file read cap; larger files are skipped with a warning.
DEFAULT_MAX_FILE_BYTES = 16 * 1024 * 1024


class ClassLabel(enum.Enum):
    BENIGN = "benign"
    SUSPICIOUS = "suspicious"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class Scope(enum.Enum):
    """Where a member file lives inside a sample tree."""

    MANIFEST = "manifest"
    CODE = "code"
    ASSETS = "assets"
    RESOURCES = "resources"
    NATIVE_LIB = "native-lib"
    OTHER = "other"


#: Scopes holding secondary payload material (everything but manifest/code).
PAYLOAD_SCOPES = (Scope.ASSETS, Scope.RESOURCES, Scope.NATIVE_LIB)


def scope_of(relative_path: str) -> Scope:
    """Map a corpus-relative member path to its scope by path prefix."""
    if relative_path == MANIFEST_NAME:
        return Scope.MANIFEST
    head = relative_path.split("/", 1)[0]
    return {
        "smali": Scope.CODE,
        "assets": Scope.ASSETS,
        "res": Scope.RESOURCES,
        "lib": Scope.NATIVE_LIB,
    }.get(head, Scope.OTHER)


def _is_file(entry: os.DirEntry) -> bool:
    # As Path.is_file: a missing, looping or dangling link target is not
    # a file; any other stat error propagates.
    try:
        return entry.is_file()
    except OSError as exc:
        if exc.errno in _IGNORED_ERRNOS:
            return False
        raise


def _sorted_paths(paths: list[str]) -> list[str]:
    # Byte-wise sort of the UTF-8 path, not locale or codepoint order.
    return sorted(paths, key=lambda p: p.encode("utf-8"))


@dataclass(frozen=True)
class AppSample:
    """One application: a directory of decoded artifacts plus its label."""

    id: str
    label: ClassLabel | None
    directory: Path

    def member_files(self) -> list[tuple[str, Scope]]:
        """All member files as (relative path, scope), byte-sorted by path.

        The walk keeps ``Path.rglob("*")`` rules: it descends only into
        real directories (never through a link), lists every entry that
        ``is_file()`` (so a link to a file counts), and silently skips a
        directory it may not list or that is gone. An explicit stack
        replaces recursion, so no tree is too deep to walk.
        """
        rels = []
        stack = [(self.directory, "")]
        while stack:
            directory, prefix = stack.pop()
            try:
                with os.scandir(directory) as it:
                    entries = list(it)
            except OSError as exc:
                if isinstance(exc, PermissionError) or exc.errno in _IGNORED_ERRNOS:
                    continue
                raise
            for entry in entries:
                rel = prefix + entry.name
                if entry.is_dir(follow_symlinks=False):
                    stack.append((entry.path, rel + "/"))
                elif _is_file(entry):
                    rels.append(rel)
        return [(rel, scope_of(rel)) for rel in _sorted_paths(rels)]

    def path_of(self, relative_path: str) -> Path:
        return self.directory / relative_path


@dataclass(frozen=True)
class Corpus:
    samples: tuple[AppSample, ...]
    root: Path
    label_counts: dict = field(compare=False)

    def __len__(self) -> int:
        return len(self.samples)

    def __iter__(self):
        return iter(self.samples)

    def labeled(self) -> list[AppSample]:
        return [s for s in self.samples if s.label is not None]


def _read_labels(labels_path: Path) -> dict[str, ClassLabel]:
    try:
        text = labels_path.read_text(encoding="utf-8")
    except OSError as exc:
        raise CorpusError(f"cannot read labels file {labels_path}: {exc}") from exc
    reader = csv.reader(text.splitlines())
    rows = list(reader)
    if not rows:
        return {}
    header = [h.strip() for h in rows[0]]
    if header[:2] != ["app_id", "label"]:
        raise CorpusError(
            f"labels file {labels_path} must start with header 'app_id,label', got {rows[0]!r}"
        )
    labels: dict[str, ClassLabel] = {}
    for lineno, row in enumerate(rows[1:], start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) < 2:
            raise CorpusError(f"labels file line {lineno}: expected 'app_id,label', got {row!r}")
        app_id, label_text = row[0].strip(), row[1].strip()
        try:
            label = ClassLabel(label_text)
        except ValueError:
            raise CorpusError(
                f"labels file line {lineno}: unknown label {label_text!r} "
                f"(expected 'benign' or 'suspicious')"
            ) from None
        if app_id in labels:
            raise CorpusError(f"labels file line {lineno}: duplicate app id {app_id!r}")
        labels[app_id] = label
    return labels


def load_corpus(root: Path | str, labels: Path | str | None = None) -> Corpus:
    """Load every app directory under ``root``, attaching labels from the CSV.

    Samples are ordered by id (byte-wise). Label rows that name a missing
    directory are an error; directories missing from the label file are
    kept as unlabeled samples.
    """
    root = Path(root)
    if not root.is_dir():
        raise CorpusError(f"corpus root {root} does not exist or is not a directory")
    label_map = _read_labels(Path(labels)) if labels is not None else {}

    dir_ids = _sorted_paths([p.name for p in root.iterdir() if p.is_dir()])
    present = set(dir_ids)
    missing = [app_id for app_id in label_map if app_id not in present]
    if missing:
        raise CorpusError(
            "label rows reference missing app directories: " + ", ".join(sorted(missing))
        )

    samples = tuple(
        AppSample(id=app_id, label=label_map.get(app_id), directory=root / app_id)
        for app_id in dir_ids
    )
    counts = {
        "benign": sum(1 for s in samples if s.label is ClassLabel.BENIGN),
        "suspicious": sum(1 for s in samples if s.label is ClassLabel.SUSPICIOUS),
        "unlabeled": sum(1 for s in samples if s.label is None),
    }
    return Corpus(samples=samples, root=root, label_counts=counts)


def read_manifest(sample: AppSample) -> str:
    """Return the decoded manifest text verbatim.

    Raises ManifestMissing when absent; callers decide whether that is
    fatal (permission analysis degrades gracefully, per the detectors).
    """
    path = sample.path_of(MANIFEST_NAME)
    if not path.is_file():
        raise ManifestMissing(sample.id)
    return path.read_text(encoding="utf-8", errors="replace")


def enumerate_code_units(sample: AppSample, warnings: list[str] | None = None) -> list[str]:
    """Relative paths of all code-scope files, byte-sorted.

    Files that cannot be opened are skipped with a recorded warning
    rather than failing the sample.
    """
    paths = []
    for rel, scope in sample.member_files():
        if scope is not Scope.CODE:
            continue
        full = sample.path_of(rel)
        try:
            with open(full, "rb"):
                pass
        except OSError as exc:
            if warnings is not None:
                warnings.append(f"{sample.id}: unreadable code unit {rel}: {exc}")
            continue
        paths.append(rel)
    return paths


def enumerate_payload_files(sample: AppSample) -> list[tuple[str, Scope]]:
    """(relative path, scope) for assets/resources/native-lib files, byte-sorted."""
    return [(rel, scope) for rel, scope in sample.member_files() if scope in PAYLOAD_SCOPES]
