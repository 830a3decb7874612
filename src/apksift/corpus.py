"""Corpus loading: labeled app samples backed by decoded package trees.

On-disk contract (one directory per app under the corpus root):

    <root>/<app-id>/AndroidManifest.xml   decoded UTF-8 XML
    <root>/<app-id>/smali/**/*.smali      disassembled code, one class per file
    <root>/<app-id>/smali_classes<N>/**   code of dex file N (N = 2, 3, ...)
    <root>/<app-id>/assets/**             bundled asset payloads
    <root>/<app-id>/res/**                resources
    <root>/<app-id>/lib/**                native libraries

Labels come from a sidecar CSV (``app_id,label`` header, label one of
``benign``/``suspicious``, an optional UTF-8 BOM); directories absent
from the CSV load as unlabeled samples. All iteration orders are sorts by
the raw bytes of the path, so results never depend on platform
directory-listing order, and names need not be valid UTF-8. Every tree is
hostile: one walk that never follows a link lists a sample's files,
skipping links, FIFOs, sockets and devices with a warning, and one capped
reader reads them, the manifest included (members through ``AppSample.read``).
``AppSample.directory`` is a plain ``str`` path (root joined with the id).
"""

from __future__ import annotations

import enum
import os
import re
import stat
from dataclasses import dataclass, field
from operator import methodcaller
from pathlib import Path

from . import files
from .errors import CorpusError, ManifestMissing

MANIFEST_NAME = "AndroidManifest.xml"

#: Default per-file read cap; larger files are skipped with a warning.
DEFAULT_MAX_FILE_BYTES = 16 * 1024 * 1024

# A final link fails the open (ELOOP) and a FIFO opens without a writer.
_OPEN_FLAGS = os.O_RDONLY | getattr(os, "O_NOFOLLOW", 0) | getattr(os, "O_NONBLOCK", 0)


class ClassLabel(enum.Enum):
    BENIGN = "benign"
    SUSPICIOUS = "suspicious"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


_LABELS = {label.value: label for label in ClassLabel}

#: The labels as module globals, for code that tests them row by row: on
#: Python 3.11 each ``ClassLabel.X`` costs an enum class-attribute lookup,
#: several times a global's.
BENIGN, SUSPICIOUS = ClassLabel.BENIGN, ClassLabel.SUSPICIOUS


class Scope(enum.Enum):
    """Where a member file lives inside a sample tree."""

    MANIFEST = "manifest"
    CODE = "code"
    ASSETS = "assets"
    RESOURCES = "resources"
    NATIVE_LIB = "native-lib"
    OTHER = "other"


#: The map from a sample's top-level directory to the scope of its files;
#: ``top_scope`` adds the multidex code directories.
TOP_SCOPES = {"smali": Scope.CODE, "assets": Scope.ASSETS, "res": Scope.RESOURCES,
              "lib": Scope.NATIVE_LIB}

# dex files 2, 3, ... of a multidex app: N >= 2, decimal, no leading zero
_MULTIDEX = re.compile(r"smali_classes(?:[2-9]|[1-9][0-9]+)")


def top_scope(name: str) -> Scope | None:
    """The scope of a top-level directory name, None if it holds no scope's files."""
    return TOP_SCOPES.get(name) or (Scope.CODE if _MULTIDEX.fullmatch(name) else None)


#: Scopes holding secondary payload material (everything but manifest/code).
PAYLOAD_SCOPES = tuple(s for s in TOP_SCOPES.values() if s is not Scope.CODE)


def scope_of(relative_path: str) -> Scope:
    """Map a corpus-relative member path to its scope by path prefix (a root
    file named like a scope directory is in none)."""
    if relative_path == MANIFEST_NAME:
        return Scope.MANIFEST
    top, sep, _ = relative_path.partition("/")
    return (top_scope(top) or Scope.OTHER) if sep else Scope.OTHER


#: Sort key of sample ids and member paths: the raw bytes of the name.
PATH_KEY = methodcaller("encode", "utf-8", "surrogateescape")


def _read_capped(path: str, cap: int) -> bytes | None:
    """Bytes of the regular file (never a final link) at ``path``; None above ``cap``."""
    fd = os.open(path, _OPEN_FLAGS)
    try:
        info = os.fstat(fd)
        if not stat.S_ISREG(info.st_mode):
            raise OSError("not a regular file")
        if info.st_size > cap:
            return None
        data = os.read(fd, info.st_size + 1)
    finally:
        os.close(fd)
    if len(data) != info.st_size:
        raise OSError("size changed during read")
    return data


@dataclass(frozen=True)
class AppSample:
    """One application: a directory of decoded artifacts plus its label."""

    id: str
    label: ClassLabel | None
    directory: str

    def member_files(self, scopes: tuple[Scope, ...],
                     warnings: list[str] | None = None) -> list[tuple[str, Scope]]:
        """Byte-sorted (relative path, scope) of the regular files in ``scopes``.

        Descends only into real directories: a top-level entry of a scope's
        name that is not one (a link, a file) lists nothing. Any other entry,
        and any directory it cannot list, is skipped with a warning, sorted by path.
        """
        found, skipped = [], []
        stack = [(self.directory, "", None)]
        while stack:
            directory, prefix, scope = stack.pop()
            try:
                with os.scandir(directory) as it:
                    entries = [e for e in it if prefix or top_scope(e.name) in scopes]
            except OSError as exc:
                skipped.append((prefix.rstrip("/") or ".", f"cannot list: {exc.strerror or exc}"))
                continue
            for entry in entries:
                rel = prefix + entry.name
                if entry.is_dir(follow_symlinks=False):
                    stack.append((entry.path, rel + "/", scope or top_scope(entry.name)))
                elif prefix and entry.is_file(follow_symlinks=False):
                    found.append((rel, scope))
                elif entry.is_symlink():
                    skipped.append((rel, "link"))
                else:  # at the top, no non-directory holds a scope's files
                    skipped.append((rel, "not a regular file" if prefix else "not a directory"))
        if warnings is not None:
            skipped.sort(key=lambda item: PATH_KEY(item[0]))
            warnings.extend(f"{self.id}: skipped {rel} ({why})" for rel, why in skipped)
        return sorted(found, key=lambda item: PATH_KEY(item[0]))

    def read(self, rel: str, cap: int, warnings: list[str]) -> bytes | None:
        """Bytes of member ``rel`` from the capped reader; None, with a warning, if refused."""
        try:
            data = _read_capped(os.path.join(self.directory, rel), cap)
        except OSError as exc:
            warnings.append(f"{self.id}: unreadable file {rel}: {exc.strerror or exc}")
            return None
        if data is None:
            warnings.append(f"{self.id}: skipped {rel} (exceeds {cap} byte cap)")
        return data


@dataclass(frozen=True)
class Corpus:
    samples: tuple[AppSample, ...]
    root: Path
    label_counts: dict = field(compare=False)
    warnings: tuple[str, ...] = field(default=(), compare=False)

    def __len__(self) -> int:
        return len(self.samples)

    def __iter__(self):
        return iter(self.samples)


def _read_labels(path: Path) -> dict[str, ClassLabel]:
    labels: dict[str, ClassLabel] = {}
    where = f"labels file {path} line"
    for lineno, row in files.read_rows(path, ("app_id", "label"), "labels file", CorpusError):
        if len(row) < 2:
            raise CorpusError(f"{where} {lineno}: expected 'app_id,label', got {row!r}")
        app_id, label_text = row[0], row[1].strip()  # ids are compared as written
        label = _LABELS.get(label_text)
        if label is None:
            raise CorpusError(
                f"{where} {lineno}: unknown label {label_text!r} "
                f"(expected 'benign' or 'suspicious')"
            )
        if app_id in labels:
            raise CorpusError(f"{where} {lineno}: duplicate app id {app_id!r}")
        labels[app_id] = label
    return labels


def load_corpus(root: Path | str, labels: Path | str | None = None) -> Corpus:
    """Load every app directory under ``root``, attaching labels from the CSV.

    Samples are ordered by id (byte-wise). Only real directories are
    samples: each link at the root is skipped with a warning, and other
    entries (such as the label file) are ignored. Label rows that name a
    missing directory are an error; directories missing from the label
    file are kept as unlabeled samples.
    """
    root = Path(root)
    if not root.is_dir():
        raise CorpusError(f"corpus root {root} does not exist or is not a directory")
    label_map = _read_labels(Path(labels)) if labels is not None else {}

    with os.scandir(root) as it:
        entries = sorted(it, key=lambda e: PATH_KEY(e.name))
    base = os.path.join(root, "")
    samples, warnings = [], []
    counts = {"benign": 0, "suspicious": 0, "unlabeled": 0}
    for e in entries:
        if e.is_dir(follow_symlinks=False):
            label = label_map.get(e.name)
            counts["unlabeled" if label is None else label.value] += 1
            samples.append(AppSample(e.name, label, base + e.name))
        elif e.is_symlink():
            warnings.append(f"{e.name}: skipped corpus entry (link)")
    if counts["benign"] + counts["suspicious"] != len(label_map):
        present = {s.id for s in samples}
        raise CorpusError("label rows reference missing app directories: "
                          + ", ".join(sorted(i for i in label_map if i not in present)))
    return Corpus(samples=tuple(samples), root=root, label_counts=counts, warnings=tuple(warnings))


def read_manifest(sample: AppSample, max_file_bytes: int = DEFAULT_MAX_FILE_BYTES) -> str:
    """Return the decoded manifest text verbatim.

    Raises ManifestMissing when absent and CorpusError when the capped reader
    refuses it (a link, a special file or over ``max_file_bytes``).
    """
    try:
        data = _read_capped(os.path.join(sample.directory, MANIFEST_NAME), max_file_bytes)
    except FileNotFoundError:
        raise ManifestMissing(sample.id) from None
    except OSError as exc:
        raise CorpusError(f"manifest unreadable ({exc.strerror or exc})") from exc
    if data is None:
        raise CorpusError(f"manifest exceeds {max_file_bytes} byte cap")
    return data.decode("utf-8", errors="replace")


def enumerate_code_units(sample: AppSample,
                         warnings: list[str] | None = None) -> list[tuple[str, Scope]]:
    """(relative path, ``Scope.CODE``) of every code file, byte-sorted; skips are warned."""
    return sample.member_files((Scope.CODE,), warnings)


def enumerate_payload_files(sample: AppSample,
                            warnings: list[str] | None = None) -> list[tuple[str, Scope]]:
    """(relative path, scope) for assets/resources/native-lib files, byte-sorted."""
    return sample.member_files(PAYLOAD_SCOPES, warnings)
