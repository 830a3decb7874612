"""Detector engine: run a catalog over samples to build binary feature vectors.

Matching contracts, per feature kind:

* permission        - exact match of a ``<uses-permission>`` element's
                      ``android:name`` attribute against
                      ``android.permission.<NAME>`` in the manifest.
                      Malformed XML falls back to an attribute-string
                      scan of the raw text (recorded as a warning).
* api-call, string-token, system-command, shell-path, intent-action
                    - case-sensitive literal substring of a single line
                      of file text in the feature's scopes; compound
                      patterns require every part on the same line.
                      Native-lib files are searched as raw bytes.
* payload-extension - file path suffix match over assets/res/lib files.

A feature is present (bit 1) as soon as one file in one of its scopes
matches; repeated hits do not count again, and scanning for a feature
stops at its first match.
"""

from __future__ import annotations

import csv
import re
import time
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .catalog import CONTENT_KINDS, FeatureCatalog
from .corpus import (
    DEFAULT_MAX_FILE_BYTES,
    AppSample,
    ClassLabel,
    Corpus,
    ManifestMissing,
    Scope,
    enumerate_code_units,
    enumerate_payload_files,
    read_manifest,
)
from .errors import CorpusError

_ANDROID_NS = "http://schemas.android.com/apk/res/android"
_NAME_ATTR_RE = re.compile(r'android:name\s*=\s*"([^"]*)"')


@dataclass(frozen=True)
class FeatureVector:
    """Ordered binary indicators for one sample, in catalog index order."""

    sample_id: str
    names: tuple[str, ...]
    bits: np.ndarray

    def __post_init__(self):
        if len(self.bits) != len(self.names):
            raise ValueError("bit count does not match feature count")

    def as_dict(self) -> dict[str, int]:
        return {n: int(b) for n, b in zip(self.names, self.bits)}


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

    @property
    def total_duration_ms(self) -> float:
        return sum(s.duration_ms for s in self.per_sample)

    @property
    def mean_duration_ms(self) -> float:
        return self.total_duration_ms / len(self.per_sample) if self.per_sample else 0.0

    @property
    def warnings(self) -> list[str]:
        return [w for s in self.per_sample for w in s.warnings]


@dataclass(frozen=True)
class FeatureMatrix:
    """Per-sample vectors stacked in corpus order, with labels attached."""

    ids: tuple[str, ...]
    labels: tuple[ClassLabel | None, ...]
    feature_names: tuple[str, ...]
    bits: np.ndarray  # shape (n_samples, n_features), dtype uint8
    mode: str | None = None

    def __len__(self) -> int:
        return len(self.ids)

    def column(self, name: str) -> np.ndarray:
        return self.bits[:, self.feature_names.index(name)]

    def vector(self, row: int) -> FeatureVector:
        return FeatureVector(self.ids[row], self.feature_names, self.bits[row])


def declared_permissions(manifest_text: str) -> tuple[set[str], list[str]]:
    """Attribute values of all uses-permission elements, plus warnings.

    Well-formed XML is parsed properly (comments don't count); malformed
    documents degrade to a regex scan over android:name attributes.
    """
    try:
        root = ET.fromstring(manifest_text)
    except ET.ParseError as exc:
        names = set(_NAME_ATTR_RE.findall(manifest_text))
        return names, [f"malformed manifest XML ({exc}); fell back to attribute scan"]
    names = set()
    for elem in root.iter():
        if elem.tag.split("}")[-1] != "uses-permission":
            continue
        value = elem.get(f"{{{_ANDROID_NS}}}name") or elem.get("android:name")
        if value:
            names.add(value)
    return names, []


def _matches_text(text: str, parts: tuple[str, ...]) -> bool:
    # Patterns never contain newlines, so a single-part hit anywhere in
    # the text is already a single-line hit; compound patterns need a
    # per-line pass only after all parts are known to be present.
    if not all(p in text for p in parts):
        return False
    if len(parts) == 1:
        return True
    return any(all(p in line for p in parts) for line in text.splitlines())


def _matches_bytes(data: bytes, parts: tuple[str, ...]) -> bool:
    return all(p.encode("utf-8") in data for p in parts)


def _read_capped(path: Path, cap: int, rel: str, sample_id: str,
                 warnings: list[str]) -> bytes | None:
    try:
        if path.stat().st_size > cap:
            warnings.append(f"{sample_id}: skipped {rel} (exceeds {cap} byte cap)")
            return None
        return path.read_bytes()
    except OSError as exc:
        warnings.append(f"{sample_id}: unreadable file {rel}: {exc}")
        return None


def extract_features(
    sample: AppSample,
    catalog: FeatureCatalog,
    max_file_bytes: int = DEFAULT_MAX_FILE_BYTES,
) -> tuple[FeatureVector, SampleStats]:
    """Run every catalog detector over one sample.

    Files of a scope are read only while some feature still searches that
    scope, and each feature stops at its first match, so a permission-only
    catalog never touches code or payload files.
    """
    start = time.perf_counter()
    warnings: list[str] = []
    scanned = {s.value: 0 for s in Scope}
    bits = np.zeros(len(catalog), dtype=np.uint8)

    perm_defs = [d for d in catalog if d.kind == "permission"]
    if perm_defs:
        try:
            manifest = read_manifest(sample)
        except ManifestMissing:
            warnings.append(f"{sample.id}: manifest missing; permission features zeroed")
        else:
            scanned[Scope.MANIFEST.value] += 1
            declared, manifest_warnings = declared_permissions(manifest)
            warnings.extend(f"{sample.id}: {w}" for w in manifest_warnings)
            for d in perm_defs:
                if d.permission_name in declared:
                    bits[d.index] = 1

    pending_code = [d for d in catalog if d.kind in CONTENT_KINDS and Scope.CODE in d.scopes]
    if pending_code:
        for rel in enumerate_code_units(sample, warnings):
            if not pending_code:
                break
            data = _read_capped(sample.path_of(rel), max_file_bytes, rel, sample.id, warnings)
            if data is None:
                continue
            scanned[Scope.CODE.value] += 1
            text = data.decode("utf-8", errors="replace")
            for d in pending_code[:]:
                if _matches_text(text, d.pattern):
                    bits[d.index] = 1
                    pending_code.remove(d)

    payload_defs = [d for d in catalog if d.kind == "payload-extension"]
    content_defs = [
        d for d in catalog
        if d.kind in CONTENT_KINDS and not bits[d.index]
        and d.scopes & {Scope.ASSETS, Scope.RESOURCES, Scope.NATIVE_LIB}
    ]
    if payload_defs or content_defs:
        for rel, scope in enumerate_payload_files(sample):
            for d in payload_defs[:]:
                if scope in d.scopes and rel.endswith(d.pattern[0]):
                    bits[d.index] = 1
                    payload_defs.remove(d)
            pending_here = [d for d in content_defs if scope in d.scopes]
            if not pending_here:
                continue
            data = _read_capped(sample.path_of(rel), max_file_bytes, rel, sample.id, warnings)
            if data is None:
                continue
            scanned[scope.value] += 1
            if scope is Scope.NATIVE_LIB:
                for d in pending_here:
                    if _matches_bytes(data, d.pattern):
                        bits[d.index] = 1
                        content_defs.remove(d)
            else:
                text = data.decode("utf-8", errors="replace")
                for d in pending_here:
                    if _matches_text(text, d.pattern):
                        bits[d.index] = 1
                        content_defs.remove(d)

    duration_ms = (time.perf_counter() - start) * 1000.0
    vector = FeatureVector(sample.id, catalog.names, bits)
    stats = SampleStats(sample.id, duration_ms, scanned, warnings)
    return vector, stats


def extract_corpus(
    corpus: Corpus,
    catalog: FeatureCatalog,
    max_file_bytes: int = DEFAULT_MAX_FILE_BYTES,
) -> tuple[FeatureMatrix, ExtractionStats]:
    """Extract every sample, in corpus order."""
    if len(catalog) == 0:
        raise CorpusError("cannot extract with an empty catalog")

    results = [extract_features(s, catalog, max_file_bytes) for s in corpus.samples]

    bits = (
        np.stack([v.bits for v, _ in results])
        if results
        else np.zeros((0, len(catalog)), dtype=np.uint8)
    )
    matrix = FeatureMatrix(
        ids=tuple(s.id for s in corpus.samples),
        labels=tuple(s.label for s in corpus.samples),
        feature_names=catalog.names,
        bits=bits,
        mode=catalog.mode,
    )
    return matrix, ExtractionStats(per_sample=[st for _, st in results])


def write_matrix_csv(matrix: FeatureMatrix, path: Path | str) -> None:
    """Vector matrix file: header ``app_id,label,<feature names>``, LF endings."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["app_id", "label", *matrix.feature_names])
        for i, app_id in enumerate(matrix.ids):
            label = matrix.labels[i].value if matrix.labels[i] is not None else ""
            writer.writerow([app_id, label, *matrix.bits[i].tolist()])


def write_stats_csv(stats: ExtractionStats, path: Path | str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["app_id", "duration_ms", "files_scanned", "warnings"])
        for s in stats.per_sample:
            writer.writerow([s.sample_id, f"{s.duration_ms:.3f}", s.total_files, len(s.warnings)])
