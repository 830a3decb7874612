"""Benchmark workloads: corpus shapes built with ``corpusgen.generate``.

The benchmark may reshape a generated tree (truncated manifests) without
changing any feature bit, and keeps its own record of the per-class
feature counts the tree must yield. Those counts are the reference the
output checks compare against.
"""

from __future__ import annotations

import csv
import os
import random
import time
from dataclasses import dataclass
from pathlib import Path

from apksift import corpusgen
from apksift.catalog import data_table_path


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    table: str            # shipped frequency table the counts come from
    divisor: int          # table counts are divided by this (integer division)
    n_benign: int
    n_suspicious: int
    mode: str             # catalog mode every command runs with
    pad_lines: int = 0    # inert filler lines corpusgen appends to each code file
    truncated_share: float = 0.0  # share of apps whose manifest loses its closing tag


# Why each workload exists is part of its definition; BENCHMARK.json repeats it.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="bulk-code",
            why="500 apps, one 600-line code file each, mode M: content matching "
                "dominates; the baseline shape of the acceptance ordering test",
            table="table6", divisor=4, n_benign=250, n_suspicious=250,
            mode="M", pad_lines=600,
        ),
        Workload(
            name="wide-manifest",
            why="2000 apps, 30 permissions, mode P, 2% truncated manifests: loading, "
                "manifest parse, CSV, scoring and CV; code work is never done",
            table="table4", divisor=1, n_benign=1000, n_suspicious=1000,
            mode="P", truncated_share=0.02,
        ),
    )
}


@dataclass(frozen=True)
class Built:
    """A generated corpus and what its extraction must yield."""

    root: Path
    labels: Path
    counts: dict          # feature name -> (benign count, suspicious count)
    truncated: int        # manifests truncated on purpose (one warning each)
    files_written: int    # files written by corpusgen.generate itself
    bytes_written: int


def reference_counts(workload: Workload, catalog) -> dict[str, tuple[int, int]]:
    """Per-class counts of every catalog feature, read from the table itself."""
    counts = {name: (0, 0) for name in catalog.names}
    with open(data_table_path(workload.table), encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            counts[row["feature"]] = (
                int(row["benign_count"]) // workload.divisor,
                int(row["malware_count"]) // workload.divisor,
            )
    return counts


def _truncate_manifests(root: Path, workload: Workload, seed: int) -> int:
    """Drop the closing tag of a seeded share of manifests.

    The XML parse then fails and extraction falls back to its attribute
    scan, which recovers the same permission names and records a warning.
    """
    apps = sorted(p.name for p in root.iterdir() if p.is_dir())
    chosen = random.Random(seed).sample(apps, round(len(apps) * workload.truncated_share))
    for app in chosen:
        path = root / app / "AndroidManifest.xml"
        text = path.read_text(encoding="utf-8")
        cut = text.rindex("</manifest>")
        path.write_text(text[:cut], encoding="utf-8")
    return len(chosen)


def tree_totals(root: Path) -> tuple[int, int]:
    """(file count, byte count) of every regular file under ``root``."""
    files = size = 0
    for dirpath, _, names in os.walk(root):
        for name in names:
            files += 1
            size += os.path.getsize(os.path.join(dirpath, name))
    return files, size


def build(workload: Workload, seed: int, out: Path, catalog, count_written: bool = False):
    """Generate and shape one corpus; returns (Built, seconds spent).

    The seconds cover exactly what ``setup_s`` means: spec construction,
    ``corpusgen.generate`` and the shape post-processing. Counting what
    corpusgen wrote, when asked, walks the tree outside that time.
    """
    counts = reference_counts(workload, catalog)
    started = time.perf_counter()
    spec = corpusgen.spec_from_table(
        data_table_path(workload.table), catalog,
        workload.n_benign * workload.divisor, workload.n_suspicious * workload.divisor, seed,
    )
    entries = tuple(
        corpusgen.FrequencyEntry(e.feature, e.benign // workload.divisor,
                                 e.malware // workload.divisor)
        for e in spec.entries
    )
    generated = corpusgen.generate(
        corpusgen.FrequencySpec(entries, workload.n_benign, workload.n_suspicious, seed),
        out, pad_lines=workload.pad_lines,
    )
    elapsed = time.perf_counter() - started
    files_written, bytes_written = tree_totals(generated.root) if count_written else (0, 0)
    started = time.perf_counter()
    truncated = _truncate_manifests(generated.root, workload, seed) if workload.truncated_share else 0
    elapsed += time.perf_counter() - started
    built = Built(generated.root, generated.labels, counts, truncated,
                  files_written, bytes_written)
    return built, elapsed
