"""
Extraction-time comparison across feature settings
==================================================

Feature selection pays off at extraction time, not only in accuracy:
permission vectors need nothing but the manifest, while code properties
walk every code and asset file. Timing the same corpus under different
catalog settings reproduces that qualitative ordering (the published
measurements ran hundreds of real apps; this demo generates a padded
synthetic corpus, so only the ordering is meaningful, never the
absolute times).
"""

import shutil
import time
from pathlib import Path

from apksift.catalog import data_table_path, load_catalog, subset_catalog
from apksift.corpus import load_corpus
from apksift.corpusgen import FrequencyEntry, FrequencySpec, generate, spec_from_table
from apksift.detectors import extract_corpus
from apksift.ranking import build_contingency, rank_features, select_top

out = Path("demo-output/06-bench")
if out.exists():
    shutil.rmtree(out)

full = load_catalog("builtin", "M")
scaled = spec_from_table(data_table_path("table6"), full, 1000, 1000, seed=5)
entries = tuple(FrequencyEntry(e.feature, e.benign // 4, e.malware // 4)
                for e in scaled.entries)
# pad_lines gives every code file realistic bulk so scanning dominates
corpus_dir = generate(FrequencySpec(entries, 250, 250, seed=5), out / "corpus",
                      pad_lines=600)
corpus = load_corpus(corpus_dir.root, corpus_dir.labels)


def timed(catalog):
    started = time.perf_counter()
    matrix, _ = extract_corpus(corpus, catalog)
    return matrix, time.perf_counter() - started


# Rank once on the full catalog to know the top 25 mixed features.
matrix_full, _ = timed(full)
ranked = rank_features(build_contingency(matrix_full))
top25 = subset_catalog(full, select_top(ranked, n=25).names)

print(f"{len(corpus)} apps, code files padded to ~600 lines\n")
print("attributes setting                     features   time")
for label, catalog in (
    ("25 top mixed attributes", top25),
    ("permissions only", load_catalog("builtin", "P")),
    ("code properties only", load_catalog("builtin", "C")),
    ("all permissions and code properties", full),
):
    _, seconds = timed(catalog)
    print(f"{label:38s} {len(catalog):8d} {seconds:6.3f} s")

print("\npermissions-only stays cheap because no code or asset file is ever")
print("opened; the full catalog pays for scanning every file per feature.")
