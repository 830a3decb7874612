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
from pathlib import Path

from apksift.catalog import data_table_path, load_catalog
from apksift.cli import time_extraction_settings
from apksift.corpus import load_corpus
from apksift.corpusgen import FrequencyEntry, FrequencySpec, generate, spec_from_table

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

# The full catalog is extracted and ranked once first, to know the top 25
# mixed features; then each setting is timed.
print(f"{len(corpus)} apps, code files padded to ~600 lines\n")
print("attributes setting                     features   time")
for label, n_features, seconds in time_extraction_settings(corpus):
    print(f"{label:38s} {n_features:8d} {seconds:6.3f} s")

print("\npermissions-only stays cheap because no code or asset file is ever")
print("opened; the full catalog pays for scanning every file per feature.")
