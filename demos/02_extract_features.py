"""
Extracting binary feature vectors
=================================

Every app maps to a vector of 0/1 indicators, one per catalog feature:
permissions are exact matches of uses-permission declarations in the
manifest, code properties are literal substring hits in smali lines (or
asset text, or native-library bytes), and payload features are file
extension matches under assets/res/lib. Presence is binary: a token
found ten times still contributes a single 1.
"""

import shutil
from pathlib import Path

from apksift.catalog import load_catalog
from apksift.corpus import load_corpus
from apksift.corpusgen import FrequencyEntry, FrequencySpec, generate
from apksift.detectors import extract_corpus, write_matrix_csv

out = Path("demo-output/02-extract")
if out.exists():
    shutil.rmtree(out)

catalog = load_catalog("builtin", "M")
print(f"catalog: {len(catalog)} features "
      f"(permissions + code properties; modes P/C/M select subsets)")

spec = FrequencySpec(
    (
        FrequencyEntry(catalog.by_name("READ_SMS"), 2, 16),
        FrequencyEntry(catalog.by_name("chmod"), 1, 12),
        FrequencyEntry(catalog.by_name(".apk"), 3, 10),
        FrequencyEntry(catalog.by_name("Runtime.exec"), 0, 8),
    ),
    n_benign=20, n_suspicious=20, seed=1,
)
corpus_dir = generate(spec, out / "corpus")
corpus = load_corpus(corpus_dir.root, corpus_dir.labels)

# Extraction maps each sample to its bits independently, in corpus order.
matrix, stats = extract_corpus(corpus, catalog)
print(f"matrix: {len(matrix)} samples x {len(matrix.feature_names)} features")
print(f"extraction: {stats.total_duration_ms:.1f} ms total, "
      f"{stats.mean_duration_ms:.2f} ms per sample, {len(stats.warnings)} warnings")

# Column sums recover the planted frequencies exactly.
for name in ("READ_SMS", "chmod", ".apk", "Runtime.exec"):
    col = matrix.column(name)
    print(f"  {name:14s} set in {int(col.sum())} of {len(matrix)} samples")

write_matrix_csv(matrix, out / "matrix.csv")
print(f"\nwrote {out / 'matrix.csv'} (header: app_id,label,<feature names...>)")
