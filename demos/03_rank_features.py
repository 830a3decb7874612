"""
Ranking features by mutual information
======================================

Each feature is scored by the mutual information (in bits) between its
indicator and the class label, estimated from the per-class contingency
counts. Features shared equally by both classes score zero; features
concentrated in one class score high. Reproducing the published mixed
ranking takes nothing more than regenerating its corpus and ranking it.
"""

import shutil
from pathlib import Path

from apksift.catalog import data_table_path, load_catalog
from apksift.corpus import load_corpus
from apksift.corpusgen import generate, spec_from_table
from apksift.detectors import extract_corpus
from apksift.ranking import build_contingency, mutual_information, rank_features, select_top

out = Path("demo-output/03-rank")
if out.exists():
    shutil.rmtree(out)

catalog = load_catalog("builtin", "M")
spec = spec_from_table(data_table_path("table6"), catalog, 1000, 1000, seed=7)
corpus_dir = generate(spec, out / "corpus")
corpus = load_corpus(corpus_dir.root, corpus_dir.labels)
matrix, _ = extract_corpus(corpus, catalog)

tables = build_contingency(matrix)
ranked = rank_features(tables)

print("rank  feature                        benign  malware   infogain")
for pos, r in enumerate(ranked[:15], start=1):
    print(f"{pos:4d}  {r.name:30s} {r.benign_count:6d} {r.malware_count:8d}   {r.score:.5f}")

# A feature present equally often in both classes carries no information:
from apksift.ranking import ContingencyTable

balanced = ContingencyTable("balanced", n_pos_sus=300, n_pos_ben=300, n_sus=1000, n_ben=1000)
print(f"\nbalanced 300/300 feature scores {mutual_information(balanced):.6f} bits")

# Selection presets name slices of the ranking: 5fT is the top five,
# 5fL the 16th-20th, and 10f/15f/20f the obvious prefixes.
for preset in ("5fT", "5fL", "15f"):
    names = select_top(ranked, preset=preset).names
    print(f"{preset}: {', '.join(names[:5])}{' ...' if len(names) > 5 else ''}")
