"""
Cross-validated evaluation with ROC/AUC
=======================================

Stratified k-fold evaluation re-ranks and re-trains inside every fold so
the held-out portion never influences feature selection - the fold split
itself is a deterministic function of the sample ids and the seed.
Per-fold metrics are averaged; the test scores of all folds pool into a
single ROC curve whose trapezoidal area equals the Mann-Whitney pair
statistic.

The paper compares five selection sizes on one corpus. Every preset is
evaluated on the same matrix, folds and seed: the first call builds the
fold plan (test rows, training counts, rankings) and keeps it on the
matrix, and the other presets only select, train and score.
"""

import shutil
from pathlib import Path

from apksift.catalog import data_table_path, load_catalog
from apksift.corpus import load_corpus
from apksift.corpusgen import generate, spec_from_table
from apksift.detectors import extract_corpus
from apksift.evaluation import cross_validate, emit_report
from apksift.ranking import PRESETS

out = Path("demo-output/05-evaluate")
if out.exists():
    shutil.rmtree(out)

catalog = load_catalog("builtin", "M")
spec = spec_from_table(data_table_path("table6"), catalog, 1000, 1000, seed=7)
corpus_dir = generate(spec, out / "corpus")
matrix, _ = extract_corpus(load_corpus(corpus_dir.root, corpus_dir.labels), catalog)

report = cross_validate(matrix, preset="15f", alpha=1.0, k=5, seed=42)

print("fold   acc      err      fpr      tpr      precision")
for fold in report.folds:
    m = fold.metrics.as_floats()
    print(f"{fold.fold:4d} {m['acc']:8.4f} {m['err']:8.4f} {m['fpr']:8.4f} "
          f"{m['tpr']:8.4f} {m['precision']:10.4f}")
avg = report.averaged.as_floats()
print(f" avg {avg['acc']:8.4f} {avg['err']:8.4f} {avg['fpr']:8.4f} "
      f"{avg['tpr']:8.4f} {avg['precision']:10.4f}")
print(f"\npooled AUC: {report.roc.auc:.5f} over {len(report.roc.points)} ROC points")

# The synthetic corpus only matches the published corpus marginally (the
# real joint feature structure is unknown), so accuracy here indicates
# the pipeline works - it does not reproduce the published accuracy.

files = emit_report(report, out / "report")
print("report files:")
for path in files:
    print(f"  {path}")

print("\nfive-preset comparison (same matrix, folds and seed; averaged over folds)")
print("preset    acc      fpr      tpr      auc")
for preset in PRESETS:
    compared = cross_validate(matrix, preset=preset, k=5, seed=42)  # shares the 15f call's plan
    m = compared.averaged.as_floats()
    print(f"{preset:6s} {m['acc']:8.4f} {m['fpr']:8.4f} {m['tpr']:8.4f} {compared.roc.auc:8.4f}")
