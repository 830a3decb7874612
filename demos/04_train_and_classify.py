"""
Training and scoring the Bernoulli naive-Bayes model
====================================================

The model keeps a prior per class and, for every selected feature, the
smoothed probability of seeing that feature in each class. Scoring a
sample multiplies the per-feature likelihoods (in log space) and
normalizes, yielding the posterior probability that the sample is
suspicious. The model file stores only integer counts plus the smoothing
value, so persistence is exact.
"""

import shutil
from pathlib import Path

from apksift.catalog import data_table_path, load_catalog
from apksift.classifier import classify, load_model, posterior, save_model, train
from apksift.corpus import ClassLabel, load_corpus
from apksift.corpusgen import generate, spec_from_table
from apksift.detectors import extract_corpus
from apksift.ranking import build_contingency, rank_features, select_top

out = Path("demo-output/04-train")
if out.exists():
    shutil.rmtree(out)

catalog = load_catalog("builtin", "M")
spec = spec_from_table(data_table_path("table6"), catalog, 1000, 1000, seed=7)
corpus_dir = generate(spec, out / "corpus")
matrix, _ = extract_corpus(load_corpus(corpus_dir.root, corpus_dir.labels), catalog)

ranked = rank_features(build_contingency(matrix))
selection = select_top(ranked, preset="15f")
model = train(matrix, selection, alpha=1.0)

print("selected features:", ", ".join(selection.names[:6]), "...")
print(f"priors: benign={model.priors[0]:.3f} suspicious={model.priors[1]:.3f}")
theta_sus = model.theta(ClassLabel.SUSPICIOUS)
theta_ben = model.theta(ClassLabel.BENIGN)
print("\nfeature                 P(1|suspicious)  P(1|benign)")
for name, ts, tb in list(zip(model.feature_names, theta_sus, theta_ben))[:6]:
    print(f"{name:22s} {ts:15.4f} {tb:12.4f}")

# Score a few held-in samples; the posterior drives the decision, with
# ties at the threshold resolved toward suspicious.
for row in (0, 1, 1000, 1001):
    pred = classify(model, matrix.vector(row))
    truth = matrix.labels[row].value
    print(f"{pred.sample_id}: posterior={pred.posterior:.4f} "
          f"decision={pred.decision.value:10s} (truth: {truth})")

# Round-tripping through JSON preserves posteriors bit for bit because
# only counts are stored, never floats.
model_path = out / "model.json"
save_model(model, model_path)
reloaded = load_model(model_path)
vec = matrix.vector(0)
assert posterior(reloaded, vec) == posterior(model, vec)
print(f"\nmodel file {model_path} round-trips exactly")
