"""apksift: static-analysis triage for decoded app packages.

Scans decoded package trees for binary permission and code-property
features, ranks features by mutual information with the class label,
trains a Bernoulli naive-Bayes classifier, and evaluates it with
stratified cross-validation, a full metric suite, and ROC/AUC. A
deterministic synthetic-corpus generator reproduces published per-class
feature frequencies exactly for testing and benchmarking.
"""

from .catalog import FeatureCatalog, FeatureDef, load_catalog, builtin_catalog
from .classifier import (
    Prediction,
    TrainedModel,
    classify,
    load_model,
    posterior_matrix,
    save_model,
    train,
)
from .corpus import (
    AppSample,
    ClassLabel,
    Corpus,
    Scope,
    enumerate_code_units,
    enumerate_payload_files,
    load_corpus,
    read_manifest,
)
from .corpusgen import FrequencySpec, GeneratedCorpus, generate, spec_from_table
from .detectors import (
    ExtractionStats,
    FeatureMatrix,
    extract_corpus,
    extract_features,
)
from .errors import ApkSiftError
from .evaluation import (
    ConfusionCounts,
    EvalReport,
    MetricSet,
    RocCurve,
    confusion,
    cross_validate,
    emit_report,
    metrics,
    roc,
    stratified_kfold,
)
from .ranking import (
    ContingencyTable,
    FeatureSelection,
    RankedFeature,
    build_contingency,
    mutual_information,
    rank_features,
    select_top,
)

__version__ = "0.1.0"

__all__ = [
    "ApkSiftError",
    "AppSample",
    "ClassLabel",
    "ConfusionCounts",
    "ContingencyTable",
    "Corpus",
    "EvalReport",
    "ExtractionStats",
    "FeatureCatalog",
    "FeatureDef",
    "FeatureMatrix",
    "FeatureSelection",
    "FrequencySpec",
    "GeneratedCorpus",
    "MetricSet",
    "Prediction",
    "RankedFeature",
    "RocCurve",
    "Scope",
    "TrainedModel",
    "build_contingency",
    "builtin_catalog",
    "classify",
    "confusion",
    "cross_validate",
    "emit_report",
    "enumerate_code_units",
    "enumerate_payload_files",
    "extract_corpus",
    "extract_features",
    "generate",
    "load_catalog",
    "load_corpus",
    "load_model",
    "metrics",
    "mutual_information",
    "posterior_matrix",
    "rank_features",
    "read_manifest",
    "roc",
    "save_model",
    "select_top",
    "spec_from_table",
    "stratified_kfold",
    "train",
]
