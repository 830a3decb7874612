"""Frozen output contract: the exact bytes of the deterministic CLI outputs.

A small corpus (the table6 counts divided by 40, 25+25 apps, fixed seed)
goes through ``extract``, ``rank``, ``train`` and ``evaluate --format all``,
and the sha256 of every file written is compared against a frozen digest.
Any change to a matrix, ranking, model or report byte fails here; a
deliberate format change must record new digests and say why.

The predictions CSV of ``classify`` is not pinned here; its posteriors
and scores are checked against oracles in test_classifier.py.
"""

import hashlib

import pytest

from apksift.catalog import data_table_path, load_catalog
from apksift.cli import main
from apksift.corpusgen import FrequencyEntry, FrequencySpec, generate, spec_from_table

DIVISOR = 40
SEED = 5

FROZEN_SHA256 = {
    "matrix.csv": "777b0c2f69d7e6f5e9f92173d59c1c7573ce2174bbfc1552d59422752bb3a01a",
    "rank.csv": "b1e4f8d79156886dd332f80e5bce52429eb2cb884297ff57ee257e0ab3ed7851",
    "model.json": "4119c1d7c846f20b4a2fdfd6eadb86213a072788f1bb11718f601561e268317f",
    "report/report.json": "0525c4cbb076e86fcbd7d8a1e5aa7ea6d76049bd4ca04757480e17a1646227cf",
    "report/metrics.csv": "17f7c0028a9ebb8ba3717e35754a75b72da1b490a2ec4cd2a202fbacfdee1bf0",
    "report/roc.csv": "f2c47d5a83300e46343d85d934630e57efabaff8bd3649cb7177c32ecb90249f",
    "report/roc.svg": "6bce3e05dcc9f21c17a8ef358bbfbf7958162b25890158ea2f2793471eae0aba",
}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    base = tmp_path_factory.mktemp("contract")
    full = spec_from_table(data_table_path("table6"), load_catalog("builtin", "M"))
    spec = FrequencySpec(
        tuple(FrequencyEntry(e.feature, e.benign // DIVISOR, e.malware // DIVISOR)
              for e in full.entries),
        1000 // DIVISOR, 1000 // DIVISOR, SEED,
    )
    g = generate(spec, base / "corpus")
    common = ["--corpus", str(g.root), "--labels", str(g.labels), "--mode", "M"]
    assert main(["extract", *common, "--out", str(base / "matrix.csv")]) == 0
    assert main(["rank", *common, "--out", str(base / "rank.csv")]) == 0
    assert main(["train", *common, "--out", str(base / "model.json")]) == 0
    assert main(["evaluate", *common, "--features", "15f", "--folds", "5",
                 "--seed", str(SEED), "--format", "all", "--out", str(base / "report")]) == 0
    return base


@pytest.mark.parametrize("name", sorted(FROZEN_SHA256))
def test_output_bytes_frozen(outputs, name):
    digest = hashlib.sha256((outputs / name).read_bytes()).hexdigest()
    assert digest == FROZEN_SHA256[name], f"{name} changed"
