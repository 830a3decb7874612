import itertools
import json
import math
import random

import numpy as np
import pytest

from apksift.classifier import (
    TrainedModel,
    classify,
    classify_matrix,
    load_model,
    posterior,
    posterior_matrix,
    save_model,
    train,
)
from apksift.corpus import ClassLabel
from apksift.detectors import FeatureMatrix, FeatureVector
from apksift.errors import ModelError
from apksift.ranking import FeatureSelection


def linear_space_posterior(model: TrainedModel, bits) -> float:
    """Independent oracle: evaluate the posterior ratio directly in linear
    space, prior times the product of per-feature likelihoods per class."""
    prior_ben, prior_sus = model.priors
    theta_ben = model.theta(ClassLabel.BENIGN)
    theta_sus = model.theta(ClassLabel.SUSPICIOUS)
    joint_ben, joint_sus = prior_ben, prior_sus
    for r, tb, ts in zip(bits, theta_ben, theta_sus):
        joint_ben *= tb if r else (1.0 - tb)
        joint_sus *= ts if r else (1.0 - ts)
    return joint_sus / (joint_ben + joint_sus)


def random_model(rng: random.Random, n_features: int) -> TrainedModel:
    n_ben = rng.randint(1, 50)
    n_sus = rng.randint(1, 50)
    return TrainedModel(
        feature_names=tuple(f"f{i}" for i in range(n_features)),
        n_benign=n_ben,
        n_suspicious=n_sus,
        pos_benign=tuple(rng.randint(0, n_ben) for _ in range(n_features)),
        pos_suspicious=tuple(rng.randint(0, n_sus) for _ in range(n_features)),
        alpha=rng.choice([0.5, 1.0, 2.0]),
    )


def vector_of(bits, names=None):
    names = names or tuple(f"f{i}" for i in range(len(bits)))
    return FeatureVector("x", tuple(names), np.array(bits, dtype=np.uint8))


def test_log_space_matches_linear_oracle_exhaustively():
    rng = random.Random(31)
    for _ in range(25):
        n = rng.randint(1, 8)
        model = random_model(rng, n)
        for bits in itertools.product((0, 1), repeat=n):
            vec = vector_of(bits)
            assert posterior(model, vec) == pytest.approx(
                linear_space_posterior(model, bits), abs=1e-12
            )


def test_decision_matches_argmax_oracle():
    rng = random.Random(77)
    for _ in range(20):
        model = random_model(rng, 4)
        prior_ben, prior_sus = model.priors
        theta_ben = model.theta(ClassLabel.BENIGN)
        theta_sus = model.theta(ClassLabel.SUSPICIOUS)
        for bits in itertools.product((0, 1), repeat=4):
            joint_ben, joint_sus = prior_ben, prior_sus
            for r, tb, ts in zip(bits, theta_ben, theta_sus):
                joint_ben *= tb if r else 1.0 - tb
                joint_sus *= ts if r else 1.0 - ts
            expected = (
                ClassLabel.SUSPICIOUS if joint_sus >= joint_ben else ClassLabel.BENIGN
            )
            assert classify(model, vector_of(bits)).decision is expected


# --- train ---------------------------------------------------------------------

def _matrix(rows, labels, names=("f0",)):
    return FeatureMatrix(
        ids=tuple(f"s{i}" for i in range(len(rows))),
        labels=tuple(labels),
        feature_names=tuple(names),
        bits=np.array(rows, dtype=np.uint8),
    )


def test_train_hand_case():
    m = _matrix([[0], [1]], [ClassLabel.BENIGN, ClassLabel.SUSPICIOUS])
    model = train(m, FeatureSelection(("f0",), "custom-1"), alpha=1.0)
    assert model.priors == (0.5, 0.5)
    assert model.theta(ClassLabel.BENIGN)[0] == pytest.approx(1 / 3)
    assert model.theta(ClassLabel.SUSPICIOUS)[0] == pytest.approx(2 / 3)


def test_smoothing_keeps_zero_count_positive():
    # zero benign occurrences out of 1000 still get nonzero probability
    model = TrainedModel(
        feature_names=("createSubprocess",),
        n_benign=1000,
        n_suspicious=1000,
        pos_benign=(0,),
        pos_suspicious=(169,),
        alpha=1.0,
    )
    assert model.theta(ClassLabel.BENIGN)[0] == pytest.approx(1 / 1002)
    assert model.theta(ClassLabel.BENIGN)[0] > 0


def test_alpha_zero_reproduces_raw_frequencies():
    m = _matrix([[1], [0], [1], [1]],
                [ClassLabel.BENIGN, ClassLabel.BENIGN,
                 ClassLabel.SUSPICIOUS, ClassLabel.SUSPICIOUS])
    model = train(m, ["f0"], alpha=0.0)
    assert model.theta(ClassLabel.BENIGN)[0] == 0.5
    assert model.theta(ClassLabel.SUSPICIOUS)[0] == 1.0


def test_train_unknown_feature_fatal():
    m = _matrix([[0], [1]], [ClassLabel.BENIGN, ClassLabel.SUSPICIOUS])
    with pytest.raises(ModelError, match="nope"):
        train(m, ["nope"])


def test_train_single_class_fatal():
    m = _matrix([[0], [1]], [ClassLabel.BENIGN, ClassLabel.BENIGN])
    with pytest.raises(ModelError):
        train(m, ["f0"])


def test_train_unlabeled_fatal():
    m = _matrix([[0], [1]], [ClassLabel.BENIGN, None])
    with pytest.raises(ModelError, match="unlabeled"):
        train(m, ["f0"])


# --- posterior / classify ---------------------------------------------------------

def _symmetric_model(n=3):
    return TrainedModel(
        feature_names=tuple(f"f{i}" for i in range(n)),
        n_benign=10, n_suspicious=10,
        pos_benign=tuple([4] * n), pos_suspicious=tuple([4] * n),
        alpha=1.0,
    )


def test_symmetric_model_posterior_half():
    model = _symmetric_model()
    for bits in itertools.product((0, 1), repeat=3):
        assert posterior(model, vector_of(bits)) == pytest.approx(0.5, abs=1e-12)


def test_single_feature_bayes():
    # priors 0.5, theta_sus=0.9, theta_ben=0.1, r=1 -> posterior 0.9
    model = TrainedModel(
        feature_names=("f0",), n_benign=10, n_suspicious=10,
        pos_benign=(1,), pos_suspicious=(9,), alpha=0.0,
    )
    assert posterior(model, vector_of([1])) == pytest.approx(0.9, abs=1e-12)


def test_tie_goes_to_suspicious():
    model = _symmetric_model()
    pred = classify(model, vector_of([0, 0, 0]))
    assert pred.posterior == pytest.approx(0.5)
    assert pred.decision is ClassLabel.SUSPICIOUS


def test_threshold_above_half_yields_benign():
    model = _symmetric_model()
    pred = classify(model, vector_of([0, 0, 0]), threshold=0.6)
    assert pred.decision is ClassLabel.BENIGN


def test_normalization():
    rng = random.Random(5)
    for _ in range(100):
        model = random_model(rng, 6)
        bits = [rng.randint(0, 1) for _ in range(6)]
        p = posterior(model, vector_of(bits))
        assert 0.0 <= p <= 1.0
        # P(sus) + P(ben) = 1 by construction of the normalized posterior
        assert p + (1 - p) == pytest.approx(1.0, abs=1e-12)


def test_monotonic_in_theta_sus():
    def model_with(pos_sus):
        return TrainedModel(
            feature_names=("f0", "f1"), n_benign=20, n_suspicious=20,
            pos_benign=(5, 5), pos_suspicious=(pos_sus, 5), alpha=1.0,
        )

    vec = vector_of([1, 1])
    posteriors = [posterior(model_with(k), vec) for k in range(0, 21, 4)]
    assert all(b >= a for a, b in zip(posteriors, posteriors[1:]))


def test_permutation_invariance():
    rng = random.Random(11)
    model = random_model(rng, 5)
    bits = [1, 0, 1, 1, 0]
    p_before = posterior(model, vector_of(bits))
    perm = [3, 1, 4, 0, 2]
    permuted_model = TrainedModel(
        feature_names=tuple(model.feature_names[i] for i in perm),
        n_benign=model.n_benign,
        n_suspicious=model.n_suspicious,
        pos_benign=tuple(model.pos_benign[i] for i in perm),
        pos_suspicious=tuple(model.pos_suspicious[i] for i in perm),
        alpha=model.alpha,
    )
    # vector unchanged; projection is by name, so posterior must agree
    assert posterior(permuted_model, vector_of(bits)) == pytest.approx(p_before, abs=1e-12)


def test_score_is_log_odds_and_monotone():
    rng = random.Random(17)
    model = random_model(rng, 4)
    preds = [
        classify(model, vector_of(bits))
        for bits in itertools.product((0, 1), repeat=4)
    ]
    by_post = sorted(preds, key=lambda p: p.posterior)
    by_score = sorted(preds, key=lambda p: p.score)
    assert [p.posterior for p in by_post] == [p.posterior for p in by_score]


def test_vector_missing_feature_fatal():
    model = _symmetric_model(2)
    vec = FeatureVector("x", ("f0",), np.array([1], dtype=np.uint8))
    with pytest.raises(ModelError, match="f1"):
        posterior(model, vec)


def test_posterior_matrix_agrees_with_scalar():
    rng = random.Random(23)
    model = random_model(rng, 5)
    rows = [[rng.randint(0, 1) for _ in range(5)] for _ in range(40)]
    m = _matrix(rows, [ClassLabel.BENIGN] * 40, names=model.feature_names)
    batch = posterior_matrix(model, m)
    for i, row in enumerate(rows):
        assert batch[i] == pytest.approx(posterior(model, vector_of(row)), abs=1e-12)


def test_alpha_zero_zero_count_matches_oracle():
    # theta_ben(f0) = 0: a set f0 rules benign out, an unset f0 must not
    # poison the benign joint (0 * log 0 is NaN, not 0).
    model = TrainedModel(
        feature_names=("f0", "f1"), n_benign=10, n_suspicious=10,
        pos_benign=(0, 5), pos_suspicious=(3, 5), alpha=0.0,
    )
    rows = [[0, 1], [1, 1]]
    batch = posterior_matrix(model, _matrix(rows, [ClassLabel.BENIGN] * 2, names=("f0", "f1")))
    for i, (row, expected) in enumerate(zip(rows, (7 / 17, 1.0))):
        assert linear_space_posterior(model, row) == pytest.approx(expected, abs=1e-12)
        assert batch[i] == pytest.approx(expected, abs=1e-12)
        assert posterior(model, vector_of(row)) == pytest.approx(expected, abs=1e-12)


def test_both_classes_impossible_posterior_half():
    model = TrainedModel(
        feature_names=("f0", "f1"), n_benign=10, n_suspicious=10,
        pos_benign=(0, 5), pos_suspicious=(5, 0), alpha=0.0,
    )
    pred = classify(model, vector_of([1, 1]))
    assert pred.posterior == 0.5
    assert pred.score == 0.0


def test_score_finite_when_posterior_rounds_to_one():
    n = 40
    model = TrainedModel(
        feature_names=tuple(f"f{i}" for i in range(n)), n_benign=1000, n_suspicious=1000,
        pos_benign=(1,) * n, pos_suspicious=(999,) * n, alpha=1.0,
    )
    pred = classify(model, vector_of([1] * n))
    theta_sus = model.theta(ClassLabel.SUSPICIOUS)[0]
    theta_ben = model.theta(ClassLabel.BENIGN)[0]
    expected = n * math.log2(theta_sus / theta_ben)
    assert pred.posterior == 1.0
    assert pred.score == pytest.approx(expected, rel=1e-9)
    assert pred.score == pytest.approx(358.631, abs=1e-3)


def test_classify_matrix_agrees_with_classify():
    rng = random.Random(29)
    model = random_model(rng, 5)
    rows = [[rng.randint(0, 1) for _ in range(5)] for _ in range(40)]
    m = _matrix(rows, [ClassLabel.BENIGN] * 40, names=model.feature_names)
    for i, pred in enumerate(classify_matrix(model, m, threshold=0.3)):
        one = classify(model, vector_of(rows[i]), threshold=0.3)
        assert (pred.sample_id, pred.decision) == (m.ids[i], one.decision)
        assert pred.posterior == one.posterior
        assert pred.score == pytest.approx(one.score, abs=1e-12)


# --- persistence ---------------------------------------------------------------

def test_save_load_roundtrip_bit_identical(tmp_path):
    rng = random.Random(3)
    model = random_model(rng, 6)
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded == model
    for _ in range(100):
        bits = [rng.randint(0, 1) for _ in range(6)]
        assert posterior(loaded, vector_of(bits)) == posterior(model, vector_of(bits))


def test_model_file_numbers_are_integers(tmp_path):
    m = _matrix([[0], [1]], [ClassLabel.BENIGN, ClassLabel.SUSPICIOUS])
    model = train(m, ["f0"], alpha=1.0)
    path = tmp_path / "model.json"
    save_model(model, path)
    payload = json.loads(path.read_text())
    assert isinstance(payload["alpha"], str)  # exact decimal text, not a float
    assert all(isinstance(v, int) for v in payload["class_counts"].values())
    for f in payload["features"]:
        assert isinstance(f["count_pos_sus"], int) and isinstance(f["count_pos_ben"], int)


def test_truncated_model_file_fatal(tmp_path):
    path = tmp_path / "model.json"
    path.write_text('{"schema_version": 1, "features": [{"na')
    with pytest.raises(ModelError):
        load_model(path)


def test_unknown_schema_version_fatal(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"schema_version": 99}))
    with pytest.raises(ModelError, match="schema_version 99"):
        load_model(path)


def test_missing_schema_version_fatal(tmp_path):
    path = tmp_path / "model.json"
    path.write_text("{}")
    with pytest.raises(ModelError, match="schema_version"):
        load_model(path)
