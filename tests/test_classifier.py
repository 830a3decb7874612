import itertools
import json
import math
import random

import numpy as np
import pytest

from apksift.classifier import (
    TrainedModel,
    classify,
    load_model,
    posterior_matrix,
    save_model,
    train,
)
from apksift.corpus import ClassLabel
from apksift.detectors import FeatureMatrix
from apksift.errors import ModelError
from apksift.ranking import build_contingency

from reference import nb_scores


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
    """A one-row matrix holding ``bits``."""
    names = names or tuple(f"f{i}" for i in range(len(bits)))
    return FeatureMatrix(("x",), (None,), tuple(names), (bytes(bits),))


def posterior(model: TrainedModel, bits) -> float:
    return float(posterior_matrix(model, vector_of(bits))[0])


def test_log_space_matches_linear_oracle_exhaustively():
    rng = random.Random(31)
    for _ in range(25):
        n = rng.randint(1, 8)
        model = random_model(rng, n)
        for bits in itertools.product((0, 1), repeat=n):
            assert posterior(model, bits) == pytest.approx(
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
            assert classify(model, vector_of(bits))[0].decision is expected


def _rule_cases(rng):
    """(model, rows) pairs: random models and rows, then the edge shapes of a
    memoized scorer: no feature, one feature, all rows equal, duplicate rows
    interleaved, and alpha-0 rows that both classes rule out."""
    for _ in range(300):
        n = rng.randint(1, 40)
        n_ben, n_sus = rng.randint(1, 50), rng.randint(1, 50)

        def counts(size):
            return tuple(rng.choice((0, size, rng.randint(0, size))) for _ in range(n))

        model = TrainedModel(tuple(f"f{i}" for i in range(n)), n_ben, n_sus, counts(n_ben),
                             counts(n_sus), rng.choice((0.0, 0.5, 1.0, 2.0)))
        yield model, [[rng.randint(0, 1) for _ in range(n)] for _ in range(30)]
    yield TrainedModel((), 3, 5, (), (), 1.0), [[], []]
    yield TrainedModel(("f0",), 4, 6, (1,), (5,), 0.5), [[1], [0], [1], [1], [0]]
    model = random_model(rng, 12)
    yield model, [[1, 0] * 6] * 7
    distinct = [[rng.randint(0, 1) for _ in range(12)] for _ in range(3)]
    yield model, [distinct[i % 3] for i in range(10)] + distinct[::-1]
    # f0 is set in every benign row and f1 in no suspicious row: a row with
    # f0 clear and f1 set has probability 0 in both classes.
    yield TrainedModel(("f0", "f1", "f2"), 4, 6, (4, 2, 1), (3, 0, 5), 0.0), [
        [0, 1, 0], [1, 0, 1], [0, 1, 1], [0, 0, 1], [0, 1, 0], [1, 1, 0]]


def test_scores_equal_the_written_rule_bit_for_bit():
    """posterior_matrix and classify give exactly the reference rule's
    floats: zero and full counts with alpha 0 rule classes out, and 40
    features make a BLAS or pairwise sum round differently."""
    for model, rows in _rule_cases(random.Random(2026)):
        m = _matrix(rows, [ClassLabel.BENIGN] * len(rows), names=model.feature_names)
        expected = nb_scores(model, rows)
        assert posterior_matrix(model, m).tolist() == [p for p, _ in expected]
        assert [(p.posterior, p.score) for p in classify(model, m)] == expected


# --- train ---------------------------------------------------------------------

def _matrix(rows, labels, names=("f0",)):
    return FeatureMatrix(
        ids=tuple(f"s{i}" for i in range(len(rows))),
        labels=tuple(labels),
        feature_names=tuple(names),
        rows=tuple(map(bytes, rows)),
    )


def _train(m, names, **kwargs):
    return train(build_contingency(m), names, **kwargs)


def test_train_hand_case():
    m = _matrix([[0], [1]], [ClassLabel.BENIGN, ClassLabel.SUSPICIOUS])
    model = _train(m, ("f0",), alpha=1.0)
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
    model = _train(m, ["f0"], alpha=0.0)
    assert model.theta(ClassLabel.BENIGN)[0] == 0.5
    assert model.theta(ClassLabel.SUSPICIOUS)[0] == 1.0


def test_train_unknown_feature_fatal():
    m = _matrix([[0], [1]], [ClassLabel.BENIGN, ClassLabel.SUSPICIOUS])
    with pytest.raises(ModelError, match="nope"):
        _train(m, ["nope"])


def test_train_without_tables_fatal():
    with pytest.raises(ModelError, match="each class"):
        train([], ())


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
        assert posterior(model, bits) == pytest.approx(0.5, abs=1e-12)


def test_single_feature_bayes():
    # priors 0.5, theta_sus=0.9, theta_ben=0.1, r=1 -> posterior 0.9
    model = TrainedModel(
        feature_names=("f0",), n_benign=10, n_suspicious=10,
        pos_benign=(1,), pos_suspicious=(9,), alpha=0.0,
    )
    assert posterior(model, [1]) == pytest.approx(0.9, abs=1e-12)


def test_tie_goes_to_suspicious():
    model = _symmetric_model()
    [pred] = classify(model, vector_of([0, 0, 0]))
    assert pred.posterior == pytest.approx(0.5)
    assert pred.decision is ClassLabel.SUSPICIOUS


def test_threshold_above_half_yields_benign():
    model = _symmetric_model()
    [pred] = classify(model, vector_of([0, 0, 0]), threshold=0.6)
    assert pred.decision is ClassLabel.BENIGN


def test_normalization():
    rng = random.Random(5)
    for _ in range(100):
        model = random_model(rng, 6)
        bits = [rng.randint(0, 1) for _ in range(6)]
        p = posterior(model, bits)
        assert 0.0 <= p <= 1.0
        # P(sus) + P(ben) = 1 by construction of the normalized posterior
        assert p + (1 - p) == pytest.approx(1.0, abs=1e-12)


def test_monotonic_in_theta_sus():
    def model_with(pos_sus):
        return TrainedModel(
            feature_names=("f0", "f1"), n_benign=20, n_suspicious=20,
            pos_benign=(5, 5), pos_suspicious=(pos_sus, 5), alpha=1.0,
        )

    posteriors = [posterior(model_with(k), [1, 1]) for k in range(0, 21, 4)]
    assert all(b >= a for a, b in zip(posteriors, posteriors[1:]))


def test_permutation_invariance():
    rng = random.Random(11)
    model = random_model(rng, 5)
    bits = [1, 0, 1, 1, 0]
    p_before = posterior(model, bits)
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
    assert posterior(permuted_model, bits) == pytest.approx(p_before, abs=1e-12)


def test_score_is_log_odds_and_monotone():
    rng = random.Random(17)
    model = random_model(rng, 4)
    preds = [
        classify(model, vector_of(bits))[0]
        for bits in itertools.product((0, 1), repeat=4)
    ]
    by_post = sorted(preds, key=lambda p: p.posterior)
    by_score = sorted(preds, key=lambda p: p.score)
    assert [p.posterior for p in by_post] == [p.posterior for p in by_score]


def test_vector_missing_feature_fatal():
    model = _symmetric_model(2)
    with pytest.raises(ModelError, match="f1"):
        posterior_matrix(model, vector_of([1], names=("f0",)))


def test_posterior_matrix_agrees_with_scalar():
    rng = random.Random(23)
    model = random_model(rng, 5)
    rows = [[rng.randint(0, 1) for _ in range(5)] for _ in range(40)]
    m = _matrix(rows, [ClassLabel.BENIGN] * 40, names=model.feature_names)
    batch = posterior_matrix(model, m)
    for i, row in enumerate(rows):
        assert batch[i] == pytest.approx(posterior(model, row), abs=1e-12)


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
        assert posterior(model, row) == pytest.approx(expected, abs=1e-12)


def test_both_classes_impossible_posterior_half():
    model = TrainedModel(
        feature_names=("f0", "f1"), n_benign=10, n_suspicious=10,
        pos_benign=(0, 5), pos_suspicious=(5, 0), alpha=0.0,
    )
    [pred] = classify(model, vector_of([1, 1]))
    assert pred.posterior == 0.5
    assert pred.score == 0.0


def test_score_finite_when_posterior_rounds_to_one():
    n = 40
    model = TrainedModel(
        feature_names=tuple(f"f{i}" for i in range(n)), n_benign=1000, n_suspicious=1000,
        pos_benign=(1,) * n, pos_suspicious=(999,) * n, alpha=1.0,
    )
    [pred] = classify(model, vector_of([1] * n))
    theta_sus = model.theta(ClassLabel.SUSPICIOUS)[0]
    theta_ben = model.theta(ClassLabel.BENIGN)[0]
    expected = n * math.log2(theta_sus / theta_ben)
    assert pred.posterior == 1.0
    assert pred.score == pytest.approx(expected, rel=1e-9)
    assert pred.score == pytest.approx(358.631, abs=1e-3)


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
        assert posterior(loaded, bits) == posterior(model, bits)


def test_model_file_numbers_are_integers(tmp_path):
    m = _matrix([[0], [1]], [ClassLabel.BENIGN, ClassLabel.SUSPICIOUS])
    model = _train(m, ["f0"], alpha=1.0)
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


@pytest.mark.parametrize("pos_ben, pos_sus", [((12,), (3,)), ((3,), (11,)), ((-1,), (3,))])
def test_positive_count_outside_class_size_fatal(pos_ben, pos_sus):
    with pytest.raises(ModelError, match="f0"):
        TrainedModel(("f0",), 10, 10, pos_ben, pos_sus, 1.0)


@pytest.mark.parametrize("names", [("f0", "f0"), ("",), (["f0"],), (None,)])
def test_feature_names_unique_non_empty_strings(names):
    n = len(names)
    with pytest.raises(ModelError, match="not a unique, non-empty string"):
        TrainedModel(names, 10, 10, (1,) * n, (1,) * n, 1.0)


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -1.0])
def test_alpha_finite_and_nonnegative(alpha):
    with pytest.raises(ModelError, match="alpha"):
        TrainedModel(("f0",), 10, 10, (1,), (1,), alpha)
    m = _matrix([[0], [1]], [ClassLabel.BENIGN, ClassLabel.SUSPICIOUS])
    with pytest.raises(ModelError, match="alpha"):
        _train(m, ["f0"], alpha=alpha)


def test_hand_edited_model_count_fatal(tmp_path):
    m = _matrix([[0], [1]], [ClassLabel.BENIGN, ClassLabel.SUSPICIOUS])
    path = tmp_path / "model.json"
    save_model(_train(m, ["f0"], alpha=1.0), path)
    payload = json.loads(path.read_text())
    payload["features"][0]["count_pos_sus"] = 12
    path.write_text(json.dumps(payload))
    with pytest.raises(ModelError, match="outside"):
        load_model(path)


@pytest.mark.parametrize("alpha", [True, False, None, [1.0], {"alpha": 1.0}])
def test_load_model_alpha_neither_number_nor_text_fatal(tmp_path, alpha):
    # float() would read JSON true as 1.0 and false as 0.0
    m = _matrix([[0], [1]], [ClassLabel.BENIGN, ClassLabel.SUSPICIOUS])
    path = tmp_path / "model.json"
    save_model(_train(m, ["f0"], alpha=1.0), path)
    payload = json.loads(path.read_text())
    payload["alpha"] = alpha
    path.write_text(json.dumps(payload))
    with pytest.raises(ModelError, match="alpha"):
        load_model(path)


@pytest.mark.parametrize("alpha", ["0.5", 0.5, 1, 0])
def test_load_model_alpha_number_or_text_same_bits(tmp_path, alpha):
    m = _matrix([[0, 1], [1, 1], [1, 0], [0, 0]],
                [ClassLabel.BENIGN, ClassLabel.SUSPICIOUS] * 2, names=("f0", "f1"))
    model = _train(m, ["f0", "f1"], alpha=float(alpha))
    path = tmp_path / "model.json"
    save_model(model, path)
    payload = json.loads(path.read_text())
    payload["alpha"] = alpha
    path.write_text(json.dumps(payload))
    loaded = load_model(path)
    assert loaded == model
    assert posterior_matrix(loaded, m).tobytes() == posterior_matrix(model, m).tobytes()
