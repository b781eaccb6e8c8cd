"""Online miners: incremental learning and exact space migration."""

import numpy as np
import pytest

from repro.checkpoint import CheckpointError, decode, encode
from repro.core.adaptation import compute_adaptor
from repro.core.perturbation import sample_perturbation
from repro.streaming.online_miner import (
    OnlineLinearSVM,
    ReservoirKNN,
    make_online_classifier,
    predict_from_state,
)


def two_blobs(rng, n=200, d=4, gap=3.0):
    X = np.vstack(
        [rng.normal(size=(n // 2, d)), rng.normal(size=(n // 2, d)) + gap]
    )
    y = np.repeat([0, 1], n // 2)
    order = rng.permutation(n)
    return X[order], y[order]


@pytest.mark.parametrize("name", ["knn", "linear_svm"])
def test_learns_separable_stream(name, rng):
    X, y = two_blobs(rng)
    model = make_online_classifier(name, seed=0)
    for start in range(0, 160, 40):  # four windows
        model.partial_fit(X[start : start + 40], y[start : start + 40])
    accuracy = float(np.mean(model.predict(X[160:]) == y[160:]))
    assert accuracy > 0.9
    assert model.n_seen == 160


def test_predict_before_fit_returns_zeros(rng):
    for name in ("knn", "linear_svm"):
        model = make_online_classifier(name, seed=0)
        assert np.array_equal(model.predict(rng.normal(size=(5, 3))), np.zeros(5))


def test_reservoir_respects_capacity(rng):
    model = ReservoirKNN(capacity=32, seed=0)
    X, y = two_blobs(rng, n=400)
    model.partial_fit(X, y)
    assert model.reservoir_size == 32
    assert model.n_seen == 400


def test_reservoir_is_uniform_enough(rng):
    # Push 0..999 through a 100-slot reservoir; the kept sample's mean
    # should be near the stream mean, not stuck at either end.
    model = ReservoirKNN(capacity=100, seed=1)
    values = np.arange(1000, dtype=float).reshape(-1, 1)
    model.partial_fit(values, np.zeros(1000, dtype=int))
    kept = model.reservoir_rows.ravel()
    assert 350 < kept.mean() < 650


@pytest.mark.parametrize("name", ["knn", "linear_svm"])
def test_adapt_space_preserves_predictions_exactly(name, rng):
    """Migrating model state old-target -> new-target must not change any
    prediction when the query rows are migrated the same way."""
    X, y = two_blobs(rng)
    old_target = sample_perturbation(X.shape[1], rng)
    new_target = sample_perturbation(X.shape[1], rng)
    X_old = old_target.transform_clean(X.T).T

    model = make_online_classifier(name, seed=0)
    model.partial_fit(X_old[:150], y[:150])
    queries_old = X_old[150:]
    before = model.predict(queries_old)

    migration = compute_adaptor(old_target, new_target)
    model.adapt_space(migration)
    queries_new = np.asarray(migration.apply(queries_old.T)).T
    after = model.predict(queries_new)
    assert np.array_equal(before, after)

    # And the migrated state agrees with data perturbed by the new target.
    direct = new_target.transform_clean(X[150:].T).T
    assert np.allclose(queries_new, direct)


def test_adapt_space_before_fit_is_noop(rng):
    migration = compute_adaptor(
        sample_perturbation(3, rng), sample_perturbation(3, rng)
    )
    for name in ("knn", "linear_svm"):
        model = make_online_classifier(name, seed=0)
        model.adapt_space(migration)  # must not raise
        assert model.n_seen == 0


def test_svm_discovers_classes_online(rng):
    model = OnlineLinearSVM(seed=0)
    X0 = rng.normal(size=(30, 3))
    model.partial_fit(X0, np.zeros(30, dtype=int))
    assert list(model.classes_) == [0]
    model.partial_fit(X0 + 4.0, np.full(30, 2, dtype=int))
    assert list(model.classes_) == [0, 2]
    scores = model.decision_matrix(rng.normal(size=(5, 3)))
    assert scores.shape == (5, 2)


def test_validation_errors(rng):
    with pytest.raises(ValueError):
        ReservoirKNN(capacity=0)
    for bad in (0, -2, 2.5, 5.0, True, None):
        with pytest.raises(ValueError, match="capacity"):
            ReservoirKNN(capacity=bad)
        with pytest.raises(ValueError, match="n_neighbors"):
            ReservoirKNN(n_neighbors=bad)
        with pytest.raises(ValueError, match="n_neighbors"):
            make_online_classifier("knn", n_neighbors=bad)
    model = ReservoirKNN(capacity=8, n_neighbors=2, seed=0)
    model.partial_fit(rng.normal(size=(10, 3)), np.arange(10) % 2)
    state = model.export_predict_state()
    state["n_neighbors"] = 2.5
    with pytest.raises(ValueError, match="n_neighbors"):
        predict_from_state(state, rng.normal(size=(4, 3)))
    with pytest.raises(ValueError):
        OnlineLinearSVM(lam=0.0)
    with pytest.raises(ValueError):
        make_online_classifier("decision_tree")
    model = OnlineLinearSVM(seed=0)
    model.partial_fit(rng.normal(size=(10, 3)), np.zeros(10, dtype=int))
    with pytest.raises(ValueError):
        model.partial_fit(rng.normal(size=(10, 4)), np.zeros(10, dtype=int))


def test_reservoir_preserves_arbitrary_label_types():
    """Labels must never be coerced to the first batch's dtype: a later
    wider string (or a float after ints) has to survive intact."""
    model = ReservoirKNN(capacity=8, n_neighbors=1, seed=0)
    model.partial_fit(np.zeros((2, 2)), np.array(["a", "b"]))
    model.partial_fit(np.ones((1, 2)) * 9, np.array(["abc"]))
    assert model.predict(np.ones((1, 2)) * 9)[0] == "abc"
    state = model.export_predict_state()
    assert "abc" in state["labels"].tolist()

    mixed = ReservoirKNN(capacity=8, n_neighbors=1, seed=0)
    mixed.partial_fit(np.zeros((2, 2)), np.array([1, 2]))
    mixed.partial_fit(np.ones((1, 2)) * 9, np.array([2.7]))
    assert float(mixed.predict(np.ones((1, 2)) * 9)[0]) == 2.7


@pytest.mark.parametrize(
    "name, seen",
    [("knn", 40), ("knn", 100), ("linear_svm", 60)],
    ids=["knn-filling", "knn-full", "linear_svm"],
)
def test_snapshot_restore_continues_identically(name, seen, rng):
    params = {"capacity": 64} if name == "knn" else {}
    live = make_online_classifier(name, seed=3, **params)
    live.partial_fit(*two_blobs(rng, n=seen))
    restored = make_online_classifier(name, seed=99, **params)
    restored.restore(decode(encode(live.snapshot())), dimension=4)
    X, y = two_blobs(rng, n=32)  # crosses the reservoir's capacity at 40
    probe, _ = two_blobs(rng, n=20)
    for model in (live, restored):
        model.partial_fit(X, y)
    assert np.array_equal(live.predict(probe), restored.predict(probe))
    assert encode(restored.snapshot()) == encode(live.snapshot())


def test_restore_refuses_another_learner_or_width(rng):
    knn, svm = ReservoirKNN(), OnlineLinearSVM()
    knn.partial_fit(*two_blobs(rng, n=20))
    svm.partial_fit(*two_blobs(rng, n=20))
    with pytest.raises(CheckpointError, match="miner state"):
        ReservoirKNN().restore(svm.snapshot())
    with pytest.raises(CheckpointError, match="miner state"):
        OnlineLinearSVM().restore(knn.snapshot())
    with pytest.raises(CheckpointError, match="miner state"):
        ReservoirKNN().restore(knn.snapshot(), dimension=5)
    with pytest.raises(CheckpointError, match="miner state"):
        OnlineLinearSVM().restore(svm.snapshot(), dimension=5)
