"""The index-partition KNN vote the set vote replaced is the reference.

:func:`reference_predict` is :meth:`repro.mining.knn.KNNClassifier.predict`
before it counted votes over each row's neighbour set: distances from the
expression ``x_sq + z_sq - 2.0 * (X @ Z.T)`` with fresh temporaries, then
``np.argpartition``, a gather and per-class sums.  The live classifier
must return the same labels with the same dtype on every input, including
the ties that straddle the k-th distance, where only the set vote's tie
handling keeps the two equal.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mining.kernels import pairwise_sq_distances
from repro.mining.knn import KNNClassifier


def reference_sq_distances(X, Z):
    x_sq = np.sum(X * X, axis=1)[:, None]
    z_sq = np.sum(Z * Z, axis=1)[None, :]
    sq = x_sq + z_sq - 2.0 * (X @ Z.T)
    np.maximum(sq, 0.0, out=sq)
    return sq


def reference_predict(X_train, y_train, X, n_neighbors=5, weights="uniform",
                      batch_size=512):
    X_train = np.asarray(X_train, dtype=float)
    X = np.asarray(X, dtype=float)
    classes, y_index = np.unique(np.asarray(y_train), return_inverse=True)
    k = min(n_neighbors, X_train.shape[0])
    out = np.empty(X.shape[0], dtype=classes.dtype)
    for start in range(0, X.shape[0], batch_size):
        block = X[start : start + batch_size]
        sq = reference_sq_distances(block, X_train)
        neighbour_idx = np.argpartition(sq, kth=k - 1, axis=1)[:, :k]
        rows = np.arange(block.shape[0])[:, None]
        neighbour_sq = sq[rows, neighbour_idx]
        neighbour_labels = y_index[neighbour_idx]
        if weights == "uniform":
            vote_weights = np.ones_like(neighbour_sq)
        else:
            vote_weights = 1.0 / (np.sqrt(neighbour_sq) + 1e-12)
        votes = np.zeros((block.shape[0], len(classes)))
        for c in range(len(classes)):
            votes[:, c] = np.where(neighbour_labels == c, vote_weights, 0.0).sum(
                axis=1
            )
        out[start : start + block.shape[0]] = classes[np.argmax(votes, axis=1)]
    return out


def assert_same(X_train, y_train, X, **params):
    expected = reference_predict(X_train, y_train, X, **params)
    got = KNNClassifier(**params).fit(X_train, y_train).predict(X)
    assert got.dtype == expected.dtype
    np.testing.assert_array_equal(got, expected)


def straddling_ties(X_train, y_train, X, k):
    """(single-label, label-mixed) counts of rows whose k-th distance tie
    straddles position k."""
    sq = reference_sq_distances(np.asarray(X, float), np.asarray(X_train, float))
    ordered = np.sort(sq, axis=1)
    single = mixed = 0
    for i in np.flatnonzero(ordered[:, k] == ordered[:, k - 1]):
        labels = set(np.asarray(y_train)[sq[i] == ordered[i, k - 1]].tolist())
        single += len(labels) == 1
        mixed += len(labels) > 1
    return single, mixed


def lattice(rng, n, d=3, side=4):
    """``n`` rows drawn with replacement from the integer lattice
    ``{0..side-1}^d``, so duplicates and equal distances abound."""
    return rng.integers(0, side, size=(n, d)).astype(float)


@pytest.mark.parametrize("k", [1, 3, 5, 8])
def test_random_data(rng, k):
    X_train = rng.normal(size=(200, 5))
    y_train = rng.integers(0, 3, size=200)
    assert_same(X_train, y_train, rng.normal(size=(150, 5)), n_neighbors=k)


@pytest.mark.parametrize("k", [2, 3, 5])
def test_lattice_rows_with_straddling_ties(rng, k):
    X_train = lattice(rng, 120)
    # Labels a function of the point, so duplicates agree (single-label
    # ties) while equidistant distinct points need not (label-mixed ones).
    y_train = (X_train @ np.array([1.0, 2.0, 3.0])).astype(int) % 3
    X = lattice(rng, 200)
    single, mixed = straddling_ties(X_train, y_train, X, k)
    assert single > 0 and mixed > 0
    assert_same(X_train, y_train, X, n_neighbors=k)


def test_random_labels_on_lattice_rows(rng):
    X_train = lattice(rng, 80, d=2, side=3)
    y_train = rng.integers(0, 4, size=80)
    assert_same(X_train, y_train, lattice(rng, 60, d=2, side=3), n_neighbors=4)


def test_label_mixed_straddling_tie():
    # The query at the origin has four rows at distance 1 with two labels,
    # three of which join the vote: which three is argpartition's choice.
    X_train = np.array(
        [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [5.0, 5.0], [6.0, 5.0]]
    )
    y_train = np.array([0, 1, 1, 0, 2, 2])
    X = np.array([[0.0, 0.0], [5.5, 5.0]])
    assert straddling_ties(X_train, y_train, X, 3) == (0, 1)
    assert_same(X_train, y_train, X, n_neighbors=3)


def test_index_partition_runs_only_where_the_pick_matters(monkeypatch):
    X_train = np.array(
        [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [5.0, 5.0], [6.0, 5.0]]
    )
    y_train = np.array([0, 1, 1, 0, 2, 2])
    partitioned = []
    argpartition = np.argpartition

    def counting(a, *args, **kwargs):
        partitioned.append(len(a))
        return argpartition(a, *args, **kwargs)

    monkeypatch.setattr(np, "argpartition", counting)
    model = KNNClassifier(n_neighbors=3).fit(X_train, y_train)
    model.predict(np.array([[5.5, 5.0], [9.0, 8.0]]))
    assert partitioned == []
    model.predict(np.array([[0.0, 0.0], [5.5, 5.0], [0.1, 0.0]]))
    assert partitioned == [1]  # the label-mixed tie's row alone
    KNNClassifier(n_neighbors=3, weights="distance").fit(X_train, y_train).predict(
        np.array([[5.5, 5.0]])
    )
    KNNClassifier(n_neighbors=6).fit(X_train, y_train).predict(np.array([[5.5, 5.0]]))
    assert partitioned == [1, 1, 1]
    wide = np.vstack([X_train, np.full((507, 2), 50.0)])
    wide_labels = np.concatenate([y_train, np.zeros(507, dtype=int)])
    KNNClassifier(n_neighbors=3).fit(wide[:512], wide_labels[:512]).predict(
        np.array([[5.5, 5.0], [9.0, 8.0]])
    )
    assert partitioned == [1, 1, 1]
    KNNClassifier(n_neighbors=3).fit(wide, wide_labels).predict(
        np.array([[5.5, 5.0], [9.0, 8.0]])
    )
    assert partitioned == [1, 1, 1, 2]  # more than 512 training rows


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nan_kth_distance_uses_the_index_partition():
    # Squares overflow: (inf + inf) - 2 * inf is NaN, so the query's k-th
    # distance is NaN and the set vote has no threshold to count below.
    X_train = np.array([[1e200], [1e200], [0.0], [1.0]])
    y_train = np.array([0, 1, 1, 0])
    assert_same(X_train, y_train, np.array([[1e200], [0.5]]), n_neighbors=3)
    assert_same(X_train, y_train, np.array([[1e200], [0.5]]), n_neighbors=2)


@pytest.mark.parametrize("n_neighbors", [10, 11, 50])
def test_k_at_least_n_train(rng, n_neighbors):
    X_train = lattice(rng, 10)
    y_train = rng.integers(0, 3, size=10)
    assert_same(X_train, y_train, lattice(rng, 30), n_neighbors=n_neighbors)


@pytest.mark.parametrize("k", [1, 3, 6])
def test_distance_weights(rng, k):
    X_train = lattice(rng, 90)
    y_train = rng.integers(0, 3, size=90)
    X = np.vstack([lattice(rng, 40), rng.normal(size=(40, 3))])
    assert_same(X_train, y_train, X, n_neighbors=k, weights="distance")


@pytest.mark.parametrize(
    "labels",
    [
        ["neg", "pos", "mid"],
        ["a", "bbbb", "cc"],
        [1, 2, 2.7],  # one array of floats
        ["x", 1, 2.5],  # one array of strings
    ],
)
def test_string_and_mixed_type_labels(rng, labels):
    X_train = lattice(rng, 60)
    y_train = np.asarray([labels[i] for i in rng.integers(0, 3, size=60)])
    for k in (1, 4):
        assert_same(X_train, y_train, lattice(rng, 40), n_neighbors=k)


@pytest.mark.parametrize("batch_size", [1, 7, 64])
def test_batch_size_smaller_than_the_query_count(rng, batch_size):
    X_train = lattice(rng, 300)
    y_train = (X_train.sum(axis=1) > 4).astype(int)
    X = lattice(rng, 150)
    assert_same(X_train, y_train, X, n_neighbors=5, batch_size=batch_size)


def test_blocks_of_the_default_batch_size(rng):
    # 600 queries at the default batch size: a 512-row block, then 88 rows.
    X_train = lattice(rng, 300, d=4)
    y_train = rng.integers(0, 3, size=300)
    assert_same(X_train, y_train, lattice(rng, 600, d=4), n_neighbors=5)


@pytest.mark.parametrize("n_train", [512, 513, 900])
def test_training_sets_on_both_sides_of_the_width_cut(rng, n_train):
    X_train = lattice(rng, n_train, d=4)
    y_train = rng.integers(0, 3, size=n_train)
    assert_same(X_train, y_train, lattice(rng, 80, d=4), n_neighbors=5)
    X_train = rng.normal(size=(n_train, 5))
    assert_same(X_train, y_train, rng.normal(size=(80, 5)), n_neighbors=4)


def test_distances_are_the_reference_expression(rng):
    for X, Z in (
        (rng.normal(size=(70, 6)), rng.normal(size=(90, 6))),
        (rng.normal(size=(20, 3)) * 1e150, rng.normal(size=(30, 3)) * 1e150),
        (rng.normal(size=(20, 3)) * 1e-160, rng.normal(size=(30, 3)) * 1e-160),
        (lattice(rng, 40), lattice(rng, 50)),
        (rng.integers(-9, 9, size=(10, 3)), rng.integers(-9, 9, size=(12, 3))),
        (rng.normal(size=(10, 3)).astype(np.float32),
         rng.normal(size=(12, 3)).astype(np.float32)),
    ):
        got = pairwise_sq_distances(X, Z)
        expected = reference_sq_distances(X, Z)
        assert got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()


@settings(max_examples=60, deadline=None)
@given(
    n_train=st.integers(1, 30),
    n_query=st.integers(1, 20),
    d=st.integers(1, 3),
    n_neighbors=st.integers(1, 8),
    n_classes=st.integers(1, 3),
    weights=st.sampled_from(["uniform", "distance"]),
    batch_size=st.integers(1, 10),
    seed=st.integers(0, 10_000),
)
def test_matches_the_reference_on_small_lattices(
    n_train, n_query, d, n_neighbors, n_classes, weights, batch_size, seed
):
    rng = np.random.default_rng(seed)
    X_train = lattice(rng, n_train, d=d, side=3)
    y_train = rng.integers(0, n_classes, size=n_train)
    assert_same(
        X_train, y_train, lattice(rng, n_query, d=d, side=3),
        n_neighbors=n_neighbors, weights=weights, batch_size=batch_size,
    )
