"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.normalization import MinMaxNormalizer
from repro.datasets.schema import Dataset


@pytest.fixture(scope="module")
def thread_pool():
    """A pipelining shard backend whose workers are threads: sessions pass
    it to ``execute_spec(spec, backend=...)`` to run overlapped rounds
    without forking a process pool each."""
    from tests.test_sharding_backends import ThreadPoolBackend

    with ThreadPoolBackend(4) as pool:
        yield pool


@pytest.fixture
def rng() -> np.random.Generator:
    """A fresh seeded generator per test."""
    return np.random.default_rng(12345)


@pytest.fixture
def small_dataset(rng: np.random.Generator) -> Dataset:
    """A tiny 2-class Gaussian dataset (60 rows, 4 dims), normalized."""
    n_per_class = 30
    mean0 = np.zeros(4)
    mean1 = np.array([2.5, 2.0, -1.5, 1.0])
    X = np.vstack(
        [
            rng.normal(size=(n_per_class, 4)) + mean0,
            rng.normal(size=(n_per_class, 4)) + mean1,
        ]
    )
    y = np.array([0] * n_per_class + [1] * n_per_class)
    order = rng.permutation(len(y))
    X_norm = MinMaxNormalizer().fit_transform(X[order])
    return Dataset(name="toy", X=X_norm, y=y[order])


@pytest.fixture
def multiclass_dataset(rng: np.random.Generator) -> Dataset:
    """A 3-class dataset (90 rows, 5 dims), normalized."""
    means = [np.zeros(5), np.full(5, 2.2), np.array([2.2, -2.2, 2.2, -2.2, 0.0])]
    blocks = [rng.normal(size=(30, 5)) + mean for mean in means]
    X = np.vstack(blocks)
    y = np.repeat([0, 1, 2], 30)
    order = rng.permutation(len(y))
    X_norm = MinMaxNormalizer().fit_transform(X[order])
    return Dataset(name="toy3", X=X_norm, y=y[order])


@pytest.fixture
def columns_matrix(small_dataset: Dataset) -> np.ndarray:
    """The toy dataset in the paper's d x N orientation."""
    return small_dataset.columns()
