"""Tests for the 12-dataset registry."""

import numpy as np
import pytest

from repro.datasets import registry
from repro.datasets.registry import (
    DATASET_NAMES,
    DATASET_SPECS,
    FIGURE3_DATASETS,
    dataset_summary,
    load_dataset,
)
from repro.datasets.synthesis import synthesize


def test_twelve_datasets_registered():
    assert len(DATASET_NAMES) == 12
    expected = {
        "breast_w", "credit_a", "credit_g", "diabetes", "ecoli", "hepatitis",
        "heart", "ionosphere", "iris", "shuttle", "votes", "wine",
    }
    assert set(DATASET_NAMES) == expected


def test_figure3_datasets_are_registered():
    assert set(FIGURE3_DATASETS) <= set(DATASET_NAMES)
    assert FIGURE3_DATASETS == ("diabetes", "shuttle", "votes")


@pytest.mark.parametrize("name", DATASET_NAMES)
def test_load_matches_spec(name):
    spec = DATASET_SPECS[name]
    ds = load_dataset(name)
    assert ds.X.shape == (spec.n_rows, spec.n_features)
    assert len(ds.classes) == spec.n_classes


def test_load_is_case_insensitive():
    a = load_dataset("IRIS")
    b = load_dataset("iris")
    np.testing.assert_array_equal(a.X, b.X)


def test_unknown_name_lists_options():
    with pytest.raises(KeyError) as excinfo:
        load_dataset("adult")
    assert "iris" in str(excinfo.value)


def test_default_seed_is_stable():
    a = load_dataset("wine")
    b = load_dataset("wine")
    np.testing.assert_array_equal(a.X, b.X)


def test_explicit_seed_changes_table():
    a = load_dataset("wine")
    b = load_dataset("wine", seed=999)
    assert not np.array_equal(a.X, b.X)


def test_shuttle_skew_preserved():
    ds = load_dataset("shuttle")
    counts = np.bincount(ds.y)
    assert counts[0] / ds.n_rows > 0.7  # dominant class ~79%
    assert len(counts) == 7


def test_votes_is_binary():
    ds = load_dataset("votes")
    assert set(np.unique(ds.X)).issubset({0.0, 1.0})


def test_ecoli_has_eight_classes_with_small_tail():
    ds = load_dataset("ecoli")
    counts = np.bincount(ds.y)
    assert len(counts) == 8
    assert counts.min() >= 2


def test_iris_is_balanced():
    ds = load_dataset("iris")
    counts = np.bincount(ds.y)
    assert counts.tolist() == [50, 50, 50]


def test_summary_mentions_every_dataset():
    text = dataset_summary()
    for name in DATASET_NAMES:
        assert name in text


@pytest.fixture
def synthesized(monkeypatch):
    """Names synthesized, in order, from an empty table cache on."""
    calls = []
    synthesize = registry.synthesize

    def counting(spec, seed=None):
        calls.append(spec.name)
        return synthesize(spec, seed=seed)

    monkeypatch.setattr(registry, "_TABLES", {})
    monkeypatch.setattr(registry, "synthesize", counting)
    return calls


def test_default_tables_are_synthesized_once_per_process(synthesized):
    for _ in range(3):
        for name in DATASET_NAMES:
            load_dataset(name.upper())
    assert sorted(synthesized) == sorted(DATASET_NAMES)


def test_an_explicit_seed_synthesizes_on_every_call(synthesized):
    first = load_dataset("iris", seed=11)
    second = load_dataset("iris", seed=11)
    assert synthesized == ["iris", "iris"]
    np.testing.assert_array_equal(first.X, second.X)
    assert not np.array_equal(first.X, load_dataset("iris").X)


def test_loaded_tables_are_equal_and_independent():
    first = load_dataset("wine")
    second = load_dataset("wine")
    assert first is not second
    assert first.feature_names == second.feature_names
    np.testing.assert_array_equal(first.X, second.X)
    np.testing.assert_array_equal(first.y, second.y)
    X, y = first.X.copy(), first.y.copy()
    first.X[:] = 0.0
    first.y[:] = -1
    third = load_dataset("wine")
    np.testing.assert_array_equal(third.X, X)
    np.testing.assert_array_equal(third.y, y)
    np.testing.assert_array_equal(second.X, X)
    assert np.array_equal(third.X, synthesize(DATASET_SPECS["wine"], seed=7_011).X)
