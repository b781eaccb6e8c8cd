"""Incremental-vs-batch normalizer equivalence (property tests)."""

import numpy as np
import pytest

from repro.core.normalization import MinMaxNormalizer, ZScoreNormalizer
from repro.streaming.normalizer import (
    RunningMinMaxNormalizer,
    RunningZScoreNormalizer,
    make_normalizer,
)


def random_chunks(X, rng):
    """Split rows of X into a random sequence of non-empty chunks."""
    n = X.shape[0]
    cuts = np.sort(rng.choice(np.arange(1, n), size=rng.integers(1, 8), replace=False))
    return np.split(X, cuts)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_running_minmax_matches_batch_exactly(seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(200, 6)) * rng.uniform(0.1, 10, size=6) + rng.normal(size=6)
    running = RunningMinMaxNormalizer()
    for chunk in random_chunks(X, rng):
        running.update(chunk)
    batch = MinMaxNormalizer().fit(X)
    frozen = running.to_batch()
    assert np.array_equal(frozen.minimums, batch.minimums)
    assert np.array_equal(frozen.maximums, batch.maximums)
    probe = rng.normal(size=(40, 6))
    assert np.allclose(running.transform(probe), batch.transform(probe))


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_running_zscore_converges_to_batch(seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(300, 5)) * rng.uniform(0.1, 5, size=5) + rng.normal(size=5)
    running = RunningZScoreNormalizer()
    for chunk in random_chunks(X, rng):
        running.update(chunk)
    batch = ZScoreNormalizer().fit(X)
    assert np.allclose(running.means, batch.means, atol=1e-10)
    assert np.allclose(running.stds, batch.stds, atol=1e-10)
    probe = rng.normal(size=(40, 5))
    assert np.allclose(running.transform(probe), batch.transform(probe))


def test_chunking_is_irrelevant():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(128, 4))
    one_shot = RunningZScoreNormalizer().update(X)
    row_by_row = RunningZScoreNormalizer()
    for row in X:
        row_by_row.update(row.reshape(1, -1))
    assert np.allclose(one_shot.means, row_by_row.means)
    assert np.allclose(one_shot.stds, row_by_row.stds, atol=1e-9)
    assert one_shot.n_seen == row_by_row.n_seen == 128


def test_minmax_constant_column_maps_to_half():
    X = np.column_stack([np.full(10, 3.0), np.arange(10.0)])
    running = RunningMinMaxNormalizer().update(X)
    out = running.transform(X)
    assert np.all(out[:, 0] == 0.5)
    assert out[:, 1].min() == 0.0 and out[:, 1].max() == 1.0


def test_update_transform_includes_current_batch():
    running = RunningMinMaxNormalizer()
    out = running.update_transform(np.array([[0.0], [10.0]]))
    assert out.min() == 0.0 and out.max() == 1.0
    assert running.n_seen == 2


def test_unfitted_and_mismatch_errors():
    for kind in ("minmax", "zscore"):
        norm = make_normalizer(kind)
        with pytest.raises(RuntimeError):
            norm.to_batch()
        norm.update(np.zeros((3, 4)))
        with pytest.raises(ValueError):
            norm.update(np.zeros((3, 5)))
        with pytest.raises(ValueError):
            norm.update(np.zeros(4))
    with pytest.raises(ValueError):
        make_normalizer("unit")


def test_empty_batch_is_a_no_op():
    norm = RunningZScoreNormalizer()
    norm.update(np.zeros((0, 3)))
    assert norm.n_seen == 0
    norm.update(np.ones((2, 3)))
    norm.update(np.zeros((0, 3)))
    assert norm.n_seen == 2


# ----------------------------------------------------------------------
# merge algebra (the sharded engine's per-shard state combination)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5])
def test_minmax_shard_merge_equals_unsharded_exactly(seed):
    """Random splits across per-shard normalizers, merged in any order,
    reproduce the unsharded incremental state bit for bit."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(240, 5)) * rng.uniform(0.1, 8, size=5)
    chunks = random_chunks(X, rng)

    unsharded = RunningMinMaxNormalizer()
    for chunk in chunks:
        unsharded.update(chunk)

    n_shards = int(rng.integers(2, 5))
    shards = [RunningMinMaxNormalizer() for _ in range(n_shards)]
    for index, chunk in enumerate(chunks):
        shards[index % n_shards].update(chunk)
    merged = RunningMinMaxNormalizer()
    for order in rng.permutation(n_shards):  # min/max merge is order-free
        merged.merge(shards[order])

    assert merged.n_seen == unsharded.n_seen == X.shape[0]
    assert np.array_equal(merged.minimums, unsharded.minimums)
    assert np.array_equal(merged.maximums, unsharded.maximums)


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5])
def test_zscore_shard_merge_equals_unsharded(seed):
    """Chan's parallel merge of per-shard Welford states agrees with the
    unsharded incremental moments (exactly in exact arithmetic; to tight
    float tolerance here)."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(300, 4)) * rng.uniform(0.1, 5, size=4) + rng.normal(size=4)
    chunks = random_chunks(X, rng)

    unsharded = RunningZScoreNormalizer()
    for chunk in chunks:
        unsharded.update(chunk)

    n_shards = int(rng.integers(2, 5))
    shards = [RunningZScoreNormalizer() for _ in range(n_shards)]
    for index, chunk in enumerate(chunks):
        shards[index % n_shards].update(chunk)
    merged = RunningZScoreNormalizer()
    for shard in shards:
        merged.merge(shard)

    assert merged.n_seen == unsharded.n_seen == X.shape[0]
    assert np.allclose(merged.means, unsharded.means, atol=1e-12)
    assert np.allclose(merged.stds, unsharded.stds, atol=1e-10)


def test_window_order_merge_is_bit_identical_to_update():
    """Merging per-window contribution states in window order performs the
    same float operations as updating with each window — the exact
    guarantee the sharded stream session relies on."""
    rng = np.random.default_rng(9)
    windows = [rng.normal(size=(32, 6)) for _ in range(7)]
    for kind in ("minmax", "zscore"):
        updated = make_normalizer(kind)
        merged = make_normalizer(kind)
        for window in windows:
            updated.update(window)
            merged.merge(make_normalizer(kind).update(window))
        a, b = updated.to_batch(), merged.to_batch()
        if kind == "minmax":
            assert np.array_equal(a.minimums, b.minimums)
            assert np.array_equal(a.maximums, b.maximums)
        else:
            assert np.array_equal(a.means, b.means)
            assert np.array_equal(a.stds, b.stds)


def test_merging_empty_state_is_a_no_op():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(20, 3))
    for kind in ("minmax", "zscore"):
        populated = make_normalizer(kind).update(X)
        before = populated.to_batch()
        populated.merge(make_normalizer(kind))  # empty other
        after = populated.to_batch()
        empty = make_normalizer(kind)
        empty.merge(populated)  # empty self adopts the other's state
        assert empty.n_seen == populated.n_seen == 20
        if kind == "minmax":
            assert np.array_equal(before.minimums, after.minimums)
            assert np.array_equal(empty.to_batch().minimums, after.minimums)
        else:
            assert np.array_equal(before.means, after.means)
            assert np.array_equal(empty.to_batch().means, after.means)


def test_merge_rejects_mismatched_dimensions():
    a = RunningMinMaxNormalizer().update(np.zeros((4, 3)))
    b = RunningMinMaxNormalizer().update(np.zeros((4, 5)))
    with pytest.raises(ValueError):
        a.merge(b)
    za = RunningZScoreNormalizer().update(np.zeros((4, 3)))
    zb = RunningZScoreNormalizer().update(np.ones((4, 5)))
    with pytest.raises(ValueError):
        za.merge(zb)


@pytest.mark.parametrize("kind", ["minmax", "zscore"])
def test_checkpoint_round_trip_continues_identically(kind):
    # A running normalizer is its own checkpoint record.
    from repro.checkpoint import decode, encode

    rng = np.random.default_rng(11)
    live = make_normalizer(kind).update(rng.normal(size=(40, 5)))
    restored = decode(encode(live))
    assert type(restored) is type(live)
    batch = rng.normal(size=(16, 5)) * 3.0
    assert np.array_equal(
        live.update_transform(batch), restored.update_transform(batch)
    )
    assert encode(restored) == encode(live)
