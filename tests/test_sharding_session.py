"""Sharded stream sessions: bit-identical results, complete accounting."""

import threading

import numpy as np
import pytest

from repro import SAPConfig, load_dataset, run_sap_session
from repro.serve import SessionSpec, execute_spec
from repro.streaming import StreamConfig, make_stream, run_stream_session

N_WINDOWS = 8
WINDOW = 32


def run(
    shards=1, backend="serial", plan="round_robin", kind="abrupt", pool=None,
    **overrides,
):
    """One session; ``pool`` runs its shard tasks on an outside backend."""
    source = make_stream(
        "iris", kind=kind, n_records=N_WINDOWS * WINDOW, seed=0
    )
    config = StreamConfig(
        k=3,
        window_size=WINDOW,
        compute_privacy=False,
        shards=shards,
        shard_backend=backend,
        shard_plan=plan,
        seed=0,
        **overrides,
    )
    spec = SessionSpec.from_stream(source, config)
    return execute_spec(spec, backend=pool, source=source)


def assert_identical(a, b):
    assert a.accuracy_perturbed == b.accuracy_perturbed
    assert a.accuracy_baseline == b.accuracy_baseline
    assert a.deviation_series() == b.deviation_series()
    assert [w.drift_statistic for w in a.windows] == [
        w.drift_statistic for w in b.windows
    ]
    assert [(e.reason, e.window) for e in a.events] == [
        (e.reason, e.window) for e in b.events
    ]


@pytest.fixture(scope="module")
def reference():
    return run(shards=1, backend="serial")


def test_four_process_shards_match_single_shard(reference):
    """The acceptance criterion: shards=4 on the process backend yields the
    same accuracy-deviation series as shards=1 on the same seed."""
    result = run(shards=4, backend="process")
    assert_identical(result, reference)


@pytest.mark.parametrize("backend", ["serial", "thread", "process"])
def test_backends_bit_identical(reference, backend):
    result = run(shards=2, backend=backend)
    assert_identical(result, reference)
    assert result.overlap is (backend == "process")


@pytest.mark.parametrize("plan", ["round_robin", "hash", "party"])
def test_plans_never_change_results(reference, thread_pool, plan):
    result = run(shards=3, plan=plan, pool=thread_pool)
    assert result.overlap is True
    assert_identical(result, reference)


def test_sharding_composes_with_session_features(reference, thread_pool):
    """Sliding windows, zscore normalizer, SVM miner, trust changes — the
    sharded path must agree with the serial one under every feature combo."""
    from repro.streaming import TrustChange

    overrides = dict(
        window_kind="sliding",
        window_step=WINDOW // 2,
        normalizer="zscore",
        classifier="linear_svm",
        trust_changes=(TrustChange(window=5, party=1, trust=0.5),),
    )
    serial = run(shards=1, backend="serial", **overrides)
    sharded = run(shards=4, pool=thread_pool, **overrides)
    assert sharded.overlap is True
    assert_identical(sharded, serial)
    assert any(e.reason == "trust" for e in sharded.events)


def test_data_plane_accounting_complete(reference):
    """Every window charges k party batches plus one merged result to the
    data plane, and negotiation counters stay untouched."""
    k = reference.config.k
    assert reference.data_messages_sent == N_WINDOWS * (k + 1)
    assert reference.data_bytes_sent > 0
    # Control plane: 3 messages per non-coordinator provider per epoch.
    assert reference.messages_sent == 3 * (k - 1) * len(reference.events)
    # The shard ledgers account for every scored record exactly once.
    assert sum(reference.shard_records) == N_WINDOWS * WINDOW


def test_party_plan_charges_forward_hops():
    """Party-affine routing adds a forward hop whenever the batch's shard
    is not the window's owner — more messages, same results."""
    direct = run(shards=3, backend="serial", plan="round_robin")
    affine = run(shards=3, backend="serial", plan="party")
    assert affine.data_messages_sent > direct.data_messages_sent
    assert_identical(affine, direct)
    assert sum(affine.shard_records) == sum(direct.shard_records)


def test_shard_records_follow_the_plan():
    result = run(shards=4, backend="serial")
    # Round-robin over 8 windows of 32 records: 2 windows per shard.
    assert result.shard_records == (64, 64, 64, 64)


def test_summary_reports_sharding():
    result = run(shards=2, backend="process")
    text = result.summary()
    assert "shards" in text and "process backend" in text
    assert "pipelined dispatch" in text
    assert "shard traffic" in text


def test_partial_final_round_is_processed():
    """A trailing round smaller than the shard count still mines."""
    source = make_stream("iris", kind="stationary", n_records=5 * WINDOW, seed=0)
    config = StreamConfig(
        k=3, window_size=WINDOW, shards=4, shard_backend="serial",
        compute_privacy=False, seed=0,
    )
    result = run_stream_session(source, config)
    assert len(result.windows) == 5
    assert [w.index for w in result.windows] == list(range(5))


def test_config_validates_sharding_fields():
    with pytest.raises(ValueError):
        StreamConfig(shards=0)
    with pytest.raises(ValueError):
        StreamConfig(shard_backend="gpu")
    with pytest.raises(ValueError):
        StreamConfig(shard_plan="random")
    with pytest.raises(ValueError):
        SAPConfig(shards=0)
    with pytest.raises(ValueError):
        SAPConfig(shard_backend="gpu")


def test_batch_thread_backend_profiles_on_the_calling_thread(monkeypatch):
    """``thread`` names the inline backend in the batch session too: every
    per-party risk task runs on the caller's thread."""
    from repro.core import session

    callers = []
    task = session.party_risk_task

    def recorded(*args, **kwargs):
        callers.append(threading.current_thread())
        return task(*args, **kwargs)

    monkeypatch.setattr(session, "party_risk_task", recorded)
    result = run_sap_session(
        load_dataset("iris"),
        SAPConfig(k=3, seed=1, shards=3, shard_backend="thread"),
        compute_privacy=True,
    )
    assert len(result.risk_profiles) == 3
    assert callers == [threading.current_thread()] * 3


def test_batch_privacy_profiles_identical_across_backends():
    """The batch session's sharded risk profiling returns the serial
    profiles exactly, for every backend."""
    table = load_dataset("iris")
    base = run_sap_session(table, SAPConfig(k=3, seed=1), compute_privacy=True)
    for backend, shards in (("thread", 2), ("process", 2)):
        result = run_sap_session(
            table,
            SAPConfig(k=3, seed=1, shards=shards, shard_backend=backend),
            compute_privacy=True,
        )
        assert len(result.risk_profiles) == len(base.risk_profiles) == 3
        for ours, theirs in zip(result.risk_profiles, base.risk_profiles):
            assert ours.party == theirs.party
            assert ours.rho_local == theirs.rho_local
            assert ours.rho_global == theirs.rho_global
            assert ours.b == theirs.b


def test_data_plane_snapshot_restore_continues_identically():
    from repro.checkpoint import CheckpointError, decode, encode
    from repro.sharding import DataPlane, ShardPlan

    plan = ShardPlan(2, "party", n_parties=3)
    names = ["provider-0", "provider-1", "coordinator"]
    rng = np.random.default_rng(0)

    def route(plane, index, rows):
        parties = np.arange(len(rows)) % 3
        plane.route_window(index, [rows[parties == p] for p in range(3)], rows)
        plane.flush()

    live = DataPlane(plan, names, seed=1)
    route(live, 0, rng.normal(size=(7, 2)))
    # nonce and jitter draws never reach the counters: any seed restores
    restored = DataPlane(plan, names, seed=2)
    restored.restore(decode(encode(live.snapshot())))
    rows = rng.normal(size=(5, 2))
    for plane in (live, restored):
        route(plane, 1, rows)
    assert (
        restored.messages_sent, restored.bytes_sent,
        restored.shard_records, restored.provider_records,
    ) == (
        live.messages_sent, live.bytes_sent,
        live.shard_records, live.provider_records,
    )
    assert encode(restored.snapshot()) == encode(live.snapshot())
    with pytest.raises(CheckpointError, match="data-plane state"):
        DataPlane(ShardPlan(3, "party", n_parties=3), names).restore(
            live.snapshot()
        )


def test_data_plane_keeps_only_the_latest_flush():
    """Delivered messages leave the plane once it has counted them: the
    first window routed after a flush drops that flush's ledger entries
    and inbox messages, while the counters keep adding up."""
    from repro.sharding import DataPlane, ShardPlan

    plan = ShardPlan(2, "party", n_parties=3)
    plane = DataPlane(plan, ["provider-0", "provider-1", "coordinator"], seed=1)
    nodes = (*plane.gates, *plane.shards, plane.sink)
    rows = np.arange(12.0).reshape(6, 2)
    parties = np.arange(6) % 3
    held = []
    for window in range(5):
        plane.route_window(window, [rows[parties == p] for p in range(3)], rows)
        plane.flush()
        ledger = plane.network.ledger
        assert len(ledger.endpoint) == sum(len(node.inbox) for node in nodes)
        assert len(ledger.wire) == len(ledger.endpoint)
        assert {entry.message.payload["window"] for entry in ledger.endpoint} == {
            window
        }
        held.append(len(ledger.wire))
    # Each flush carried its own messages (forward hops vary by window);
    # the counter saw them all.
    assert plane.messages_sent == sum(held)
    assert sum(plane.shard_records) == sum(plane.provider_records) == 5 * 6
    assert plane.sink.records_received == 5 * 6


def test_a_long_session_holds_no_more_memory_than_a_short_one():
    import tracemalloc

    def peak(windows):
        source = make_stream("wine", n_records=windows * 64, seed=0)
        config = StreamConfig(k=3, window_size=64, compute_privacy=False, seed=0)
        tracemalloc.start()
        try:
            run_stream_session(source, config)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    run_stream_session(
        make_stream("wine", n_records=128, seed=0),
        StreamConfig(k=3, window_size=64, compute_privacy=False, seed=0),
    )
    assert peak(200) <= 1.5 * peak(20)
