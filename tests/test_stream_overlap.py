"""Pipelined rounds: overlap must never change a single bit of a result.

The contract under test: ``overlap=True`` (double-buffered round
dispatch) reproduces the ``overlap=False`` fingerprints exactly, across
backends, shard counts, plans, skew/late-policy settings, and
re-negotiation schedules.  Overlap may reorder *execution*; it may never
reorder gathering, merging, noise keying, or negotiation points.
"""

import threading

import pytest

from repro.serve import SessionSpec, execute_spec
from repro.streaming import StreamConfig, TrustChange, make_stream


def _fingerprint(result):
    """Everything deterministic a stream result reports."""
    return {
        "records": result.records_processed,
        "windows": [
            (w.index, w.revision, w.n_records, w.accuracy_perturbed,
             w.accuracy_baseline, w.drift_statistic, w.readapted)
            for w in result.windows
        ],
        "events": [
            (e.window, e.reason, e.statistic, e.messages, e.bytes,
             e.virtual_duration, e.privacy_guarantee)
            for e in result.events
        ],
        "accuracy": (result.accuracy_perturbed, result.accuracy_baseline),
        # shard_records is intentionally absent: per-shard routing counts
        # depend on the shard count by definition (their *sum* is pinned
        # via provider_records and the traffic totals).
        "traffic": (result.messages_sent, result.bytes_sent,
                    result.data_messages_sent, result.data_bytes_sent),
        "provider_records": result.provider_records,
        "ingest": None if result.ingest is None else result.ingest.to_dict(),
    }


def _run(source_seed=3, pool=None, **knobs):
    """One session; ``pool`` runs its shard tasks on an outside backend."""
    source = make_stream(
        "iris", kind=knobs.pop("stream", "abrupt"), n_records=6 * 32,
        seed=source_seed,
    )
    config = StreamConfig(
        k=3, window_size=32, compute_privacy=False, seed=7, **knobs
    )
    spec = SessionSpec.from_stream(source, config)
    return execute_spec(spec, backend=pool, source=source)


@pytest.fixture(scope="module")
def reference():
    """The serial-dispatch reference fingerprint (shards=1, serial)."""
    return _fingerprint(_run(shards=1, shard_backend="serial", overlap=False))


@pytest.mark.parametrize("backend", ["serial", "thread", "process"])
@pytest.mark.parametrize("shards", [1, 4])
def test_overlap_bit_identical_across_backends_and_shards(
    reference, backend, shards
):
    result = _run(shards=shards, shard_backend=backend, overlap=True)
    assert _fingerprint(result) == reference
    # The effective flag reports what actually happened: the process pool
    # pipelines, serial and thread ignore the request (inline dispatch).
    assert result.overlap is (backend == "process")


def test_thread_backend_runs_every_task_on_the_calling_thread(
    reference, monkeypatch
):
    """``thread`` names the inline backend: a session asked to pipeline on
    it runs every shard task on the caller's thread, reports no overlap
    and matches the serial reference."""
    from repro.streaming import stream_session

    callers = []

    def on_the_caller(name):
        task = getattr(stream_session, name)

        def recorded(*args, **kwargs):
            callers.append((name, threading.current_thread()))
            return task(*args, **kwargs)

        monkeypatch.setattr(stream_session, name, recorded)

    on_the_caller("transform_window")
    on_the_caller("predict_window")
    result = _run(shards=4, shard_backend="thread", overlap=True)
    assert {name for name, _ in callers} == {"transform_window", "predict_window"}
    assert all(thread is threading.current_thread() for _, thread in callers)
    assert result.overlap is False
    assert _fingerprint(result) == reference


def test_overlap_default_is_on_for_pool_backends_and_identical(
    reference, thread_pool
):
    auto = _run(shards=4, pool=thread_pool)  # overlap unset -> auto
    assert auto.overlap is True
    assert _fingerprint(auto) == reference
    forced_off = _run(shards=4, pool=thread_pool, overlap=False)
    assert forced_off.overlap is False
    assert _fingerprint(forced_off) == reference


@pytest.mark.parametrize("plan", ["hash", "party"])
def test_overlap_bit_identical_across_plans(thread_pool, plan):
    # Compared at the same plan: the ``party`` plan legitimately adds
    # data-plane forward hops, so its traffic differs from round_robin —
    # overlap must still reproduce serial dispatch hop for hop.
    serial = _run(shards=4, shard_backend="serial", shard_plan=plan, overlap=False)
    pipelined = _run(shards=4, pool=thread_pool, shard_plan=plan, overlap=True)
    assert pipelined.overlap is True
    assert _fingerprint(pipelined) == _fingerprint(serial)


@pytest.mark.parametrize("late_policy", ["drop", "readmit", "upsert"])
def test_overlap_bit_identical_under_skew(thread_pool, late_policy):
    """Out-of-order arrivals: overlap == serial dispatch, policy by policy."""
    knobs = dict(
        shards=4, skew=8, watermark_delay=1, late_policy=late_policy
    )
    serial = _run(shard_backend="serial", overlap=False, **knobs)
    pipelined = _run(pool=thread_pool, overlap=True, **knobs)
    assert pipelined.overlap is True
    assert _fingerprint(pipelined) == _fingerprint(serial)
    assert serial.ingest.late > 0  # the sweep actually exercised lateness


def test_overlap_bit_identical_across_renegotiations(thread_pool):
    """Trust changes force mid-stream re-negotiations — the drain rule's
    path — and the pipelined run must still match serial dispatch."""
    changes = (TrustChange(window=1, party=0, trust=0.5),
               TrustChange(window=3, party=1, trust=0.25))
    serial = _run(
        stream="gradual", shards=2, shard_backend="serial",
        overlap=False, trust_changes=changes, readapt_cooldown=1,
    )
    pipelined = _run(
        stream="gradual", shards=2, pool=thread_pool,
        overlap=True, trust_changes=changes, readapt_cooldown=1,
    )
    assert len(serial.events) >= 3  # initial + both trust renegotiations
    assert pipelined.overlap is True
    assert _fingerprint(pipelined) == _fingerprint(serial)


def test_config_rejects_non_bool_overlap():
    with pytest.raises(ValueError, match="overlap"):
        StreamConfig(overlap="yes")
