"""Process-backed replicas: bit-identity across real OS process boundaries.

The transport refactor's governing property, swept where it is hardest:
with every replica a separate OS process behind the framed socket
protocol, any schedule of submits, live wire migrations, ``SIGKILL``
crashes with recovery, and park/resume hops must reproduce the
single-engine run **bit for bit**, and the merged :class:`ClusterStats`
must conserve every counter exactly — the per-replica sums crossing the
wire are the same numbers the in-process backend adds up locally.
"""

import os
import signal
import time

import pytest

from repro.cluster import ClusterController, ClusterError
from repro.serve import MiningService, SessionSpec


def _stream_spec(seed=5, tenant="acme", windows=10, **knobs):
    return SessionSpec(
        kind="stream", dataset="wine", k=3, windows=windows, window_size=32,
        compute_privacy=False, seed=seed, tenant=tenant, **knobs
    )


def _fingerprint(result):
    """Everything deterministic a stream result reports, bit for bit."""
    return (
        result.deviation_series(),
        result.messages_sent,
        result.bytes_sent,
        result.data_messages_sent,
        result.data_bytes_sent,
        result.records_processed,
    )


def _single_engine(spec):
    with MiningService(max_inflight=2) as service:
        return service.run([spec])[0]


def _assert_conserved(stats):
    """Cluster totals must equal per-replica sums exactly."""
    per = stats.per_replica
    assert stats.records == sum(s.records for s in per)
    assert stats.messages == sum(s.messages for s in per)
    assert stats.bytes == sum(s.bytes for s in per)
    assert stats.completed == sum(s.completed for s in per)
    assert stats.failed == sum(s.failed for s in per)
    assert stats.cancelled == sum(s.cancelled for s in per)
    assert stats.evicted == sum(s.evicted for s in per)
    assert stats.active == sum(s.active for s in per)
    assert sum(s.submitted for s in per) == stats.submitted + stats.migrations


def _wait_for_checkpoint(directory, timeout=30.0):
    """Block until some replica wrote a checkpoint file under ``directory``."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        for root, _, files in os.walk(directory):
            if any(name.endswith(".ckpt") for name in files):
                return
        time.sleep(0.01)
    raise AssertionError(f"no checkpoint appeared under {directory}")


# ----------------------------------------------------------------------
# plain runs across the wire
# ----------------------------------------------------------------------
@pytest.mark.parametrize("placement", ["hash", "least_loaded"])
def test_process_backend_bit_identical_and_conserved(tmp_path, placement):
    specs = [_stream_spec(seed=seed) for seed in (1, 2, 3)]
    unbroken = [_fingerprint(_single_engine(spec)) for spec in specs]
    with ClusterController(
        replicas=2,
        backend="process",
        placement=placement,
        checkpoint_dir=str(tmp_path),
    ) as cluster:
        sessions = [cluster.submit(spec) for spec in specs]
        results = [session.result(timeout=120) for session in sessions]
        stats = cluster.stats()
        assert [_fingerprint(result) for result in results] == unbroken
        assert stats.backend == "process"
        assert stats.replicas == 2
        assert stats.healthy_replicas == 2
        assert stats.completed == len(specs)
        _assert_conserved(stats)
        # Everything crossed a real wire: the transports counted it.
        for transport in cluster.replicas:
            assert transport.kind == "process"
            assert transport.frames_sent > 0
            assert transport.frames_received > 0
            assert transport.wire_bytes_sent > 0
            assert transport.wire_bytes_received > 0
            assert transport.pid > 0


def test_live_wire_migration_bit_identical(tmp_path):
    spec = _stream_spec(seed=9, windows=60)
    unbroken = _fingerprint(_single_engine(spec))
    with ClusterController(
        replicas=2, backend="process", checkpoint_dir=str(tmp_path)
    ) as cluster:
        session = cluster.submit(spec, checkpoint_every=1)
        source = session.replica
        landed = cluster.migrate(session.session_id, 1 - source)
        assert landed == 1 - source, "migration must happen mid-run"
        result = session.result(timeout=120)
        stats = cluster.stats()
    assert _fingerprint(result) == unbroken
    assert session.migrations >= 1
    assert stats.migrations >= 1
    _assert_conserved(stats)


# ----------------------------------------------------------------------
# crash recovery: SIGKILL mid-run, bit-identical resume elsewhere
# ----------------------------------------------------------------------
def test_sigkill_mid_run_recovers_bit_identical(tmp_path):
    spec = _stream_spec(seed=11, windows=60)
    unbroken = _fingerprint(_single_engine(spec))
    with ClusterController(
        replicas=2, backend="process", checkpoint_dir=str(tmp_path)
    ) as cluster:
        session = cluster.submit(spec, checkpoint_every=1)
        victim = cluster.replicas[session.replica]
        _wait_for_checkpoint(str(tmp_path))
        os.kill(victim.pid, signal.SIGKILL)
        result = session.result(timeout=120)
        stats = cluster.stats()
        assert _fingerprint(result) == unbroken
        assert session.poll() == "completed"
        assert session.replica != victim.index
        assert not victim.healthy
        assert stats.recoveries >= 1
        assert stats.healthy_replicas == 1
        _assert_conserved(stats)


def test_sigkill_with_concurrent_survivor_sessions(tmp_path):
    """The survivor's own sessions ride through a neighbor's crash."""
    crash_spec = _stream_spec(seed=21, windows=60)
    quiet_spec = _stream_spec(seed=22, windows=60)
    expected = {
        21: _fingerprint(_single_engine(crash_spec)),
        22: _fingerprint(_single_engine(quiet_spec)),
    }
    with ClusterController(
        replicas=2, backend="process", checkpoint_dir=str(tmp_path)
    ) as cluster:
        first = cluster.submit(crash_spec, checkpoint_every=1)
        second = cluster.submit(quiet_spec, checkpoint_every=1)
        if first.replica == second.replica:
            # Same placement: still a valid crash test, everything moves.
            pass
        victim = cluster.replicas[first.replica]
        _wait_for_checkpoint(str(tmp_path))
        os.kill(victim.pid, signal.SIGKILL)
        results = {
            21: _fingerprint(first.result(timeout=120)),
            22: _fingerprint(second.result(timeout=120)),
        }
        stats = cluster.stats()
        assert results == expected
        assert stats.recoveries >= 1
        _assert_conserved(stats)


# ----------------------------------------------------------------------
# park on shutdown, resume on a plain single engine
# ----------------------------------------------------------------------
def test_park_from_process_cluster_resumes_on_single_engine(tmp_path):
    spec = _stream_spec(seed=31, windows=60)
    unbroken = _fingerprint(_single_engine(spec))
    cluster = ClusterController(
        replicas=2, backend="process", checkpoint_dir=str(tmp_path)
    )
    session = cluster.submit(spec, checkpoint_every=1)
    _wait_for_checkpoint(str(tmp_path))
    parked = cluster.close(park=True)
    assert session.poll() == "parked"
    assert len(parked) == 1 and parked[0] == session.parked_path
    # The parked file is an ordinary RPCK checkpoint: any engine resumes it.
    with MiningService(max_inflight=2) as service:
        handle = service.resume(parked[0])
        result = handle.result(timeout=120)
    assert _fingerprint(result) == unbroken


# ----------------------------------------------------------------------
# one handoff path, across the wire
# ----------------------------------------------------------------------
def test_lapsed_wire_migrate_wait_parks_then_resume_finishes_it(tmp_path):
    spec = _stream_spec(seed=9, windows=60)
    unbroken = _fingerprint(_single_engine(spec))
    with ClusterController(
        replicas=2, backend="process", max_inflight=1,
        checkpoint_dir=str(tmp_path),
    ) as cluster:
        # Queued behind an occupier, the session cannot reach a boundary
        # within the migrate's wait.
        occupier = cluster.submit(_stream_spec(seed=1, windows=60), replica=0)
        session = cluster.submit(spec, checkpoint_every=2, replica=0)
        with pytest.raises(ClusterError, match="parks at its next boundary"):
            cluster.migrate(session.session_id, 1, timeout=0.001)
        assert session.wait(timeout=120) == "parked"
        assert cluster.resume(session.session_id) in (0, 1)
        result = session.result(timeout=120)
        occupier.result(timeout=120)
        stats = cluster.stats()
    assert _fingerprint(result) == unbroken
    assert session.migrations == stats.migrations == 1
    _assert_conserved(stats)


def test_sigkill_does_not_rerun_a_session_whose_result_was_read(tmp_path):
    long_spec = _stream_spec(seed=42, windows=120)
    unbroken = _fingerprint(_single_engine(long_spec))
    with ClusterController(
        replicas=2, backend="process", checkpoint_dir=str(tmp_path)
    ) as cluster:
        short = cluster.submit(
            _stream_spec(seed=41, windows=2), checkpoint_every=4, replica=0
        )
        long = cluster.submit(long_spec, checkpoint_every=4, replica=0)
        short.result(timeout=120)
        os.kill(cluster.replicas[0].pid, signal.SIGKILL)
        result = long.result(timeout=120)
        stats = cluster.stats()
    assert _fingerprint(result) == unbroken
    assert stats.completed == 2
    assert short.migrations == 0 and long.migrations == 1
    assert stats.recoveries == 1
    _assert_conserved(stats)


def test_rebalance_and_drain_over_the_wire_bit_identical(tmp_path):
    specs = [_stream_spec(seed=seed, windows=100) for seed in (51, 52)]
    unbroken = [_fingerprint(_single_engine(spec)) for spec in specs]
    with ClusterController(
        replicas=2, backend="process", checkpoint_dir=str(tmp_path)
    ) as cluster:
        sessions = [
            cluster.submit(spec, checkpoint_every=4, replica=0)
            for spec in specs
        ]
        moves = cluster.rebalance()
        assert [(src, dst) for _, src, dst in moves] == [(0, 1)]
        (stayed,) = [s for s in sessions if s.session_id != moves[0][0]]
        assert cluster.drain(0) == [(stayed.session_id, 1)]
        results = [session.result(timeout=120) for session in sessions]
        stats = cluster.stats()
    assert [_fingerprint(result) for result in results] == unbroken
    assert stats.rebalances == 1
    assert stats.migrations == 2 == sum(s.migrations for s in sessions)
    _assert_conserved(stats)
