"""Process replicas across a run's whole life: reused directories, and
sessions whose ends the parent has collected.

A checkpoint directory can outlive a run, and engine labels restart at
``session-0`` in every run, so crash recovery must resume only a file
written for the session it recovers.  A replica forgets a session once
the parent has collected its end, so the parent must answer every later
question about that session from what it already holds.
"""

import glob
import os
import shutil
import signal
import time

from repro.cluster import ClusterController
from repro.serve import MiningService
from tests.test_cluster_process import _fingerprint, _single_engine, _stream_spec

PLANTED = "w00118"


def _earlier_runs_checkpoint(directory):
    """An engine checkpoint of another workload, as an earlier run left it."""
    with MiningService(max_inflight=1, checkpoint_dir=str(directory)) as service:
        service.submit(
            _stream_spec(seed=77, windows=40), checkpoint_every=20
        ).result(timeout=120)
    return sorted(glob.glob(os.path.join(str(directory), "*.ckpt")))[0]


def _wait_for_own_checkpoint(directory, timeout=30.0):
    """Block until a replica wrote a checkpoint beside the planted ones."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        for _, _, files in os.walk(directory):
            if any(f.endswith(".ckpt") and PLANTED not in f for f in files):
                return
        time.sleep(0.005)
    raise AssertionError(f"no checkpoint appeared under {directory}")


def test_recovery_skips_an_earlier_runs_checkpoint_under_the_same_label(tmp_path):
    spec = _stream_spec(seed=11, windows=120)
    unbroken = _fingerprint(_single_engine(spec))
    planted = _earlier_runs_checkpoint(tmp_path / "earlier")
    root = tmp_path / "reused"
    for replica in (0, 1):
        os.makedirs(root / f"replica-{replica}")
        for session in (0, 1):
            name = f"session-{session}-{PLANTED}.ckpt"
            shutil.copy(planted, root / f"replica-{replica}" / name)
    with ClusterController(
        replicas=2, backend="process", checkpoint_dir=str(root)
    ) as cluster:
        session = cluster.submit(spec, checkpoint_every=4)
        victim = cluster.replicas[session.replica]
        _wait_for_own_checkpoint(str(root))
        os.kill(victim.pid, signal.SIGKILL)
        result = session.result(timeout=120)
        stats = cluster.stats()
    assert session.migrations == 1 and stats.recoveries == 1
    assert _fingerprint(result) == unbroken


def test_replicas_forget_the_sessions_whose_ends_were_collected(tmp_path):
    specs = [_stream_spec(seed=seed, windows=60) for seed in (1, 2, 3)]
    unbroken = [_fingerprint(_single_engine(spec)) for spec in specs]
    with ClusterController(
        replicas=2, backend="process", checkpoint_dir=str(tmp_path)
    ) as cluster:
        sessions = [cluster.submit(spec, checkpoint_every=1) for spec in specs]
        moved = sessions[0]
        assert cluster.migrate(moved.session_id, 1 - moved.replica) is not None
        results = [session.result(timeout=120) for session in sessions]
        assert moved.migrations == 1
        # Every end was collected (the migrated hop's by its eviction),
        # so no replica still holds a session...
        for replica in cluster.replicas:
            assert replica._rpc("ping")["active"] == 0
        # ...and the parent answers from what it collected.
        for session, result in zip(sessions, results):
            assert session.poll() == "completed"
            assert session.result(timeout=1) is result
            assert session.cancel() is False
    assert [_fingerprint(result) for result in results] == unbroken
