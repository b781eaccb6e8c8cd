"""Booting a process-backed cluster: concurrency, deadlines, clean failure.

Process replicas boot side by side, each on its own short-lived thread,
and are joined in index order.  A boot that fails, hangs past the
``init`` deadline, or is interrupted must leave nothing behind: every
replica that came up is closed, every child is reaped, and the first
failure by index is raised from the constructor.
"""

import logging
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.cluster import ClusterController, ClusterError
from repro.cluster import controller as controller_module
from repro.cluster import transport
from repro.cluster.protocol import TransportError
from repro.serve import SessionSpec


class _FakeReplica:
    """Stands in for a booted :class:`ProcessReplica`."""

    def __init__(self, index):
        self.index = index
        self.closed = False

    def close(self, wait=True, park=False):
        self.closed = True


def _assert_reaped(process):
    """The child exited and its exit status was collected."""
    assert process.returncode is not None, f"child {process.pid} not reaped"
    with pytest.raises(ProcessLookupError):
        os.kill(process.pid, 0)


@pytest.fixture
def spawned(monkeypatch):
    """Every replica child the transport starts, as its Popen object."""
    children = []

    class Recording(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            children.append(self)

    monkeypatch.setattr(transport.subprocess, "Popen", Recording)
    return children


@pytest.fixture
def thread_errors(monkeypatch):
    """Exceptions that escaped any thread."""
    errors = []
    monkeypatch.setattr(threading, "excepthook", errors.append)
    return errors


def _join_recovery_threads():
    for thread in threading.enumerate():
        if thread.name.endswith("-recovery"):
            thread.join(timeout=10)
            assert not thread.is_alive()


def test_process_replicas_boot_concurrently(monkeypatch):
    # Both boots must be in flight at once to pass the barrier.
    barrier = threading.Barrier(2, timeout=10)
    boot_threads = {}

    def boot(index, service, heartbeat_interval, on_death):
        boot_threads[index] = threading.current_thread()
        barrier.wait()
        return _FakeReplica(index)

    monkeypatch.setattr(controller_module, "ProcessReplica", boot)
    cluster = ClusterController(replicas=2, backend="process")
    assert [r.index for r in cluster.replicas] == [0, 1]
    assert threading.current_thread() not in boot_threads.values()
    cluster.close()
    assert all(r.closed for r in cluster.replicas)


def test_in_process_replicas_boot_on_the_calling_thread(monkeypatch):
    booted_on = []
    real = controller_module.MiningService

    def service(**kwargs):
        booted_on.append(threading.current_thread())
        return real(**kwargs)

    monkeypatch.setattr(controller_module, "MiningService", service)
    with ClusterController(replicas=2):
        pass
    assert booted_on == [threading.current_thread()] * 2


def test_first_boot_failure_by_index_is_raised_after_all_boots(monkeypatch):
    # Replica 2 fails first in time, replica 1 first by index.
    failed_2 = threading.Event()
    fakes = []

    def boot(index, service, heartbeat_interval, on_death):
        if index == 2:
            failed_2.set()
            raise RuntimeError("boot 2 failed")
        if index == 1:
            failed_2.wait(timeout=10)
            raise RuntimeError("boot 1 failed")
        time.sleep(0.2)  # still booting when the others fail
        fakes.append(_FakeReplica(index))
        return fakes[-1]

    monkeypatch.setattr(controller_module, "ProcessReplica", boot)
    with pytest.raises(RuntimeError, match="boot 1 failed"):
        ClusterController(replicas=3, backend="process")
    assert len(fakes) == 1 and fakes[0].closed


def test_interrupt_while_booting_waits_then_closes(monkeypatch):
    main = threading.main_thread()
    release = threading.Event()
    fakes = []

    def boot(index, service, heartbeat_interval, on_death):
        if index == 1:
            signal.pthread_kill(main.ident, signal.SIGINT)
            threading.Timer(0.3, release.set).start()
        else:
            release.wait(timeout=10)
        fakes.append(_FakeReplica(index))
        return fakes[-1]

    monkeypatch.setattr(controller_module, "ProcessReplica", boot)
    previous = signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        with pytest.raises(KeyboardInterrupt):
            ClusterController(replicas=2, backend="process")
    finally:
        signal.signal(signal.SIGINT, previous)
    # Replica 0 was still booting at the interrupt; it was waited out.
    assert sorted(f.index for f in fakes) == [0, 1]
    assert all(f.closed for f in fakes)


def test_replica_dying_during_boot_raises_without_thread_errors(
    monkeypatch, spawned, thread_errors
):
    monkeypatch.setattr(sys, "executable", "/bin/false")
    with pytest.raises(TransportError, match="replica 0"):
        ClusterController(replicas=1, backend="process")
    _join_recovery_threads()
    assert thread_errors == []
    assert len(spawned) == 1
    _assert_reaped(spawned[0])


def test_init_deadline_kills_a_silent_child(
    monkeypatch, tmp_path, spawned, thread_errors
):
    silent = tmp_path / "silent-python"
    silent.write_text("#!/bin/sh\nexec sleep 60\n")
    silent.chmod(0o755)
    monkeypatch.setattr(sys, "executable", str(silent))
    monkeypatch.setattr(transport, "INIT_TIMEOUT_S", 1.0)
    began = time.monotonic()
    with pytest.raises(TransportError, match="replica 0.*'init'.*timed out"):
        ClusterController(replicas=1, backend="process")
    assert time.monotonic() - began < 10
    _join_recovery_threads()
    assert thread_errors == []
    assert len(spawned) == 1
    _assert_reaped(spawned[0])


def test_failed_boot_leaves_no_child_alive(monkeypatch, spawned):
    real = controller_module.ProcessReplica

    def boot(index, *args, **kwargs):
        if index == 1:
            raise RuntimeError("replica 1 failed to boot")
        return real(index, *args, **kwargs)

    monkeypatch.setattr(controller_module, "ProcessReplica", boot)
    with pytest.raises(RuntimeError, match="replica 1 failed to boot"):
        ClusterController(replicas=2, backend="process")
    assert len(spawned) == 1
    _assert_reaped(spawned[0])


@pytest.mark.parametrize(
    "interval", [float("nan"), float("inf"), float("-inf"), 0.0, -1.0]
)
def test_bad_heartbeat_interval_refused_before_any_spawn(monkeypatch, interval):
    def no_spawn(*args, **kwargs):
        raise AssertionError("a replica was spawned")

    monkeypatch.setattr(transport.subprocess, "Popen", no_spawn)
    with pytest.raises(ClusterError, match="heartbeat_interval"):
        ClusterController(
            replicas=2, backend="process", heartbeat_interval=interval
        )


@pytest.mark.parametrize("level", ["ERROR", "WARNING"])
def test_replica_child_logs_at_its_parents_level(capfd, level):
    """A replica child installs the CLI's stderr handler at the level of
    its parent's ``repro`` logger, so its engine's warnings print with
    their level and logger name, and ``-q`` silences them."""
    logger = logging.getLogger("repro")
    previous = logger.level
    logger.setLevel(level)
    try:
        replica = transport.ProcessReplica(0, {"max_inflight": 1})
    finally:
        logger.setLevel(previous)
    try:
        # Party 5 of three: the spec is valid, the run fails.
        spec = SessionSpec(
            kind="stream", dataset="wine", k=3, windows=4, window_size=32,
            compute_privacy=False,
            trust_changes=({"window": 1, "party": 5, "trust": 0.5},),
        )
        assert replica.submit(spec).wait(timeout=60) == "failed"
    finally:
        replica.close()
    lines = capfd.readouterr().err.splitlines()
    failed = [line for line in lines if "session 0 failed" in line]
    if level == "ERROR":
        assert failed == []
    else:
        assert failed and failed[0].startswith(
            "WARNING repro.serve.engine: session 0 failed"
        )
