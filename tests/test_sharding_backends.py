"""Executor backends: ordered results, equivalence, lifecycle, metering."""

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.sharding import (
    MeteredBackend,
    ProcessBackend,
    SerialBackend,
    ShardPool,
    ShardPlan,
    make_backend,
)
from repro.sharding.worker import transform_window


class ThreadPoolBackend(ProcessBackend):
    """The pool backend on worker threads instead of processes.

    Same dispatch, gather, cancel and close code as the process pool, but
    tasks may be closures and a pool costs no fork, so tests can pipeline
    sessions and probe dispatch timing cheaply.
    """

    name = "thread-pool"

    def _make_pool(self):
        return ThreadPoolExecutor(max_workers=self.n_workers)


def _square(task):
    return task * task


def _slow_square(task):
    time.sleep(0.2)
    return task * task


def test_serial_backend_preserves_order():
    assert SerialBackend().map(_square, list(range(10))) == [
        i * i for i in range(10)
    ]


@pytest.mark.parametrize("backend_cls", [ThreadPoolBackend, ProcessBackend])
def test_pool_backends_match_serial(backend_cls):
    tasks = list(range(20))
    expected = SerialBackend().map(_square, tasks)
    with backend_cls(n_workers=3) as backend:
        assert backend.map(_square, tasks) == expected


def test_empty_task_list_is_fine():
    for kind in ("serial", "thread", "process"):
        with make_backend(kind, 2) as backend:
            assert backend.map(_square, []) == []


def test_make_backend_rejects_unknown_kind():
    with pytest.raises(ValueError):
        make_backend("gpu")
    with pytest.raises(ValueError):
        ProcessBackend(0)


def test_thread_names_the_inline_backend():
    """``thread`` runs tasks on the caller's thread, as ``serial`` does."""
    assert isinstance(make_backend("thread", 4), SerialBackend)
    assert not make_backend("thread", 4).supports_overlap


def test_pool_survives_close_and_reuse():
    backend = ThreadPoolBackend(2)
    assert backend.map(_square, [1, 2]) == [1, 4]
    backend.close()
    backend.close()  # idempotent
    # A fresh pool is created lazily on the next map.
    assert backend.map(_square, [3]) == [9]
    backend.close()


# ----------------------------------------------------------------------
# asynchronous dispatch (submit_map / ShardFutures)
# ----------------------------------------------------------------------
def test_serial_submit_map_is_already_completed():
    handle = SerialBackend().submit_map(_square, [1, 2, 3])
    assert handle.done()
    assert handle.gather() == [1, 4, 9]


@pytest.mark.parametrize("kind", ["serial", "thread", "process"])
def test_submit_map_gathers_in_task_order(kind):
    tasks = list(range(25))
    with make_backend(kind, 3) as backend:
        handle = backend.submit_map(_square, tasks)
        assert handle.gather() == [i * i for i in tasks]


def test_submit_map_empty_tasks():
    with ThreadPoolBackend(2) as backend:
        handle = backend.submit_map(_square, [])
        assert handle.done() and handle.gather() == []


def test_submit_map_overlaps_with_driver_work():
    """The driver stays free between submit and gather on a pool backend."""
    gate = threading.Event()

    def wait_then_square(task):
        assert gate.wait(timeout=30)
        return task * task

    with ThreadPoolBackend(2) as backend:
        assert backend.supports_overlap
        handle = backend.submit_map(wait_then_square, [1, 2])
        assert not handle.done()  # tasks are parked on the gate
        gate.set()  # "driver work" done; now gather
        assert handle.gather() == [1, 4]
    assert not SerialBackend().supports_overlap


def test_process_submit_map_returns_before_its_tasks_finish():
    """The process pool is the backend that overlaps: a slow dispatch is
    still running when ``submit_map`` returns, and gathers in order."""
    with ProcessBackend(2) as backend:
        assert backend.supports_overlap
        backend.warm()  # time the dispatch, not the fork
        handle = backend.submit_map(_slow_square, [3, 1, 2])
        assert not handle.done()
        assert handle.gather() == [9, 1, 4]
        assert handle.done()


# ----------------------------------------------------------------------
# fail-fast: a poisoned task cancels the rest of its dispatch
# ----------------------------------------------------------------------
def test_map_cancels_outstanding_tasks_on_first_failure():
    executed = []

    def poisoned(task):
        if task == 0:
            time.sleep(0.02)
            raise RuntimeError("poisoned task")
        executed.append(task)
        time.sleep(0.02)
        return task

    n_tasks = 64
    with ThreadPoolBackend(2) as backend:
        with pytest.raises(RuntimeError, match="poisoned task"):
            backend.map(poisoned, list(range(n_tasks)))
    # While task 0 ran (and failed), the second worker got through at most
    # a couple of tasks; everything still queued was cancelled instead of
    # running to completion behind the dead round's back.
    assert len(executed) < n_tasks // 2


def test_serial_map_stops_at_first_failure():
    executed = []

    def poisoned(task):
        if task == 3:
            raise RuntimeError("poisoned task")
        executed.append(task)
        return task

    with pytest.raises(RuntimeError, match="poisoned task"):
        SerialBackend().map(poisoned, list(range(10)))
    assert executed == [0, 1, 2]


# ----------------------------------------------------------------------
# metering: worker-occupancy busy time, utilization <= 1
# ----------------------------------------------------------------------
def _nap(seconds):
    time.sleep(seconds)
    return seconds


def test_metered_busy_time_counts_concurrent_spans_once():
    """Overlapping dispatches from many drivers share the pool's capacity
    in the ledger instead of being double-counted — utilization <= 1."""
    metered = MeteredBackend(ThreadPoolBackend(2))
    began = time.perf_counter()
    drivers = [
        threading.Thread(target=lambda: metered.map(_nap, [0.03, 0.03]))
        for _ in range(4)
    ]
    for t in drivers:
        t.start()
    for t in drivers:
        t.join()
    elapsed = time.perf_counter() - began
    assert metered.tasks_dispatched == 8
    assert metered.batches_dispatched == 4
    assert metered.busy_seconds > 0
    # 4 concurrent 2-task batches on a 2-worker pool: demand is 4x the
    # capacity, the occupancy ledger must still stay within it.
    assert metered.busy_seconds <= 2 * elapsed + 1e-6
    assert metered.utilization(elapsed) <= 1.0
    metered.close()


def test_metered_accounts_async_spans_from_submit():
    """An async dispatch is busy from submit on, not just while a driver
    blocks inside map()."""
    metered = MeteredBackend(ThreadPoolBackend(2))
    handle = metered.submit_map(_nap, [0.05])
    time.sleep(0.02)  # driver-side work while the task runs
    assert metered.batches_dispatched == 0  # span still open
    handle.gather()
    assert metered.batches_dispatched == 1
    assert metered.tasks_dispatched == 1
    # The span covers the task's whole execution (>= task time).
    assert metered.busy_seconds >= 0.04
    metered.close()


def test_metered_span_closes_when_work_ends_not_at_late_gather():
    """A handle the driver is slow to gather must not count idle workers
    as busy: the span closes when the last task settles."""
    metered = MeteredBackend(ThreadPoolBackend(2))
    handle = metered.submit_map(_nap, [0.02])
    time.sleep(0.15)  # work finished long ago; the driver dawdles
    assert handle.gather() == [0.02]
    assert metered.busy_seconds < 0.1  # ~0.02, definitely not ~0.17
    metered.close()


def test_metered_span_settles_exactly_once():
    """gather() and cancel() on the same handle close its span once."""
    metered = MeteredBackend(ThreadPoolBackend(2))
    handle = metered.submit_map(_square, [1, 2])
    assert handle.gather() == [1, 4]
    handle.cancel()  # racing/late cancellers must not re-close the span
    assert metered.batches_dispatched == 1
    assert metered.tasks_dispatched == 2
    assert metered._active_weight == 0  # the ledger balanced
    metered.close()


def test_metered_empty_dispatch_opens_no_span():
    metered = MeteredBackend(ThreadPoolBackend(2))
    handle = metered.submit_map(_square, [])
    time.sleep(0.02)  # a phantom span would integrate over this wait
    assert handle.gather() == []
    assert metered.batches_dispatched == 1
    assert metered.tasks_dispatched == 0
    assert metered.busy_seconds == 0.0
    metered.close()


def test_metered_utilization_is_clamped_and_nonnegative():
    metered = MeteredBackend(SerialBackend())
    assert metered.utilization(0.0) == 0.0
    metered.map(_nap, [0.01])
    assert 0.0 < metered.utilization(0.005) <= 1.0  # tiny elapsed: clamped
    assert not metered.supports_overlap  # delegates to the serial inner


def _transform_task(seed=0):
    rng = np.random.default_rng(seed)
    d, n, k = 5, 12, 3
    rotation = np.linalg.qr(rng.normal(size=(d, d)))[0]
    return {
        "X": rng.normal(size=(n, d)),
        "norm_kind": "zscore",
        "norm_a": np.zeros(d),
        "norm_b": np.ones(d),
        "rotation": rotation,
        "translation": rng.uniform(-1, 1, size=d),
        "adaptor_rotations": np.stack([np.eye(d)] * k),
        "sigmas": np.full(k, 0.05),
        "noise_root": 42,
        "window_index": 3,
    }


@pytest.mark.parametrize("kind", ["serial", "thread", "process"])
def test_transform_task_bit_identical_across_backends(kind):
    """The worker functions are pure: same task, same bytes, any backend."""
    reference = transform_window(_transform_task())
    with ShardPool(ShardPlan(2), kind) as pool:
        results = pool.map(transform_window, [_transform_task()] * 4)
    for result in results:
        assert np.array_equal(result["X_target"], reference["X_target"])
        assert np.array_equal(result["X_norm"], reference["X_norm"])


def test_noise_depends_on_window_and_party_keys_only():
    """Noise is keyed by (root, window, party): re-running a task reproduces
    it; changing the window index changes the realization."""
    a = transform_window(_transform_task())
    b = transform_window(_transform_task())
    assert np.array_equal(a["X_target"], b["X_target"])
    shifted = _transform_task()
    shifted["window_index"] = 4
    c = transform_window(shifted)
    assert not np.array_equal(a["X_target"], c["X_target"])
    assert np.array_equal(a["X_norm"], c["X_norm"])  # noise-free part equal
