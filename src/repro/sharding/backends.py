"""Worker-pool executors behind the sharded engine.

Two executors run the per-shard task functions of
:mod:`repro.sharding.worker`, under three names:

* :class:`SerialBackend` — runs tasks inline on the caller's thread, in
  submission order: the deterministic reference, which the pool must
  match byte for byte (tasks are pure functions of their arguments, and
  results are always collected in submission order).  The names
  ``serial`` and ``thread`` both build it, in every layer: a standalone
  session, a serving engine's drivers and a cluster replica.  The shard
  tasks are numpy calls on a few columns that hold the interpreter lock,
  so a thread pool added handoffs and no parallelism.
* :class:`ProcessBackend` — ``concurrent.futures.ProcessPoolExecutor``.
  True multi-core parallelism; tasks and results cross a pickle boundary,
  so task functions must be module-level and arguments picklable (the
  worker module is written to that contract).  It is the one backend
  whose dispatches overlap the caller's work.

All backends expose the same operations — ordered :meth:`map`, its
asynchronous sibling :meth:`submit_map` (which returns a gatherable
:class:`ShardFutures` handle instead of blocking), and :meth:`close` —
plus context-manager sugar.  Ordered collection is the load-bearing
property: completion order may vary wildly across backends and runs, but
``map``/``gather`` always return ``[fn(t) for t in tasks]`` in task
order, which is what makes the engine's merge step deterministic.
``submit_map`` is what lets the streaming driver pipeline rounds: it
dispatches one round's tasks to the pool and keeps the driver free to run
the next round's control plane while they execute, gathering later in
strict round order.  On the serial backend the handle is already
completed at submit time (tasks ran inline, in order), so a pipelined
driver degenerates to exactly the serial execution order.

A failed task fails the whole dispatch: ``gather`` (and therefore
``map``) re-raises the *first* failing task's exception in task order and
cancels every not-yet-started future of the same dispatch, so a poisoned
batch does not keep burning a shared pool's workers on work whose round
is already dead.  Tasks already running when the failure surfaces cannot
be interrupted — ``concurrent.futures`` has no preemption — but nothing
queued behind them starts.

Backends are safe to share between session driver threads: the serving
layer (:mod:`repro.serve`) hands one pool to many concurrent sessions, so
lazy pool construction is lock-guarded and ``submit`` relies on the
``concurrent.futures`` executors' own thread safety.  A shared pool is
usually wrapped in a :class:`MeteredBackend`, which counts dispatched
tasks and worker-occupancy busy time — submit→gather spans included — so
the service can report a utilization figure that stays ``<= 1`` even
when many sessions overlap on the pool.
"""

from __future__ import annotations

import abc
import threading
import time
from concurrent.futures import Executor, Future, ProcessPoolExecutor
from typing import Callable, List, Optional, Sequence, TypeVar

__all__ = [
    "BACKENDS",
    "ShardFutures",
    "ShardBackend",
    "SerialBackend",
    "ProcessBackend",
    "MeteredBackend",
    "make_backend",
]

BACKENDS = ("serial", "thread", "process")

_Task = TypeVar("_Task")
_Result = TypeVar("_Result")


class ShardFutures:
    """A gatherable handle for one :meth:`ShardBackend.submit_map` dispatch.

    ``gather`` blocks until every task of the dispatch finished and
    returns their results in *task* order — the same list the blocking
    ``map`` would have returned.  It may be called once; the handle is
    consumed by it.  ``cancel`` abandons whatever has not started yet
    (best-effort: running tasks cannot be interrupted).
    """

    def gather(self) -> List[_Result]:
        """Block for, then return, the dispatch's results in task order."""
        raise NotImplementedError

    def done(self) -> bool:
        """True once every task of the dispatch has finished."""
        raise NotImplementedError

    def cancel(self) -> None:
        """Best-effort cancellation of every not-yet-started task."""

    def on_done(self, callback: Callable[[], None]) -> None:
        """Invoke ``callback`` exactly once when every task has settled.

        Settled means finished, failed, or cancelled.  The callback may
        run on the process pool's thread or inline (completed
        handles); metering uses it to close a dispatch's busy span when
        the work actually ends rather than when the driver gathers.
        """
        callback()


class _CompletedFutures(ShardFutures):
    """An already-completed dispatch (serial backend, empty task lists)."""

    def __init__(self, results: List[_Result]) -> None:
        self._results = results

    def gather(self) -> List[_Result]:
        """Return the inline-computed results (no blocking)."""
        return self._results

    def done(self) -> bool:
        """Always true: the work ran at submit time."""
        return True


class _PoolFutures(ShardFutures):
    """A dispatch in flight on a ``concurrent.futures`` executor."""

    def __init__(self, futures: List["Future[_Result]"]) -> None:
        self._futures = futures

    def on_done(self, callback: Callable[[], None]) -> None:
        """Fire ``callback`` when the dispatch's last future settles."""
        pending = [len(self._futures)]
        lock = threading.Lock()

        def _one_settled(_future: "Future[_Result]") -> None:
            with lock:
                pending[0] -= 1
                if pending[0]:
                    return
            callback()

        for future in self._futures:
            future.add_done_callback(_one_settled)

    def gather(self) -> List[_Result]:
        """Collect results in submission order, failing fast.

        The first task failure (in task order) cancels every outstanding
        future of this dispatch before re-raising, so one poisoned task
        does not keep a shared pool busy finishing a dead round's work.
        """
        results: List[_Result] = []
        try:
            for future in self._futures:
                results.append(future.result())
        except BaseException:
            self.cancel()
            raise
        return results

    def done(self) -> bool:
        """True once every future of the dispatch has settled."""
        return all(future.done() for future in self._futures)

    def cancel(self) -> None:
        """Cancel every future that has not started running yet."""
        for future in self._futures:
            future.cancel()


class ShardBackend(abc.ABC):
    """Common contract: ordered map over pure task functions."""

    #: backend identifier, matching the :func:`make_backend` key
    name: str = "abstract"

    #: whether dispatches can make progress while the driver does other
    #: work — i.e. whether a pipelined driver can actually hide latency
    #: behind :meth:`submit_map` (false for inline/serial execution)
    supports_overlap: bool = False

    @abc.abstractmethod
    def map(
        self, fn: Callable[[_Task], _Result], tasks: Sequence[_Task]
    ) -> List[_Result]:
        """Apply ``fn`` to every task and return results in *task* order."""

    def submit_map(
        self, fn: Callable[[_Task], _Result], tasks: Sequence[_Task]
    ) -> ShardFutures:
        """Dispatch the tasks without blocking; gather the handle later.

        The base implementation runs the tasks inline and hands back an
        already-completed handle — correct for any backend, overlapping
        for none.  The process backend overrides it with a real
        asynchronous dispatch.
        """
        return _CompletedFutures(self.map(fn, tasks))

    def close(self) -> None:
        """Release pooled workers (idempotent; no-op for serial)."""

    def warm(self) -> None:
        """Eagerly build the worker pool (no-op for serial).

        Long-lived owners (the serving engine) call this from the
        constructing thread so a process pool is forked *before* any
        driver threads exist — forking a multi-threaded process can leave
        child workers holding another thread's locks.
        """

    def __enter__(self) -> "ShardBackend":
        """Context-manager entry: the backend itself."""
        return self

    def __exit__(self, *exc_info: object) -> None:
        """Context-manager exit: shut the pool down."""
        self.close()


def _warm_noop() -> None:
    """Module-level no-op task used to pre-fork pool workers (picklable)."""


class SerialBackend(ShardBackend):
    """Inline execution — the deterministic reference backend."""

    name = "serial"

    def map(
        self, fn: Callable[[_Task], _Result], tasks: Sequence[_Task]
    ) -> List[_Result]:
        """Run every task in the calling thread, in order."""
        return [fn(task) for task in tasks]


class ProcessBackend(ShardBackend):
    """Process-pool execution; requires picklable tasks and results."""

    name = "process"
    supports_overlap = True

    def __init__(self, n_workers: int) -> None:
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.n_workers = n_workers
        self._pool: Optional[Executor] = None
        self._lock = threading.Lock()

    def _make_pool(self) -> Executor:
        """Build the executor; the one place that picks its kind."""
        return ProcessPoolExecutor(max_workers=self.n_workers)

    def _executor(self) -> Executor:
        """The executor, built on first use (after a close, anew)."""
        with self._lock:
            # Concurrent session drivers may race to the first dispatch;
            # only one of them must build the executor.
            if self._pool is None:
                self._pool = self._make_pool()
            return self._pool

    def submit_map(
        self, fn: Callable[[_Task], _Result], tasks: Sequence[_Task]
    ) -> ShardFutures:
        """Submit all tasks and return the in-flight dispatch handle."""
        if not tasks:
            return _CompletedFutures([])
        pool = self._executor()
        return _PoolFutures([pool.submit(fn, task) for task in tasks])

    def map(
        self, fn: Callable[[_Task], _Result], tasks: Sequence[_Task]
    ) -> List[_Result]:
        """Submit all tasks, then gather results in submission order."""
        return self.submit_map(fn, tasks).gather()

    def close(self) -> None:
        """Shut the pool down and drop the worker handles."""
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def warm(self) -> None:
        """Build the executor and pre-start its workers, on this thread.

        Executors start workers lazily at submit time, so warming submits
        one no-op per worker — every child forks here, before the owner
        spins up any other threads.
        """
        pool = self._executor()
        futures = [pool.submit(_warm_noop) for _ in range(self.n_workers)]
        for future in futures:
            future.result()


class _MeteredFutures(ShardFutures):
    """Wraps a dispatch handle so its busy span ends when it is gathered."""

    def __init__(
        self, inner: ShardFutures, owner: "MeteredBackend", weight: int, n_tasks: int
    ) -> None:
        self._inner = inner
        self._owner = owner
        self._weight = weight
        self._n_tasks = n_tasks
        self._settled = False
        # gather() and cancel() may race from different threads; the span
        # must be closed exactly once or the occupancy ledger corrupts.
        self._settle_lock = threading.Lock()

    def _settle(self) -> None:
        with self._settle_lock:
            if self._settled:
                return
            self._settled = True
        self._owner._end_span(self._weight, self._n_tasks)

    def gather(self) -> List[_Result]:
        """Gather the wrapped dispatch, closing its busy span exactly once."""
        try:
            return self._inner.gather()
        finally:
            self._settle()

    def done(self) -> bool:
        """True once the wrapped dispatch has settled."""
        return self._inner.done()

    def cancel(self) -> None:
        """Cancel the wrapped dispatch and close its busy span."""
        self._inner.cancel()
        self._settle()

    def on_done(self, callback: Callable[[], None]) -> None:
        """Delegate completion notification to the wrapped dispatch."""
        self._inner.on_done(callback)


class MeteredBackend(ShardBackend):
    """A pass-through wrapper that meters the demand placed on a backend.

    Every dispatch — blocking ``map`` and asynchronous ``submit_map``
    alike — is forwarded unchanged; the wrapper accumulates the number of
    tasks and batches dispatched plus ``busy_seconds``, a *worker
    occupancy* integral: at any instant the in-flight dispatches demand
    ``min(tasks, workers)`` workers each (one, the caller's thread, on an
    inline backend), the total is clamped at ``n_workers``, the threads
    that run the tasks, and ``busy_seconds`` integrates that clamped
    occupancy over time.  A dispatch's span opens at submit (not
    just while a driver is blocked, so pipelined rounds are accounted for
    the whole time they occupy workers) and closes as soon as its last
    task settles — or at gather/cancel, whichever comes first — so a
    handle a driver is slow to gather does not count idle workers as
    busy.  Because occupancy never exceeds the worker count,
    ``busy_seconds <= workers x elapsed`` and :meth:`utilization` is
    ``<= 1`` no matter how many concurrent sessions overlap on the pool —
    concurrent spans share the capacity instead of being double-counted.
    """

    name = "metered"

    def __init__(self, inner: ShardBackend, n_workers: Optional[int] = None) -> None:
        self.inner = inner
        self.name = f"metered-{inner.name}"
        #: the threads that run the tasks: the wrapped pool's workers, or,
        #: for an inline backend, the callers it is shared by
        self.n_workers = (
            getattr(inner, "n_workers", 1) if n_workers is None else n_workers
        )
        self._lock = threading.Lock()
        self.tasks_dispatched = 0
        self.batches_dispatched = 0
        self.busy_seconds = 0.0
        self._active_weight = 0
        self._last_transition = time.perf_counter()

    @property
    def supports_overlap(self) -> bool:  # type: ignore[override]
        """Whether the wrapped backend can overlap dispatches with the driver."""
        return self.inner.supports_overlap

    # -- occupancy integral, guarded by the lock -------------------------
    def _advance_clock(self, now: float) -> None:
        """Integrate the clamped occupancy since the last transition."""
        if self._active_weight > 0:
            occupied = min(self._active_weight, self.n_workers)
            self.busy_seconds += (now - self._last_transition) * occupied
        self._last_transition = now

    def _begin_span(self, weight: int) -> None:
        with self._lock:
            self._advance_clock(time.perf_counter())
            self._active_weight += weight

    def _end_span(self, weight: int, n_tasks: int) -> None:
        with self._lock:
            self._advance_clock(time.perf_counter())
            self._active_weight -= weight
            self.tasks_dispatched += n_tasks
            self.batches_dispatched += 1

    def _span_weight(self, n_tasks: int) -> int:
        """Workers one dispatch can occupy: its task count, clamped to the
        wrapped backend's workers (an inline dispatch occupies its caller)."""
        return max(1, min(n_tasks, getattr(self.inner, "n_workers", 1)))

    def map(
        self, fn: Callable[[_Task], _Result], tasks: Sequence[_Task]
    ) -> List[_Result]:
        """Forward to the wrapped backend inside one accounted busy span."""
        weight = self._span_weight(len(tasks))
        self._begin_span(weight)
        try:
            return self.inner.map(fn, tasks)
        finally:
            self._end_span(weight, len(tasks))

    def submit_map(
        self, fn: Callable[[_Task], _Result], tasks: Sequence[_Task]
    ) -> ShardFutures:
        """Forward the dispatch; its busy span closes at gather time."""
        if not tasks:
            # Nothing occupies a worker: count the batch, open no span
            # (a weight-1 span would stay open until the caller gathers).
            inner = self.inner.submit_map(fn, tasks)
            with self._lock:
                self.batches_dispatched += 1
            return inner
        weight = self._span_weight(len(tasks))
        self._begin_span(weight)
        try:
            inner = self.inner.submit_map(fn, tasks)
        except BaseException:
            self._end_span(weight, len(tasks))
            raise
        handle = _MeteredFutures(inner, self, weight, len(tasks))
        # Close the span the moment the work actually ends; the gather/
        # cancel settle in the handle is the (idempotent) backstop that
        # guarantees the ledger balances even on error paths.
        inner.on_done(handle._settle)
        return handle

    def close(self) -> None:
        """Close the wrapped backend."""
        self.inner.close()

    def warm(self) -> None:
        """Eagerly build the wrapped backend's pool."""
        self.inner.warm()

    def utilization(self, elapsed_seconds: float) -> float:
        """Fraction of ``workers x elapsed`` capacity that was occupied.

        Clamped to ``[0, 1]``: occupancy cannot exceed the worker count by
        construction, and the clamp additionally absorbs the sub-tick skew
        between the caller's elapsed clock and the span transitions.
        """
        if elapsed_seconds <= 0:
            return 0.0
        with self._lock:
            self._advance_clock(time.perf_counter())
            busy = self.busy_seconds
        return min(1.0, busy / (self.n_workers * elapsed_seconds))


def make_backend(kind: str, n_workers: Optional[int] = None) -> ShardBackend:
    """Factory keyed by backend name.

    ``serial`` and ``thread`` both build the inline :class:`SerialBackend`
    (see the module docstring); ``n_workers`` sizes only the process pool
    and defaults to 1.
    """
    if kind in ("serial", "thread"):
        return SerialBackend()
    if kind == "process":
        return ProcessBackend(1 if n_workers is None else n_workers)
    raise ValueError(
        f"unknown shard backend {kind!r}; available: {', '.join(BACKENDS)}"
    )
