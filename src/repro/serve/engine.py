"""The multi-session serving engine.

:class:`MiningService` (alias :data:`Engine`) is the long-lived front door
the ROADMAP's serving milestone asks for: it runs many concurrent
:class:`~repro.serve.spec.SessionSpec` workloads — batch protocol runs and
stream sessions side by side — on its driver threads, each session's shard
tasks inline on its own driver or on **one** shared process pool, metered
either way, with

* **admission control**: at most ``max_inflight`` sessions execute
  concurrently, at most ``queue_limit`` more may wait, and anything beyond
  that is rejected with a friendly :class:`AdmissionError` instead of an
  unbounded backlog;
* **per-tenant isolation**: every spec's seed is namespaced by its tenant
  (see :meth:`SessionSpec.resolved_seed`), and each tenant can carry a
  :class:`TenantPolicy` bounding its concurrent sessions, total accepted
  sessions, and privacy/attack-suite evaluations;
* **deterministic results**: a session executed by the service is
  bit-identical to running the same spec alone through the legacy
  one-shot entry points, because the shared pool only changes *where*
  pure shard tasks run, never what they compute or how results merge.

:func:`execute_spec` is the single execution path underneath everything:
the legacy :func:`repro.run_sap_session` / :func:`repro.run_stream_session`
wrappers call it inline with no service around them, and the service calls
it on a driver thread with its metered backend plugged in.
"""

from __future__ import annotations

import logging
import sys
import threading
import time
from collections import deque
from concurrent.futures import CancelledError, Future, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, replace
from typing import (
    Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union,
)

from ..checkpoint import (
    CheckpointError,
    Checkpointer,
    SessionCheckpoint,
    SessionEvicted,
    load_checkpoint,
    register,
)
from ..checks import require_choice
from ..core.session import SAPSessionResult, _execute_sap_session
from ..datasets.partition import PartitionScheme
from ..datasets.registry import load_dataset
from ..datasets.schema import Dataset
from ..obs import Telemetry, pool_collector, service_collector
from ..sharding.backends import BACKENDS, MeteredBackend, ShardBackend, make_backend
from ..streaming.sources import StreamSource
from ..streaming.stream_session import StreamSessionResult, _execute_stream_session
from .spec import SessionSpec

_LOG = logging.getLogger("repro.serve.engine")

__all__ = [
    "AdmissionError",
    "TenantPolicy",
    "SessionHandle",
    "TenantStats",
    "PoolStats",
    "ServiceStats",
    "MiningService",
    "Engine",
    "execute_spec",
]

#: result type either kind of session produces
SessionResult = Union[SAPSessionResult, StreamSessionResult]


class AdmissionError(ValueError):
    """A session was refused admission (capacity or tenant budget).

    Subclasses :class:`ValueError` so the CLI's friendly exit-2 handling
    applies without special-casing.
    """


@dataclass(frozen=True)
class TenantPolicy:
    """Per-tenant admission budgets (``None`` means unbounded).

    Attributes
    ----------
    max_active:
        Most sessions the tenant may have queued or running at once.
    max_sessions:
        Most sessions the service will ever accept from the tenant.
    privacy_budget:
        Most sessions *with privacy/attack-suite evaluation enabled* the
        service will accept — the attack suite is the expensive, revealing
        part of a run, so it is budgeted separately, in the spirit of
        per-trust-level perturbation budgets.
    """

    max_active: Optional[int] = None
    max_sessions: Optional[int] = None
    privacy_budget: Optional[int] = None

    def __post_init__(self) -> None:
        for name in ("max_active", "max_sessions", "privacy_budget"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(f"{name} must be >= 0 when set, got {value}")

    def refusal(
        self,
        tenant: str,
        active: Callable[[], int],
        submitted: int,
        privacy_sessions: int,
        private: bool,
    ) -> Optional[str]:
        """Why this policy refuses ``tenant`` one more session, else ``None``.

        The caller owns the counters.  ``active`` returns the tenant's live
        sessions and is called only when ``max_active`` is set (a caller
        may have to scan for it); ``private`` says whether the new session
        runs privacy evaluation.
        """
        if self.max_active is not None:
            live = active()
            if live >= self.max_active:
                return (
                    f"tenant {tenant!r} already has {live} active sessions "
                    f"(max_active={self.max_active})"
                )
        if self.max_sessions is not None and submitted >= self.max_sessions:
            return (
                f"tenant {tenant!r} exhausted its session budget "
                f"({self.max_sessions})"
            )
        if (
            private
            and self.privacy_budget is not None
            and privacy_sessions >= self.privacy_budget
        ):
            return (
                f"tenant {tenant!r} exhausted its privacy-evaluation "
                f"budget ({self.privacy_budget})"
            )
        return None


def execute_spec(
    spec: SessionSpec,
    backend: Optional[ShardBackend] = None,
    dataset: Optional[Dataset] = None,
    source: Optional[StreamSource] = None,
    privacy_suite: Optional[Any] = None,
    keep_network: bool = False,
    telemetry: Optional[Telemetry] = None,
    checkpointer: Optional[Checkpointer] = None,
    resume_from: Optional[Union[str, SessionCheckpoint]] = None,
    turn: Optional["_Turn"] = None,
) -> SessionResult:
    """Run one spec to completion and return its native result object.

    Parameters
    ----------
    spec:
        What to run.
    backend:
        Optional already-built shard backend to fan shard tasks out to —
        the sharing hook of :class:`MiningService`.  ``None`` lets the
        session build (and own) the backend the spec names.  Results are
        identical either way.
    dataset / source:
        Optional pre-built inputs (the legacy wrappers pass the objects
        they were handed); by default they are materialized from the spec.
    privacy_suite / keep_network:
        Batch-only runtime extras, forwarded verbatim to the session
        internals (not part of the declarative spec).
    telemetry:
        Optional :class:`repro.obs.Telemetry` bundle overriding
        ``spec.telemetry`` — the injection hook :class:`MiningService`
        uses to nest a session's spans under its ``drive`` span.  Never
        affects results.
    checkpointer / resume_from:
        Durable-session hooks (streaming only): a
        :class:`repro.checkpoint.Checkpointer` to save round-boundary
        checkpoints into, and/or a checkpoint to restore before
        ingesting (a file's path, or the
        :class:`~repro.checkpoint.SessionCheckpoint` loaded from it).
        Batch sessions are one protocol round and finish or
        fail atomically, so checkpointing them is refused.
    turn:
        The hook of an inline :class:`MiningService`: the held turn that
        lets one of its drivers run session code at a time.  A stream
        session offers it at each round boundary; a batch session is one
        protocol round and runs whole.  Never affects results.
    """
    if spec.kind == "batch" and (checkpointer is not None or resume_from is not None):
        raise CheckpointError(
            "checkpointing is streaming-only: a batch session is a single "
            "protocol round with nothing to resume"
        )
    tel = telemetry if telemetry is not None else spec.telemetry
    span = None
    if tel is not None:
        tel.metrics.counter(
            "repro_sessions_total", "Sessions executed, by kind.",
            kind=spec.kind,
        ).inc()
        if tel.enabled:
            span = tel.span(
                "session", kind=spec.kind, label=spec.display_label,
                tenant=spec.tenant,
            )
            tel = tel.child(span)
    try:
        if spec.kind == "batch":
            if dataset is None:
                dataset = (
                    spec.dataset
                    if isinstance(spec.dataset, Dataset)
                    else load_dataset(spec.dataset)
                )
            result = _execute_sap_session(
                dataset,
                spec.to_sap_config(),
                scheme=PartitionScheme(spec.scheme),
                compute_privacy=spec.effective_privacy,
                privacy_suite=privacy_suite,
                keep_network=keep_network,
                backend=backend,
            )
        else:
            if source is None:
                source = spec.make_source()
            config = spec.to_stream_config()
            if config.telemetry is not tel:
                config = replace(config, telemetry=tel)
            result = _execute_stream_session(
                source,
                config,
                backend=backend,
                checkpointer=checkpointer,
                resume_from=resume_from,
                turn=turn,
            )
    except BaseException as exc:
        if span is not None:
            span.end(error=type(exc).__name__)
        raise
    if span is not None:
        span.end()
    return result


def _result_traffic(result: SessionResult) -> Tuple[int, int, int]:
    """``(records, messages, bytes)`` of one result, both kinds unified."""
    if isinstance(result, StreamSessionResult):
        return (
            result.records_processed,
            result.messages_sent + result.data_messages_sent,
            result.bytes_sent + result.data_bytes_sent,
        )
    records = result.miner_result.n_train + result.miner_result.n_test
    return (records, result.messages_sent, result.bytes_sent)


class SessionHandle:
    """One submitted session's lifecycle: ``submit -> poll -> result/cancel``.

    Handles are created by :meth:`MiningService.submit`; they expose the
    session's status, block on its result, and cancel it while it is still
    queued.  All state transitions happen under the service's lock.
    """

    def __init__(self, spec: SessionSpec, session_id: int) -> None:
        self.spec = spec
        self.session_id = session_id
        self.submitted_at = time.perf_counter()
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        # Tracing: the span covering the time this session waits for a
        # driver slot (set by the owning service when tracing is on).
        self._queue_span: Optional[Any] = None
        self._future: "Future[SessionResult]" = Future()
        self._running = False
        # Durable-session hook, set by the owning service at submit time.
        self._checkpointer: Optional[Checkpointer] = None
        # Set by the owning service; lets cancel() release the admission
        # slot immediately instead of when a driver reaches the dead item.
        self._on_cancel = None
        self._cancel_accounted = False
        # Guards the cancel() winner election: Future.cancel() returns
        # True for *every* caller once the future is cancelled, so without
        # this lock two racing cancellers would both claim the win (and
        # both fire the slot-release callback).
        self._cancel_lock = threading.Lock()
        self._cancel_claimed = False

    # -- state, derived from the future plus the running flag -----------
    def poll(self) -> str:
        """Status: queued | running | completed | failed | cancelled | evicted."""
        if self._future.cancelled():
            return "cancelled"
        if self._future.done():
            exc = self._future.exception()
            if exc is None:
                return "completed"
            return "evicted" if isinstance(exc, SessionEvicted) else "failed"
        return "running" if self._running else "queued"

    def done(self) -> bool:
        """True once the session finished, failed, or was cancelled."""
        return self._future.done()

    def wait(self, timeout: Optional[float] = None) -> str:
        """Block until the session leaves the queue/running states."""
        try:
            # ``exception`` blocks without re-raising the session's own
            # failure (that is ``result``'s job).
            self._future.exception(timeout=timeout)
        except (CancelledError, FutureTimeoutError):
            pass
        return self.poll()

    def result(self, timeout: Optional[float] = None) -> SessionResult:
        """Block for, then return, the session's result.

        Re-raises the session's exception if it failed and
        :class:`concurrent.futures.CancelledError` if it was cancelled.
        """
        return self._future.result(timeout=timeout)

    def cancel(self) -> bool:
        """Cancel the session if it is still queued; returns success.

        Idempotent and race-free: however many threads call it, exactly
        one observes ``True`` (the one whose call actually cancelled the
        session) and the admission-slot release fires exactly once —
        ``concurrent.futures.Future.cancel`` alone reports ``True`` to
        every caller on an already-cancelled future, which would release
        the slot once per caller.
        """
        with self._cancel_lock:
            if self._cancel_claimed or not self._future.cancel():
                return False
            self._cancel_claimed = True
            callback = self._on_cancel
        if callback is not None:
            callback(self)
        return True

    # -- durable sessions ------------------------------------------------
    @property
    def migratable(self) -> bool:
        """Whether the session writes checkpoints, so it can be evicted."""
        return self._checkpointer is not None

    def request_evict(self) -> None:
        """Ask for a checkpoint-and-abandon at the next round boundary.

        Raises :class:`~repro.checkpoint.CheckpointError` when the session
        writes no checkpoints.
        """
        if self._checkpointer is None:
            raise CheckpointError(
                f"session {self.session_id} is not evictable: the service "
                f"needs a checkpoint_dir (and the session must be a stream)"
            )
        self._checkpointer.request_evict()

    def evicted_path(self) -> Optional[str]:
        """The checkpoint file of a settled eviction, else ``None``."""
        if self.poll() != "evicted":
            return None
        return self._future.exception().path

    @property
    def queue_seconds(self) -> float:
        """Wall-clock time spent waiting for a driver slot."""
        if self.started_at is None:
            return 0.0
        return self.started_at - self.submitted_at

    @property
    def wall_seconds(self) -> float:
        """Wall-clock execution time (0 until the session starts)."""
        if self.started_at is None:
            return 0.0
        end = self.finished_at if self.finished_at is not None else time.perf_counter()
        return end - self.started_at


@register
@dataclass
class TenantStats:
    """One tenant's aggregate service counters."""

    tenant: str
    submitted: int = 0
    rejected: int = 0
    completed: int = 0
    failed: int = 0
    cancelled: int = 0
    evicted: int = 0
    active: int = 0
    privacy_sessions: int = 0
    records: int = 0
    messages: int = 0
    bytes: int = 0
    busy_seconds: float = 0.0

    def throughput(self, elapsed_seconds: float) -> float:
        """Completed sessions per second of service lifetime."""
        if elapsed_seconds <= 0:
            return 0.0
        return self.completed / elapsed_seconds


@register
@dataclass(frozen=True)
class PoolStats:
    """The shared shard pool's demand counters."""

    backend: str
    workers: int
    tasks: int
    batches: int
    busy_seconds: float
    utilization: float


@register
@dataclass
class ServiceStats:
    """A point-in-time snapshot of the whole service."""

    elapsed_seconds: float
    submitted: int
    rejected: int
    completed: int
    failed: int
    cancelled: int
    evicted: int
    active: int
    records: int
    messages: int
    bytes: int
    tenants: Tuple[TenantStats, ...]
    pool: PoolStats

    @property
    def sessions_per_second(self) -> float:
        """Completed sessions per second of service lifetime."""
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.completed / self.elapsed_seconds

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly snapshot (used by ``repro serve --json``)."""
        return {
            "elapsed_seconds": self.elapsed_seconds,
            "submitted": self.submitted,
            "rejected": self.rejected,
            "completed": self.completed,
            "failed": self.failed,
            "cancelled": self.cancelled,
            "evicted": self.evicted,
            "active": self.active,
            "sessions_per_second": self.sessions_per_second,
            "records": self.records,
            "messages": self.messages,
            "bytes": self.bytes,
            "tenants": {
                t.tenant: {
                    "submitted": t.submitted,
                    "rejected": t.rejected,
                    "completed": t.completed,
                    "failed": t.failed,
                    "cancelled": t.cancelled,
                    "evicted": t.evicted,
                    "privacy_sessions": t.privacy_sessions,
                    "records": t.records,
                    "messages": t.messages,
                    "bytes": t.bytes,
                    "busy_seconds": t.busy_seconds,
                    "sessions_per_second": t.throughput(self.elapsed_seconds),
                }
                for t in self.tenants
            },
            "pool": {
                "backend": self.pool.backend,
                "workers": self.pool.workers,
                "tasks": self.pool.tasks,
                "batches": self.pool.batches,
                "busy_seconds": self.pool.busy_seconds,
                "utilization": self.pool.utilization,
            },
        }

    def summary(self) -> str:
        """Multi-line service report, matching the session summaries' style."""
        lines = [
            f"sessions          : {self.completed} completed / "
            f"{self.failed} failed / {self.cancelled} cancelled / "
            f"{self.evicted} evicted / "
            f"{self.rejected} rejected ({self.submitted} accepted)",
            f"service rate      : {self.sessions_per_second:.2f} sessions/s "
            f"over {self.elapsed_seconds:.2f} s",
            f"records mined     : {self.records}",
            f"simnet traffic    : {self.messages} msgs / {self.bytes} bytes",
            f"shard pool        : {self.pool.backend}, {self.pool.workers} workers, "
            f"{self.pool.tasks} tasks in {self.pool.batches} batches",
            f"pool utilization  : {self.pool.utilization * 100:.1f}% "
            f"({self.pool.busy_seconds:.2f} busy s)",
        ]
        for t in sorted(self.tenants, key=lambda t: t.tenant):
            lines.append(
                f"tenant {t.tenant:<11}: {t.completed}/{t.submitted} done, "
                f"{t.rejected} rejected, {t.records} records, "
                f"{t.messages} msgs / {t.bytes} bytes"
            )
        return "\n".join(lines)


@dataclass
class _TenantLedger:
    """Mutable per-tenant accounting, guarded by the service lock."""

    policy: TenantPolicy
    stats: TenantStats


class _Turn:
    """The right to run session code, passed between an engine's drivers.

    A FIFO hand-off lock: :meth:`release` passes the turn straight to the
    oldest waiter, so the releasing driver cannot take it back before the
    waiter wakes, as it could a plain lock.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._waiters: deque = deque()
        self._held = False
        self._taken_at = 0.0

    def acquire(self) -> None:
        """Wait for the turn behind every driver already waiting."""
        with self._lock:
            if not self._held:
                self._held = True
                self._taken_at = time.perf_counter()
                return
            gate = threading.Lock()
            gate.acquire()
            self._waiters.append(gate)
        # Opened by the holder's release, which leaves the turn held.
        gate.acquire()
        self._taken_at = time.perf_counter()

    def release(self) -> None:
        """Hand the turn to the oldest waiter, or free it."""
        with self._lock:
            if self._waiters:
                self._waiters.popleft().release()
            else:
                self._held = False

    def offer(self) -> None:
        """Pass the turn on and queue for it again, but only when another
        driver waits and the holder has had it for the switch interval."""
        if (
            self._waiters
            and time.perf_counter() - self._taken_at >= sys.getswitchinterval()
        ):
            self.release()
            self.acquire()


class MiningService:
    """Long-lived engine running many concurrent sessions over one pool.

    Parameters
    ----------
    max_inflight:
        Driver threads — sessions admitted to run at once.  Under
        ``serial`` or ``thread`` the drivers take turns: one runs session
        code at a time and passes the turn on at a stream round boundary,
        once it has held it for the interpreter's switch interval
        (:func:`sys.getswitchinterval`); a batch session runs whole.
        Under the GIL the drivers never ran Python in parallel anyway,
        and taking turns spares them a thread switch at every numpy call
        that drops the GIL.  A source that blocks keeps the turn while it
        blocks.  A ``process`` engine's drivers run concurrently, since
        they wait on the pool.
    queue_limit:
        Sessions allowed to wait beyond the in-flight ones; ``None`` is
        unbounded, ``0`` rejects anything that cannot start immediately.
    shard_backend / shard_workers:
        Where every session's shard tasks run, overriding the per-spec
        ``shard_backend``, which is sound because session results are
        backend-independent.  ``process`` is one shared pool of
        ``shard_workers`` processes (default ``max_inflight``).  Under
        ``serial`` or ``thread`` each session runs its tasks inline on
        its own driver thread (see :mod:`repro.sharding.backends`), so
        ``shard_workers`` sizes only a process pool.
    tenants:
        Optional ``{tenant: TenantPolicy}`` budgets; unlisted tenants are
        unbounded.
    telemetry:
        Optional :class:`repro.obs.Telemetry` bundle.  When present, the
        service registers pool/service collectors on its registry (the
        public :meth:`stats` dicts stay the source of truth), counts
        admissions/rejections, and — if the tracer is enabled — emits a
        ``queue`` span per admitted session and a ``drive`` span around
        each execution, with the session's own spans nested beneath.  A
        spec carrying its own bundle overrides the service's for that
        session.

    Use as a context manager, or call :meth:`close` when done.
    """

    def __init__(
        self,
        max_inflight: int = 4,
        queue_limit: Optional[int] = None,
        shard_backend: str = "thread",
        shard_workers: Optional[int] = None,
        tenants: Optional[Mapping[str, TenantPolicy]] = None,
        telemetry: Optional[Telemetry] = None,
        checkpoint_dir: Optional[str] = None,
        checkpoint_retain: Optional[int] = None,
    ) -> None:
        if max_inflight < 1:
            raise ValueError("max_inflight must be a positive integer")
        if queue_limit is not None and queue_limit < 0:
            raise ValueError("queue_limit must be >= 0 when set")
        if checkpoint_retain is not None and checkpoint_retain < 1:
            raise ValueError("checkpoint_retain must be >= 1 when set")
        self.max_inflight = max_inflight
        self.queue_limit = queue_limit
        # Durable sessions: with a checkpoint directory, stream sessions
        # become evictable (checkpoint + abandon, freeing their slot) and
        # resumable (re-admitted from the file, bit-identical results).
        self.checkpoint_dir = checkpoint_dir
        self.checkpoint_retain = checkpoint_retain
        workers = max_inflight if shard_workers is None else shard_workers
        if workers < 1:
            raise ValueError("shard_workers must be a positive integer")
        require_choice("shard backend", shard_backend, BACKENDS)
        backend = make_backend(shard_backend, workers)
        # An inline backend runs each session's shard tasks on its own
        # driver, so the drivers are the threads the meter counts.
        self.pool = MeteredBackend(
            backend, None if backend.supports_overlap else max_inflight
        )
        # Inline drivers take turns; one driver has nobody to take turns
        # with.
        self._turn = (
            _Turn() if not backend.supports_overlap and max_inflight > 1 else None
        )
        # Pre-fork/pre-start the shared pool's workers from this thread,
        # before any driver threads exist: forking a multi-threaded process
        # can leave child workers holding another thread's locks.
        self.pool.warm()
        self._drivers = ThreadPoolExecutor(
            max_workers=max_inflight, thread_name_prefix="repro-serve"
        )
        self._lock = threading.Lock()
        # Unsettled sessions only, keyed by session id: settled handles are
        # evicted so a long-lived service does not pin every past result in
        # memory (callers keep their own handle if they want the result).
        self._handles: Dict[int, SessionHandle] = {}
        self._active = 0
        self._ledgers: Dict[str, _TenantLedger] = {}
        for tenant, policy in dict(tenants or {}).items():
            self._ledgers[tenant] = _TenantLedger(policy, TenantStats(tenant))
        self._next_id = 0
        self._records = 0
        self._messages = 0
        self._bytes = 0
        self._rejected = 0
        self._started = time.perf_counter()
        self._closed = False
        self.telemetry = telemetry
        if telemetry is not None:
            if not isinstance(telemetry, Telemetry):
                raise ValueError(
                    f"telemetry must be a repro.obs.Telemetry bundle or "
                    f"None, got {type(telemetry).__name__}"
                )
            telemetry.metrics.register_collector(pool_collector(self.pool))
            telemetry.metrics.register_collector(service_collector(self))

    # ------------------------------------------------------------------
    # admission + submission
    # ------------------------------------------------------------------
    def _ledger(self, tenant: str) -> _TenantLedger:
        ledger = self._ledgers.get(tenant)
        if ledger is None:
            ledger = _TenantLedger(TenantPolicy(), TenantStats(tenant))
            self._ledgers[tenant] = ledger
        return ledger

    def _admit(self, spec: SessionSpec) -> SessionHandle:
        """Admission control; called under the lock.  Raises or admits."""
        if self._closed:
            raise AdmissionError("service is closed; no new sessions accepted")
        ledger = self._ledger(spec.tenant)
        stats = ledger.stats
        policy = ledger.policy
        capacity = (
            None
            if self.queue_limit is None
            else self.max_inflight + self.queue_limit
        )
        if capacity is not None and self._active >= capacity:
            stats.rejected += 1
            self._rejected += 1
            raise AdmissionError(
                f"service at capacity: {self._active} sessions in flight "
                f"(max_inflight={self.max_inflight}, "
                f"queue_limit={self.queue_limit}); retry later"
            )
        refusal = policy.refusal(
            spec.tenant,
            lambda: stats.active,
            stats.submitted,
            stats.privacy_sessions,
            spec.effective_privacy,
        )
        if refusal is not None:
            stats.rejected += 1
            self._rejected += 1
            raise AdmissionError(refusal)
        handle = SessionHandle(spec, self._next_id)
        handle._on_cancel = self._release_cancelled
        self._next_id += 1
        stats.submitted += 1
        stats.active += 1
        self._active += 1
        if spec.effective_privacy:
            stats.privacy_sessions += 1
        self._handles[handle.session_id] = handle
        return handle

    def submit(
        self,
        spec: Union[SessionSpec, Mapping[str, Any]],
        dataset: Optional[Dataset] = None,
        source: Optional[StreamSource] = None,
        resume_from: Optional[Union[str, SessionCheckpoint]] = None,
        checkpoint_every: Optional[int] = None,
    ) -> SessionHandle:
        """Admit one spec and schedule it; returns its :class:`SessionHandle`.

        Raises :class:`AdmissionError` when the service or the spec's
        tenant is out of capacity/budget.  ``spec`` may be a plain mapping
        (one workload-file entry); ``dataset``/``source`` optionally
        short-circuit input materialization.

        When the service has a ``checkpoint_dir``, stream sessions get a
        :class:`~repro.checkpoint.Checkpointer` (saving every
        ``checkpoint_every`` windows; ``None`` saves only on eviction) and
        become :meth:`evict`-able; ``resume_from`` restores one from a
        checkpoint file (its path or its loaded
        :class:`~repro.checkpoint.SessionCheckpoint`) — re-entering
        admission control like any new session.  Such a session's spec
        is written into its checkpoints, so one that
        :meth:`SessionSpec.to_mapping` cannot write down raises its
        :class:`ValueError` before admission, counting nothing.
        """
        if not isinstance(spec, SessionSpec):
            spec = SessionSpec.from_mapping(spec)
        tel = spec.telemetry if spec.telemetry is not None else self.telemetry
        if checkpoint_every is not None and self.checkpoint_dir is None:
            raise CheckpointError(
                "checkpoint_every needs a service checkpoint_dir to save into"
            )
        if spec.kind == "batch" and (
            resume_from is not None or checkpoint_every is not None
        ):
            raise CheckpointError(
                "checkpointing is streaming-only: a batch session is a single "
                "protocol round with nothing to resume"
            )
        durable = self.checkpoint_dir is not None and spec.kind == "stream"
        # Before admission: a spec that cannot be written down is refused
        # without being counted.
        spec_mapping = spec.to_mapping() if durable else None
        try:
            with self._lock:
                handle = self._admit(spec)
                if durable:
                    handle._checkpointer = Checkpointer(
                        directory=self.checkpoint_dir,
                        every=checkpoint_every,
                        label=f"session-{handle.session_id}",
                        spec_mapping=spec_mapping,
                        telemetry=tel,
                        retain=self.checkpoint_retain,
                    )
                # The queue span opens before scheduling so the driver
                # thread can never observe the handle without it.
                if tel is not None and tel.enabled:
                    handle._queue_span = tel.tracer.span(
                        "queue", parent=tel.parent,
                        session=handle.session_id, tenant=spec.tenant,
                    )
                # Scheduled under the lock so a concurrent close() cannot
                # shut the driver pool down between admission and
                # scheduling.  The checkpoint to resume from is passed to
                # ``_drive`` rather than kept on the handle, which
                # outlives the session.
                self._drivers.submit(
                    self._drive, handle, dataset, source, resume_from
                )
        except AdmissionError as exc:
            if self.telemetry is not None:
                self.telemetry.metrics.counter(
                    "repro_serve_rejected_total",
                    "Sessions refused admission.",
                ).inc()
            _LOG.warning(
                "rejected session for tenant %r: %s", spec.tenant, exc
            )
            raise
        if self.telemetry is not None:
            self.telemetry.metrics.counter(
                "repro_serve_admitted_total", "Sessions admitted."
            ).inc()
        _LOG.info(
            "admitted session %d (%s)", handle.session_id, spec.display_label
        )
        return handle

    def _drive(
        self,
        handle: SessionHandle,
        dataset: Optional[Dataset],
        source: Optional[StreamSource],
        resume_from: Optional[Union[str, SessionCheckpoint]],
    ) -> None:
        """Driver-thread body: run the session, settle the handle, account."""
        spec = handle.spec
        tel = spec.telemetry if spec.telemetry is not None else self.telemetry
        qspan = handle._queue_span
        if not handle._future.set_running_or_notify_cancel():
            # Cancelled while queued; cancel() normally accounted for it
            # already, so this only covers a cancel that raced past it.
            if qspan is not None:
                qspan.end(outcome="cancelled")
            self._release_cancelled(handle)
            return
        if qspan is not None:
            qspan.end(outcome="started")
        handle._running = True
        handle.started_at = time.perf_counter()
        turn = self._turn
        if turn is not None:
            turn.acquire()
        try:
            self._run_session(handle, tel, dataset, source, resume_from)
        finally:
            if turn is not None:
                turn.release()

    def _run_session(
        self,
        handle: SessionHandle,
        tel: Optional[Telemetry],
        dataset: Optional[Dataset],
        source: Optional[StreamSource],
        resume_from: Optional[Union[str, SessionCheckpoint]],
    ) -> None:
        """Execute one running session and settle it, whatever its end."""
        spec = handle.spec
        drive_span = None
        exec_tel = tel
        if tel is not None and tel.enabled:
            drive_span = tel.tracer.span(
                "drive", parent=tel.parent, session=handle.session_id,
                tenant=spec.tenant, kind=spec.kind,
            )
            exec_tel = tel.child(drive_span)
        try:
            result = execute_spec(
                handle.spec, backend=self.pool, dataset=dataset,
                source=source, telemetry=exec_tel,
                checkpointer=handle._checkpointer,
                resume_from=resume_from,
                turn=self._turn,
            )
        except SessionEvicted as exc:
            # A requested checkpoint-and-abandon, not a failure: the slot
            # frees exactly like a completion and the handle's "result" is
            # the SessionEvicted naming the file to resume from.
            if drive_span is not None:
                drive_span.end(outcome="evicted")
            _LOG.info("session %d evicted: %s", handle.session_id, exc)
            if tel is not None:
                tel.metrics.counter(
                    "repro_checkpoints_total",
                    "Checkpoint operations by outcome.",
                    outcome="evicted",
                ).inc()
            self._finish(handle, "evicted", exc=exc)
            return
        except BaseException as exc:
            if drive_span is not None:
                drive_span.end(error=type(exc).__name__)
            _LOG.warning("session %d failed: %s", handle.session_id, exc)
            self._finish(handle, "failed", exc=exc)
            return
        if drive_span is not None:
            drive_span.end()
        self._finish(handle, "completed", result=result)

    def _finish(
        self,
        handle: SessionHandle,
        outcome: str,
        result: Optional[SessionResult] = None,
        exc: Optional[BaseException] = None,
    ) -> None:
        """Account one finished session, settle its future, then forget it.

        Ordering contract: account first (so a caller who observed the
        result sees consistent stats), then settle the future, then
        forget the handle — drain() stops waiting on a handle once it
        leaves _handles, so that must never precede the result becoming
        observable.  The driver that settles a closed service's last
        active session closes the pool again first: a session still
        running after close(wait=False) rebuilt it on its next dispatch.
        """
        handle.finished_at = time.perf_counter()
        with self._lock:
            stats = self._ledger(handle.spec.tenant).stats
            stats.active -= 1
            setattr(stats, outcome, getattr(stats, outcome) + 1)
            if result is not None:
                records, messages, nbytes = _result_traffic(result)
                stats.records += records
                stats.messages += messages
                stats.bytes += nbytes
                stats.busy_seconds += handle.wall_seconds
                self._records += records
                self._messages += messages
                self._bytes += nbytes
            self._active -= 1
            idle_after_close = self._closed and self._active == 0
        if idle_after_close:
            self.pool.close()
        if exc is None:
            handle._future.set_result(result)
        else:
            handle._future.set_exception(exc)
        with self._lock:
            self._settle(handle)

    # ------------------------------------------------------------------
    # convenience drivers
    # ------------------------------------------------------------------
    def run(
        self, specs: Sequence[Union[SessionSpec, Mapping[str, Any]]]
    ) -> List[SessionResult]:
        """Submit a whole workload, wait, and return results in order.

        If a spec is refused admission mid-list, the already-admitted
        sessions are cancelled where still queued and awaited where
        running, then the :class:`AdmissionError` is re-raised — nothing
        is left running unreachably.  Use :meth:`submit` directly to
        handle rejections per session instead.
        """
        handles: List[SessionHandle] = []
        try:
            for spec in specs:
                handles.append(self.submit(spec))
        except AdmissionError:
            for handle in handles:
                handle.cancel()
            for handle in handles:
                handle.wait()
            raise
        return [handle.result() for handle in handles]

    def _settle(self, handle: SessionHandle) -> None:
        """Evict one handle whose future has settled; called under the lock."""
        self._handles.pop(handle.session_id, None)

    def _release_cancelled(self, handle: SessionHandle) -> None:
        """Account one queued-then-cancelled session and free its slot.

        Reached from :meth:`SessionHandle.cancel` (immediately) *and* from
        the driver that later pops the dead work item; the accounting flag
        makes the two paths idempotent.
        """
        with self._lock:
            if handle._cancel_accounted:
                return
            handle._cancel_accounted = True
            stats = self._ledger(handle.spec.tenant).stats
            stats.active -= 1
            stats.cancelled += 1
            self._active -= 1
            self._settle(handle)

    def drain(self, timeout: Optional[float] = None) -> None:
        """Block until every admitted session has settled."""
        deadline = None if timeout is None else time.perf_counter() + timeout
        with self._lock:
            pending = list(self._handles.values())
        for handle in pending:
            remaining = (
                None if deadline is None else max(0.0, deadline - time.perf_counter())
            )
            handle.wait(timeout=remaining)

    # ------------------------------------------------------------------
    # durable sessions: evict + resume
    # ------------------------------------------------------------------
    def evict(
        self, session_id: int, timeout: Optional[float] = None
    ) -> Optional[str]:
        """Checkpoint and abandon one live stream session, freeing its slot.

        The session checkpoints at its next round boundary and raises
        :class:`~repro.checkpoint.SessionEvicted` through its handle
        (status ``"evicted"``).  Returns the checkpoint path to
        :meth:`resume` from — or ``None`` if the session completed (or
        failed) before reaching a boundary, in which case there is nothing
        to resume.
        """
        with self._lock:
            handle = self._handles.get(session_id)
        if handle is None:
            raise CheckpointError(
                f"no live session {session_id} to evict (completed sessions "
                f"settle and leave the service)"
            )
        handle.request_evict()
        handle.wait(timeout=timeout)
        return handle.evicted_path()

    def resume(
        self,
        checkpoint_path: Union[str, SessionCheckpoint],
        source: Optional[StreamSource] = None,
        checkpoint_every: Optional[int] = None,
    ) -> SessionHandle:
        """Re-admit an evicted session from its checkpoint (the file's
        path, or the :class:`~repro.checkpoint.SessionCheckpoint` already
        loaded from it or decoded from bytes).

        The spec embedded at save time is re-submitted with the loaded
        checkpoint as ``resume_from``, so the checkpoint is decoded once
        and the resumed session goes through admission control (capacity,
        tenant budgets) exactly like a new one — and its result is
        bit-identical to the uninterrupted run.
        """
        ckpt = checkpoint_path
        if not isinstance(ckpt, SessionCheckpoint):
            ckpt = load_checkpoint(ckpt)
        spec_mapping = ckpt.spec
        if spec_mapping is None:
            raise CheckpointError(
                f"checkpoint {ckpt.path or 'data'} carries no session spec; it "
                f"was not written by a serving engine and cannot be re-admitted"
            )
        spec = SessionSpec.from_mapping(spec_mapping)
        return self.submit(
            spec,
            source=source,
            resume_from=ckpt,
            checkpoint_every=checkpoint_every,
        )

    @property
    def handles(self) -> Tuple[SessionHandle, ...]:
        """The *unsettled* sessions' handles, in submission order.

        Settled handles are evicted from the service so a long-lived
        deployment does not accumulate every past result; the caller's own
        reference from :meth:`submit` stays valid forever.
        """
        with self._lock:
            return tuple(self._handles.values())

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def stats(self) -> ServiceStats:
        """A consistent snapshot of service, tenant, and pool counters."""
        with self._lock:
            elapsed = time.perf_counter() - self._started
            tenants = tuple(
                TenantStats(**vars(ledger.stats)) for ledger in self._ledgers.values()
            )
            submitted = sum(t.submitted for t in tenants)
            completed = sum(t.completed for t in tenants)
            failed = sum(t.failed for t in tenants)
            cancelled = sum(t.cancelled for t in tenants)
            evicted = sum(t.evicted for t in tenants)
            active = self._active
            # utilization() advances the occupancy clock up to "now" under
            # the metering lock; reading busy_seconds *after* it keeps the
            # two figures consistent while dispatches are mid-flight.
            utilization = self.pool.utilization(elapsed)
            pool = PoolStats(
                backend=self.pool.name,
                workers=self.pool.n_workers,
                tasks=self.pool.tasks_dispatched,
                batches=self.pool.batches_dispatched,
                busy_seconds=self.pool.busy_seconds,
                utilization=utilization,
            )
            return ServiceStats(
                elapsed_seconds=elapsed,
                submitted=submitted,
                rejected=self._rejected,
                completed=completed,
                failed=failed,
                cancelled=cancelled,
                evicted=evicted,
                active=active,
                records=self._records,
                messages=self._messages,
                bytes=self._bytes,
                tenants=tenants,
                pool=pool,
            )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(
        self, wait: bool = True, park: bool = False
    ) -> Optional[List[str]]:
        """Stop admitting, drain driver threads, release the shared pool.

        With ``park=True`` (needs a ``checkpoint_dir``), live checkpointable
        sessions are *parked* instead of waited out: each gets an eviction
        request, checkpoints at its next round boundary, and abandons.
        Returns the written checkpoint paths (resume each with
        :meth:`resume` on another service); non-checkpointable sessions —
        batch sessions, streams on a service without a checkpoint
        directory — still run to settlement.  Plain ``close()`` returns
        ``None``.

        ``wait=False`` (without ``park``) returns without waiting for the
        running sessions and cancels every session still queued, so none
        starts after the close.
        """
        if park and self.checkpoint_dir is None:
            raise CheckpointError(
                "close(park=True) needs a service checkpoint_dir to park "
                "sessions into"
            )
        with self._lock:
            if self._closed:
                return [] if park else None
            self._closed = True
            pending = list(self._handles.values())
        parked: List[str] = []
        if park:
            # Signal every parkable session first, then wait: sessions
            # reach their next boundary concurrently instead of serially.
            for handle in pending:
                if handle.migratable:
                    handle.request_evict()
            for handle in pending:
                if handle.wait() == "evicted":
                    parked.append(handle.evicted_path())
        elif not wait:
            # cancel() succeeds only on a session no driver has started.
            for handle in pending:
                handle.cancel()
        self._drivers.shutdown(wait=wait)
        self.pool.close()
        return parked if park else None

    def __enter__(self) -> "MiningService":
        """Context-manager entry: the service itself."""
        return self

    def __exit__(self, *exc_info: object) -> None:
        """Context-manager exit: close the service and its pool."""
        self.close()


#: canonical short name for :class:`MiningService`
Engine = MiningService
