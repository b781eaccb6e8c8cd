"""Multi-replica serving over checkpoints.

:class:`ClusterController` is a **control plane**: it never touches an
engine directly any more, only the narrow
:class:`~repro.cluster.transport.ReplicaTransport` surface — submit /
poll / result / evict / stats / health — with checkpoints crossing as
opaque RPCK payloads.  Two interchangeable backends plug in:

* ``backend="inprocess"`` (default) — N
  :class:`~repro.serve.engine.MiningService` replicas in this process,
  exactly the previous behavior;
* ``backend="process"`` — N replicas each running a service in its own
  OS process (:mod:`repro.cluster.replica`) behind a length-prefixed
  framed protocol, with heartbeat health checks and **crash recovery**:
  when a replica dies, every session it owned is re-admitted on the
  surviving replicas — from its newest intact checkpoint when one
  exists, from scratch otherwise (sessions are deterministic, so either
  way the final result is bit-identical to the undisturbed run).

The division of labor with the replicas:

* **Replica-level**: driver slots (``max_inflight``/``queue_limit``),
  where shard tasks run, checkpoint saves, per-session lifecycle.  Replicas
  carry *no* tenant policies.
* **Cluster-level** (this module): tenant budgets — enforced once, here,
  so a migration's re-admission on the destination replica does not
  double-charge ``max_sessions``/``privacy_budget`` — plus placement,
  migration, rebalancing, draining, crash recovery, and the merged
  :class:`ClusterStats` view.

Live migration follows the checkpoint layer's *drain rule*: a session
checkpoints only at a post-drain round boundary, so
:meth:`ClusterController.migrate` never stops the world — in-flight
rounds complete on the old owner, the state travels whole inside the
checkpoint payload, and the destination resumes through normal
admission.  Callers hold one :class:`ClusterSession` across any number
of hops, including the involuntary ones a crash forces.
"""

from __future__ import annotations

import math
import os
import threading
import time
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..checkpoint import CheckpointError, list_checkpoints, loads_checkpoint
from ..obs import NULL_TRACER, Telemetry, cluster_collector
from ..serve.engine import (
    AdmissionError,
    MiningService,
    ServiceStats,
    SessionResult,
    TenantPolicy,
    TenantStats,
)
from ..serve.spec import SessionSpec
from .placement import resolve_placement
from .transport import (
    CheckpointPayload,
    InProcessReplica,
    ProcessReplica,
    ReplicaTransport,
    _InterruptShield,
)

__all__ = [
    "ClusterError",
    "ClusterSession",
    "ClusterStats",
    "ClusterController",
]

#: replica backends a cluster can be built on
CLUSTER_BACKENDS = ("inprocess", "process")


class ClusterError(ValueError):
    """A cluster operation cannot proceed (bad target, parked session...).

    Subclasses :class:`ValueError` so the CLI's friendly exit-2 handling
    applies without special-casing.
    """


class ClusterSession:
    """One submitted session's cluster-wide identity, stable across hops.

    The engine hands out a fresh handle every time a session is
    (re-)admitted, so a migration — voluntary or crash-forced — would
    invalidate a raw handle.  This wrapper keeps one identity for the
    session's whole life: ``poll``/``wait``/``result`` follow the session
    to whichever replica currently owns it, blocking through handoffs
    (and through crash recovery, which is just a handoff the session did
    not ask for) instead of surfacing the internal eviction.

    It also owns the handoff protocol the controller drives: a handoff
    claims the session (:meth:`_claim`), then ends in exactly one of
    finish (a new hop), release (the same hop, or parked at a
    checkpoint), or lost.  A hop that settles ``evicted`` while no
    handoff holds it parks at its checkpoint.
    """

    def __init__(
        self,
        spec: SessionSpec,
        session_id: int,
        replica: int,
        handle: Any,
        checkpoint_every: Optional[int],
    ) -> None:
        self.spec = spec
        self.session_id = session_id
        #: the checkpoint cadence every hop of the session is admitted with
        self.checkpoint_every = checkpoint_every
        #: completed migration hops (resumes and crash recoveries included)
        self.migrations = 0
        self._cond = threading.Condition()
        self._replica = replica
        self._handle = handle
        # True while a handoff holds the session (claimed, not yet ended).
        self._migrating = False
        self._parked_path: Optional[str] = None
        # Set only when a replica died and no surviving replica could
        # take the session back; terminal.
        self._lost_error: Optional[str] = None

    # -- state ----------------------------------------------------------
    @property
    def replica(self) -> int:
        """Index of the replica currently owning the session."""
        with self._cond:
            return self._replica

    @property
    def parked_path(self) -> Optional[str]:
        """The checkpoint file of a parked session, else ``None``."""
        with self._cond:
            return self._parked_path

    @property
    def wall_seconds(self) -> float:
        """Wall-clock seconds of the *current* hop's handle (a migrated
        session's earlier hops ran on other replicas' clocks)."""
        with self._cond:
            return self._handle.wall_seconds

    def _status(self, parked: Sequence[str] = ()) -> str:
        """The session's status, passing the hop's own ``evicted`` and
        ``lost`` through.  A hop that settled ``evicted`` while no handoff
        holds it parks here, at the file its owner names — or, for an
        owner that can no longer be asked, the one of ``parked`` (the
        owner's parked files) carrying the hop's label."""
        with self._cond:
            if self._parked_path is not None:
                return "parked"
            if self._lost_error is not None:
                return "failed"
            if self._migrating:
                return "migrating"
            handle = self._handle
            status = handle.poll()
            path = handle.evicted_path() if status == "evicted" else None
            if path is None:
                label = f"session-{handle.session_id}-"
                path = next(
                    (p for p in parked if os.path.basename(p).startswith(label)),
                    None,
                )
            if path is None:
                return status
            self._parked_path = path
            self._cond.notify_all()
            return "parked"

    def poll(self) -> str:
        """Status: queued | running | migrating | parked | completed |
        failed | cancelled."""
        status = self._status()
        # A "lost" hop is a crash recovery that has not claimed the
        # session yet; it resolves into a handoff.
        return "migrating" if status in ("evicted", "lost") else status

    def done(self) -> bool:
        """True once ``result`` would return (or raise) immediately."""
        return self.poll() in ("completed", "failed", "cancelled", "parked")

    # -- blocking -------------------------------------------------------
    def wait(self, timeout: Optional[float] = None) -> str:
        """Block through any handoffs until the session settles or parks
        (or the timeout lapses); returns the final :meth:`poll` status."""
        deadline = _deadline(timeout)
        while True:
            with self._cond:
                status = self._status()
                if status == "migrating":
                    # A handoff holds the session; every end notifies.
                    remaining = _remaining(deadline)
                    if remaining is not None and remaining <= 0:
                        return status
                    self._cond.wait(remaining)
                    continue
                handle = self._handle
            if status in ("parked", "completed", "failed", "cancelled"):
                return status
            if deadline is not None and time.perf_counter() >= deadline:
                return self.poll()
            if status in ("queued", "running"):
                handle.wait(timeout=_remaining(deadline))
            else:
                # Lost, and crash recovery has not claimed it yet.
                time.sleep(0.02)

    def result(self, timeout: Optional[float] = None) -> SessionResult:
        """Block for, then return, the session's result — across migrations.

        Raises :class:`ClusterError` if the session was parked (the
        checkpoint path is in the message; resume it to finish the run)
        or lost to a crash with nothing to recover from, re-raises the
        session's own exception if it failed, and
        :class:`concurrent.futures.TimeoutError` on timeout.
        """
        status = self.wait(timeout)
        with self._cond:
            parked = self._parked_path
            lost = self._lost_error
            handle = self._handle
        if parked is not None:
            raise ClusterError(
                f"session {self.session_id} is parked at {parked!r}; "
                f"resume it to finish the run"
            )
        if lost is not None:
            raise ClusterError(lost)
        if status not in ("completed", "failed", "cancelled"):
            raise FutureTimeoutError()
        return handle.result()

    def cancel(self) -> bool:
        """Cancel while still queued on the owning replica; returns success.

        A session mid-handoff, parked, or lost cannot be cancelled (it
        holds no queue slot to give back).
        """
        with self._cond:
            if self._status() != "queued":
                return False
            handle = self._handle
        return handle.cancel()

    # -- the handoff protocol (driven by the controller) ----------------
    def _claim(self, replica: int) -> Any:
        """Claim the live hop on ``replica`` for a handoff; returns its
        handle.  Refuses, with :class:`ClusterError`, a session that is
        parked, lost, already moving, elsewhere, or settled."""
        with self._cond:
            status = self._status()
            if status == "parked":
                raise ClusterError(
                    f"session {self.session_id} is already parked at "
                    f"{self._parked_path!r}; resume it instead of migrating"
                )
            if status == "migrating":
                raise ClusterError(
                    f"session {self.session_id} is already migrating"
                )
            if self._lost_error is not None:
                raise ClusterError(self._lost_error)
            if self._replica != replica:
                raise ClusterError(
                    f"session {self.session_id} no longer lives on replica "
                    f"{replica}"
                )
            if status in ("completed", "failed", "cancelled", "evicted"):
                raise ClusterError(
                    f"session {self.session_id} already settled "
                    f"({status}); nothing to migrate"
                )
            self._migrating = True
            return self._handle

    def _claim_parked(self) -> str:
        """Claim a parked session for a resume; returns its checkpoint
        path."""
        with self._cond:
            status = self.poll()
            if status != "parked":
                raise ClusterError(
                    f"session {self.session_id} is not parked (status "
                    f"{status!r}); only parked sessions resume"
                )
            path, self._parked_path = self._parked_path, None
            self._migrating = True
            return path

    def _finish(self, replica: int, handle: Any) -> None:
        """End a handoff on a new hop: one more migration."""
        with self._cond:
            self._replica = replica
            self._handle = handle
            self._migrating = False
            self.migrations += 1
            self._cond.notify_all()

    def _release(self, park_at: Optional[str] = None) -> None:
        """End a handoff on the claimed hop, parked at ``park_at`` if given."""
        with self._cond:
            self._migrating = False
            if park_at is not None:
                self._parked_path = park_at
            self._cond.notify_all()

    def _mark_lost(self, message: str) -> None:
        with self._cond:
            self._migrating = False
            self._lost_error = message
            self._cond.notify_all()


@dataclass
class _ClusterTenant:
    """Cluster-level tenant budget accounting (under the cluster lock).

    Only monotonic counters live here; ``active`` is derived by scanning
    live sessions, so a migration — which never touches this ledger —
    cannot double-charge any budget.
    """

    policy: TenantPolicy
    submitted: int = 0
    privacy_sessions: int = 0
    rejected: int = 0


@dataclass
class ClusterStats:
    """A point-in-time snapshot of the whole cluster.

    ``completed``/``failed``/``cancelled``/``evicted``/``active`` and the
    ``records``/``messages``/``bytes`` traffic counters are *exact sums*
    of the per-replica :class:`ServiceStats` (the conservation invariant
    the property tests pin) — a dead process replica contributes its last
    reported snapshot, with in-flight counts zeroed, so nothing it did is
    forgotten and nothing it no longer runs is double-counted.
    ``submitted``/``rejected`` are cluster-level admissions: per-replica
    ``submitted`` counts every re-admission of a migrating or recovered
    session and so exceeds it by exactly ``migrations`` hops.
    """

    elapsed_seconds: float
    replicas: int
    placement: str
    submitted: int
    rejected: int
    migrations: int
    rebalances: int
    parked: int
    completed: int
    failed: int
    cancelled: int
    evicted: int
    active: int
    records: int
    messages: int
    bytes: int
    backend: str = "inprocess"
    healthy_replicas: int = 0
    recoveries: int = 0
    tenants: Tuple[TenantStats, ...] = ()
    per_replica: Tuple[ServiceStats, ...] = ()

    @property
    def sessions_per_second(self) -> float:
        """Completed sessions per second of cluster lifetime."""
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.completed / self.elapsed_seconds

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly snapshot (used by ``repro cluster --json``)."""
        return {
            "elapsed_seconds": self.elapsed_seconds,
            "replicas": self.replicas,
            "placement": self.placement,
            "backend": self.backend,
            "healthy_replicas": self.healthy_replicas,
            "submitted": self.submitted,
            "rejected": self.rejected,
            "migrations": self.migrations,
            "recoveries": self.recoveries,
            "rebalances": self.rebalances,
            "parked": self.parked,
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
                    "evicted": t.evicted,
                    "privacy_sessions": t.privacy_sessions,
                    "records": t.records,
                    "messages": t.messages,
                    "bytes": t.bytes,
                }
                for t in self.tenants
            },
            "per_replica": [stats.to_dict() for stats in self.per_replica],
        }

    def summary(self) -> str:
        """Multi-line cluster report, matching the service summary style."""
        lines = [
            f"cluster           : {self.replicas} replicas "
            f"({self.healthy_replicas} healthy, backend={self.backend}), "
            f"placement={self.placement}",
            f"sessions          : {self.completed} completed / "
            f"{self.failed} failed / {self.cancelled} cancelled / "
            f"{self.parked} parked / {self.rejected} rejected "
            f"({self.submitted} accepted)",
            f"migrations        : {self.migrations} hops "
            f"({self.rebalances} rebalance sweeps, "
            f"{self.recoveries} crash recoveries, "
            f"{self.evicted} replica evictions)",
            f"cluster rate      : {self.sessions_per_second:.2f} sessions/s "
            f"over {self.elapsed_seconds:.2f} s",
            f"records mined     : {self.records}",
            f"simnet traffic    : {self.messages} msgs / {self.bytes} bytes",
        ]
        for index, stats in enumerate(self.per_replica):
            lines.append(
                f"replica {index:<10}: {stats.completed}/{stats.submitted} done, "
                f"{stats.evicted} evicted, {stats.active} active, "
                f"pool {stats.pool.utilization * 100:.1f}% busy"
            )
        for t in sorted(self.tenants, key=lambda t: t.tenant):
            lines.append(
                f"tenant {t.tenant:<11}: {t.completed} done, "
                f"{t.rejected} rejected, {t.records} records, "
                f"{t.messages} msgs / {t.bytes} bytes"
            )
        return "\n".join(lines)


class ClusterController:
    """N engine replicas behind one submit surface, rebalanced by checkpoint.

    Parameters
    ----------
    replicas:
        Number of replicas to build.  Each is a :class:`MiningService`
        (``max_inflight``/``queue_limit``/``shard_backend``/
        ``shard_workers`` apply per replica, so under ``thread`` a replica
        runs shard tasks on its own drivers) with its own checkpoint
        subdirectory ``replica-<i>/`` under ``checkpoint_dir``.
    placement:
        ``"hash"`` | ``"least_loaded"`` | ``"tenant"`` or a callable
        ``(spec, session_id, eligible, cluster) -> replica index``; see
        :mod:`repro.cluster.placement`.
    backend:
        ``"inprocess"`` (default) runs every replica's engine in this
        process; ``"process"`` runs each in its own OS process behind
        the framed replica protocol, with heartbeat health checks and
        crash recovery; those children boot side by side.  The two are
        interchangeable: same API, same bit-identical results.
    heartbeat_interval:
        Seconds between process-replica liveness checks (ignored for the
        in-process backend, but validated for both).
    tenants:
        Optional ``{tenant: TenantPolicy}`` budgets, enforced *here* —
        once per session, regardless of how many replicas it visits.
    telemetry:
        Optional :class:`repro.obs.Telemetry`: registers the cluster
        collector and emits ``migrate``/``rebalance``/``drain``/
        ``recover`` spans.  Replicas themselves run untraced (their
        gauge families would collide on one registry).
    checkpoint_dir / checkpoint_every / checkpoint_retain:
        The durability knobs that make sessions *movable*: without a
        ``checkpoint_dir`` the cluster still serves, but ``migrate``/
        ``rebalance``/``drain``/``close(park=True)`` are refused (and a
        crashed process replica's sessions can only be re-run from
        scratch).  ``checkpoint_every`` is the default save cadence for
        stream sessions; ``checkpoint_retain`` caps files kept per
        session.

    Use as a context manager, or call :meth:`close` when done.
    """

    def __init__(
        self,
        replicas: int = 2,
        placement: Any = "hash",
        *,
        backend: str = "inprocess",
        heartbeat_interval: float = 0.2,
        max_inflight: int = 2,
        queue_limit: Optional[int] = None,
        shard_backend: str = "thread",
        shard_workers: Optional[int] = None,
        tenants: Optional[Mapping[str, TenantPolicy]] = None,
        telemetry: Optional[Telemetry] = None,
        checkpoint_dir: Optional[str] = None,
        checkpoint_every: Optional[int] = None,
        checkpoint_retain: Optional[int] = None,
    ) -> None:
        if replicas < 1:
            raise ClusterError(
                f"a cluster needs at least one replica, got {replicas}"
            )
        if backend not in CLUSTER_BACKENDS:
            raise ClusterError(
                f"unknown cluster backend {backend!r}; choose from "
                f"{', '.join(CLUSTER_BACKENDS)}"
            )
        # NaN and infinity fail the comparison too; a longer wait than
        # TIMEOUT_MAX overflows the heartbeat's Event.wait.
        if not 0 < heartbeat_interval <= threading.TIMEOUT_MAX:
            raise ClusterError(
                f"heartbeat_interval must be a positive, finite number of "
                f"seconds, got {heartbeat_interval!r}"
            )
        try:
            self.placement, self._place = resolve_placement(placement)
        except ValueError as exc:
            raise ClusterError(str(exc)) from None
        self.backend = backend
        self.checkpoint_dir = checkpoint_dir
        self.checkpoint_every = checkpoint_every
        # Control state must exist before any replica does: a process
        # replica that dies during spawn reports through _replica_died.
        self._lock = threading.Lock()
        self._sessions: Dict[int, ClusterSession] = {}
        self._next_id = 0
        self._tenants: Dict[str, _ClusterTenant] = {
            tenant: _ClusterTenant(policy)
            for tenant, policy in dict(tenants or {}).items()
        }
        self._migrations = 0
        self._recoveries = 0
        self._rebalances = 0
        self._rejected = 0
        self._draining: set = set()
        self._closed = False
        self._started = time.perf_counter()
        self.telemetry = telemetry
        if telemetry is not None and not isinstance(telemetry, Telemetry):
            raise ValueError(
                f"telemetry must be a repro.obs.Telemetry bundle or "
                f"None, got {type(telemetry).__name__}"
            )

        def _replica_dir(index: int) -> Optional[str]:
            if checkpoint_dir is None:
                return None
            return os.path.join(checkpoint_dir, f"replica-{index}")

        def _boot(index: int) -> ReplicaTransport:
            service = dict(
                max_inflight=max_inflight,
                queue_limit=queue_limit,
                shard_backend=shard_backend,
                shard_workers=shard_workers,
                checkpoint_dir=_replica_dir(index),
                checkpoint_retain=checkpoint_retain,
            )
            if backend == "process":
                return ProcessReplica(
                    index,
                    service,
                    heartbeat_interval=heartbeat_interval,
                    on_death=self._replica_died,
                )
            return InProcessReplica(index, MiningService(**service))

        if backend == "process":
            built = _boot_concurrently(replicas, _boot)
        else:
            # In-process pools pre-fork from the constructing thread (see
            # MiningService), so these replicas boot here, in turn.
            built = []
            try:
                for index in range(replicas):
                    built.append(_boot(index))
            except BaseException:
                _close_quietly(built)
                raise
        self.replicas: Tuple[ReplicaTransport, ...] = tuple(built)
        if telemetry is not None:
            telemetry.metrics.register_collector(cluster_collector(self))

    # ------------------------------------------------------------------
    # admission + placement
    # ------------------------------------------------------------------
    def _tenant(self, tenant: str) -> _ClusterTenant:
        ledger = self._tenants.get(tenant)
        if ledger is None:
            ledger = _ClusterTenant(TenantPolicy())
            self._tenants[tenant] = ledger
        return ledger

    def _eligible(self) -> Tuple[int, ...]:
        return tuple(
            index
            for index in range(len(self.replicas))
            if index not in self._draining and self.replicas[index].healthy
        )

    def _live_tenant_sessions(self, tenant: str) -> int:
        """Sessions of ``tenant`` still holding capacity; under the lock."""
        return sum(
            1
            for session in self._sessions.values()
            if session.spec.tenant == tenant
            and session.poll() in ("queued", "running", "migrating")
        )

    def _prune_settled(self) -> None:
        """Drop settled sessions so a long-lived cluster does not pin every
        past result; parked sessions stay (they are resumable).  Under the
        lock."""
        settled = [
            session_id
            for session_id, session in self._sessions.items()
            if session.poll() in ("completed", "failed", "cancelled")
        ]
        for session_id in settled:
            del self._sessions[session_id]

    def _admit(self, spec: SessionSpec) -> int:
        """Cluster-level admission; under the lock.  Returns a session id."""
        if self._closed:
            raise AdmissionError("cluster is closed; no new sessions accepted")
        ledger = self._tenant(spec.tenant)
        refusal = ledger.policy.refusal(
            spec.tenant,
            lambda: self._live_tenant_sessions(spec.tenant),
            ledger.submitted,
            ledger.privacy_sessions,
            spec.effective_privacy,
        )
        if refusal is not None:
            ledger.rejected += 1
            self._rejected += 1
            raise AdmissionError(refusal)
        session_id = self._next_id
        self._next_id += 1
        return session_id

    def submit(
        self,
        spec: Union[SessionSpec, Mapping[str, Any]],
        *,
        checkpoint_every: Optional[int] = None,
        replica: Optional[int] = None,
    ) -> ClusterSession:
        """Admit one spec, place it, and return its :class:`ClusterSession`.

        Tenant budgets are checked here (cluster-wide, once per session);
        the chosen replica then applies its own capacity admission.  Both
        refusals raise :class:`AdmissionError`.  ``replica`` pins the
        session to one replica, bypassing the placement policy (it must
        not be draining or dead).  On the process backend a spec that
        :meth:`SessionSpec.to_mapping` cannot write down raises its
        :class:`ValueError` before placement, counting nothing.
        """
        if not isinstance(spec, SessionSpec):
            spec = SessionSpec.from_mapping(spec)
        if self.backend == "process":
            # A process replica is sent the spec's mapping: a spec that
            # cannot be written down is refused before it is placed.
            spec.to_mapping()
        every = (
            checkpoint_every
            if checkpoint_every is not None
            else self.checkpoint_every
        )
        with self._lock:
            self._prune_settled()
            eligible = self._eligible()
            if replica is not None:
                self._check_replica(replica)
                if replica in self._draining:
                    raise ClusterError(
                        f"replica {replica} is draining and accepts no "
                        f"new sessions"
                    )
                if not self.replicas[replica].healthy:
                    raise ClusterError(
                        f"replica {replica} is down and accepts no "
                        f"new sessions"
                    )
                eligible = (replica,)
            elif not eligible:
                raise ClusterError(
                    "every replica is draining or down; nothing can "
                    "accept sessions"
                )
            session_id = self._admit(spec)
            ledger = self._tenant(spec.tenant)
        destination = (
            replica
            if replica is not None
            else self._place(spec, session_id, eligible, self)
        )
        if destination not in eligible:
            raise ClusterError(
                f"placement policy {self.placement!r} chose replica "
                f"{destination}, which is not an eligible replica"
            )
        try:
            handle = self.replicas[destination].submit(
                spec,
                checkpoint_every=every if spec.kind == "stream" else None,
            )
        except AdmissionError:
            with self._lock:
                ledger.rejected += 1
                self._rejected += 1
            raise
        session = ClusterSession(
            spec, session_id, destination, handle,
            every if spec.kind == "stream" else None,
        )
        with self._lock:
            ledger.submitted += 1
            if spec.effective_privacy:
                ledger.privacy_sessions += 1
            self._sessions[session_id] = session
        return session

    def run(
        self, specs: Sequence[Union[SessionSpec, Mapping[str, Any]]]
    ) -> List[SessionResult]:
        """Submit a whole workload, wait, and return results in order."""
        sessions = [self.submit(spec) for spec in specs]
        return [session.result() for session in sessions]

    @property
    def sessions(self) -> Tuple[ClusterSession, ...]:
        """Tracked (unsettled or parked) sessions, in submission order."""
        with self._lock:
            return tuple(self._sessions.values())

    def session(self, session_id: int) -> ClusterSession:
        """Look one tracked session up by id; :class:`ClusterError` if gone."""
        with self._lock:
            session = self._sessions.get(session_id)
        if session is None:
            raise ClusterError(
                f"no tracked cluster session {session_id} (settled sessions "
                f"leave the cluster; parked ones stay until resumed)"
            )
        return session

    # ------------------------------------------------------------------
    # migration
    # ------------------------------------------------------------------
    def _check_replica(self, index: int) -> None:
        if not 0 <= index < len(self.replicas):
            raise ClusterError(
                f"no replica {index}; the cluster has "
                f"{len(self.replicas)} (0..{len(self.replicas) - 1})"
            )

    def _require_migratable(self) -> None:
        if self.checkpoint_dir is None:
            raise ClusterError(
                "sessions cannot move without a cluster checkpoint_dir: "
                "migration travels by checkpoint file"
            )

    def migrate(
        self,
        session_id: int,
        dst: int,
        timeout: Optional[float] = None,
    ) -> Optional[int]:
        """Move one live stream session to replica ``dst`` by checkpoint.

        No stop-the-world: the session's in-flight round completes on the
        old owner, the checkpoint written at the next post-drain round
        boundary travels to ``dst`` (as opaque bytes when the replicas
        live in other processes), and the resumed run is bit-identical
        to never having moved.  Returns the replica the session ended on
        — normally ``dst``; the *source* if the destination refused
        admission and the session bounced back — or ``None`` if the
        session completed before reaching a boundary (nothing to move).

        Raises :class:`ClusterError` for sessions that cannot move:
        unknown ids, parked or already-migrating sessions, settled
        sessions, batch sessions, and clusters without a
        ``checkpoint_dir``.  If *neither* replica can re-admit the
        session, it is parked (checkpoint kept, capacity released) and
        the error names the file to :meth:`resume` from.  If ``timeout``
        lapses before the next boundary, :class:`ClusterError` says so
        and the session parks when it reaches that boundary.
        """
        self._require_migratable()
        self._check_replica(dst)
        if not self.replicas[dst].healthy:
            raise ClusterError(
                f"replica {dst} is down; pick a live migration target"
            )
        session = self.session(session_id)
        src = session.replica
        if dst == src:
            raise ClusterError(
                f"session {session_id} already lives on replica {src}"
            )
        handle = session._claim(src)
        if not handle.migratable:
            session._release()
            raise ClusterError(
                f"session {session_id} is not migratable: only stream "
                f"sessions on a checkpointing cluster can move"
            )
        with self._span("migrate", session=session_id, src=src, dst=dst) as span:
            payload = self._evict(session, handle, src, timeout)
            if payload is None:
                span.set(outcome="completed-first")
                self._count_migration("completed-first")
                return None
            landed = self._land(session, payload, (dst,), "migrated")
            if landed is None:
                landed = self._land(session, payload, (src,), "bounced")
            if landed is None:
                session._release(park_at=payload.path)
                raise ClusterError(
                    f"migration parked session {session_id}: neither "
                    f"replica {dst} nor {src} could re-admit it; resume from "
                    f"{payload.path!r}"
                )
            span.set(outcome="migrated" if landed == dst else "bounced")
        return landed

    def _evict(
        self,
        session: ClusterSession,
        handle: Any,
        src: int,
        timeout: Optional[float],
    ) -> Optional[CheckpointPayload]:
        """Checkpoint-and-abandon a claimed hop at its next round boundary.

        Returns the checkpoint, or ``None`` (claim released) when the hop
        settled first.  When ``timeout`` lapses first, the claim is
        released and :class:`ClusterError` raised; the eviction request
        stays armed, so the session parks at its next boundary.
        """
        try:
            payload = self.replicas[src].evict(
                handle.session_id, timeout=timeout
            )
        except CheckpointError:
            # The hop settled (and left the replica) before the request:
            # exactly like completing before a boundary.
            payload = None
        except BaseException:
            session._release()
            raise
        if payload is not None:
            return payload
        session._release()
        if handle.poll() in ("completed", "failed", "cancelled"):
            return None
        raise ClusterError(
            f"session {session.session_id} reached no round boundary within "
            f"{timeout} s; it parks at its next boundary"
        )

    def _land(
        self,
        session: ClusterSession,
        payload: Optional[CheckpointPayload],
        targets: Sequence[int],
        outcome: str,
    ) -> Optional[int]:
        """Re-admit a claimed session on the first of ``targets`` that
        accepts it — from ``payload``, or from scratch when it is ``None``
        — and count the hop; ``None`` (claim kept) if every one refuses."""
        for target in targets:
            try:
                handle = self.replicas[target].submit(
                    session.spec,
                    checkpoint_every=session.checkpoint_every,
                    resume=payload,
                )
            except (AdmissionError, CheckpointError):
                continue  # full, down, or refusing a damaged payload
            session._finish(target, handle)
            self._count_migration(outcome)
            return target
        return None

    def _placement_order(self, session: ClusterSession) -> List[int]:
        """The eligible replicas, the placement policy's pick first."""
        with self._lock:
            eligible = self._eligible()
        if not eligible:
            return []
        first = self._place(session.spec, session.session_id, eligible, self)
        if first not in eligible:
            first = eligible[0]
        return [first] + [index for index in eligible if index != first]

    def _count_migration(self, outcome: str) -> None:
        with self._lock:
            if outcome != "completed-first":
                self._migrations += 1
            if outcome == "recovered":
                self._recoveries += 1
        if self.telemetry is not None:
            self.telemetry.metrics.counter(
                "repro_cluster_migrations_total",
                "Migration attempts by outcome.",
                outcome=outcome,
            ).inc()

    def rebalance(self, timeout: Optional[float] = None) -> List[Tuple[int, int, int]]:
        """Move sessions off hot replicas until live counts are level.

        Plans against the current distribution of *movable* sessions
        (live streams with a checkpointer), then executes the plan as
        ordinary :meth:`migrate` calls — each hop waits for its session's
        next round boundary.  Returns the executed moves as
        ``(session_id, src, dst)`` triples.
        """
        self._require_migratable()
        with self._lock:
            eligible = self._eligible()
            if not eligible:
                raise ClusterError(
                    "every replica is draining or down; nothing to rebalance"
                )
            movable: Dict[int, List[int]] = {index: [] for index in eligible}
            for session in self._sessions.values():
                owner = session.replica
                if (
                    owner in movable
                    and session.spec.kind == "stream"
                    and session.poll() in ("queued", "running")
                ):
                    movable[owner].append(session.session_id)
        total = sum(len(ids) for ids in movable.values())
        ceiling = math.ceil(total / len(eligible)) if total else 0
        plan: List[Tuple[int, int, int]] = []
        counts = {index: len(ids) for index, ids in movable.items()}
        for src in sorted(movable, key=lambda i: -counts[i]):
            while counts[src] > ceiling:
                dst = min(
                    (i for i in eligible if i != src),
                    key=lambda i: (counts[i], i),
                    default=None,
                )
                if dst is None or counts[dst] + 1 > ceiling:
                    break
                plan.append((movable[src].pop(), src, dst))
                counts[src] -= 1
                counts[dst] += 1
        moves: List[Tuple[int, int, int]] = []
        with self._span("rebalance", planned=len(plan)) as span:
            for session_id, src, dst in plan:
                try:
                    final = self.migrate(session_id, dst, timeout=timeout)
                except ClusterError:
                    continue  # settled, moving, or parking since planning
                if final is not None:
                    moves.append((session_id, src, final))
            span.set(moves=len(moves))
        with self._lock:
            self._rebalances += 1
        return moves

    def drain(
        self,
        replica: int,
        timeout: Optional[float] = None,
        resume: bool = True,
    ) -> List[Tuple[int, Optional[int]]]:
        """Empty one replica: park or re-place every live session it owns.

        The replica is excluded from placement immediately; its movable
        sessions all get eviction requests up front (they reach their
        round boundaries concurrently), then each checkpoint is either
        re-placed on the remaining replicas (``resume=True``, the
        default; the placement policy's pick first, then the others) or
        left *parked* for :meth:`resume`.  Non-checkpointable sessions
        (batch, or streams on a non-checkpointing cluster) are waited
        out.  Returns ``(session_id, destination)`` pairs with ``None``
        for parked sessions — those no replica admitted, and those that
        reached no boundary within ``timeout`` (they park at the next).
        """
        self._check_replica(replica)
        if resume:
            self._require_migratable()
        with self._lock:
            self._draining.add(replica)
            if resume and not self._eligible():
                self._draining.discard(replica)
                raise ClusterError(
                    f"cannot drain replica {replica}: it is the last "
                    f"replica accepting sessions (use resume=False to park)"
                )
            owned = [
                session
                for session in self._sessions.values()
                if session.replica == replica
            ]
        dispositions: List[Tuple[int, Optional[int]]] = []
        with self._span(
            "drain", replica=replica, resume=resume, sessions=len(owned)
        ) as span:
            # Signal every movable session first so boundaries are reached
            # concurrently, then collect checkpoints one by one.
            marked: List[Tuple[ClusterSession, Any]] = []
            waited: List[ClusterSession] = []
            for session in owned:
                try:
                    handle = session._claim(replica)
                except ClusterError:
                    continue  # parked, lost, moving, moved or settled
                if not handle.migratable:
                    session._release()
                    waited.append(session)
                    continue
                handle.request_evict()
                marked.append((session, handle))
            for session, handle in marked:
                try:
                    payload = self._evict(session, handle, replica, timeout)
                except ClusterError:  # no boundary yet: parks at the next
                    dispositions.append((session.session_id, None))
                    continue
                if payload is None:
                    continue
                landed = None
                if resume:
                    landed = self._land(
                        session, payload, self._placement_order(session),
                        "drained",
                    )
                if landed is None:
                    session._release(park_at=payload.path)
                dispositions.append((session.session_id, landed))
            for session in waited:
                session.wait(timeout=timeout)
            span.set(moved=sum(1 for _, landed in dispositions if landed is not None))
        return dispositions

    def resume(
        self,
        session_id: int,
        replica: Optional[int] = None,
        timeout: Optional[float] = None,
    ) -> int:
        """Re-admit a *parked* session; returns the replica it landed on.

        Parked sessions (from ``drain(..., resume=False)``, a failed
        double-admission during :meth:`migrate`, a lapsed migrate or
        drain wait, or a crash recovery that found no room) keep their
        checkpoint and their :class:`ClusterSession` identity; resuming
        hands the same object a fresh engine handle, so existing waiters
        unblock.  The session lands on ``replica``, or else on the
        placement policy's pick or, failing that, any other eligible
        replica; each landing counts one migration hop.  If none admits
        it, the session stays parked and :class:`ClusterError` says so.
        """
        session = self.session(session_id)
        if replica is not None:
            self._check_replica(replica)
        path = session._claim_parked()
        targets = (
            [replica] if replica is not None else self._placement_order(session)
        )
        landed = self._land(session, CheckpointPayload(path), targets, "resumed")
        if landed is None:
            session._release(park_at=path)
            raise ClusterError(
                f"no replica could re-admit session {session_id}; it stays "
                f"parked at {path!r}"
            )
        return landed

    def undrain(self, replica: int) -> None:
        """Let a drained replica accept placements again."""
        self._check_replica(replica)
        with self._lock:
            self._draining.discard(replica)

    # ------------------------------------------------------------------
    # crash recovery
    # ------------------------------------------------------------------
    def _replica_died(self, index: int) -> None:
        """Re-home every session a dead replica owned; the transport calls
        this exactly once per death, from a dedicated thread.

        Recovery is a handoff the session did not ask for: the newest
        intact checkpoint in the dead replica's directory travels to a
        surviving replica as bytes; a session without one (or whose
        checkpoint no survivor accepts) is simply re-run from the start
        (sessions are deterministic, so the result is bit-identical
        either way — only wall-clock work is lost).  Survivors are tried
        in placement order.  Sessions no survivor can admit are parked
        when a checkpoint exists, declared lost otherwise; sessions that
        already settled are left alone.
        """
        with self._lock:
            if self._closed:
                return
            # Every death during boot finds none: no session exists
            # before the constructor returns, nor does self.replicas.
            owned = [
                session
                for session in self._sessions.values()
                if session.replica == index
            ]
        if not owned:
            return
        outcomes = {"recovered": 0, "parked": 0, "lost": 0}
        with self._span("recover", replica=index, sessions=len(owned)) as span:
            for session in owned:
                try:
                    handle = session._claim(index)
                except ClusterError:
                    continue  # parked, lost, moving or settled
                payload = self._latest_checkpoint(
                    index, handle.session_id, session.spec
                )
                order = self._placement_order(session)
                # From the checkpoint if there is one, else (or when no
                # survivor takes it) from scratch.
                attempts = [None] if payload is None else [payload, None]
                if any(
                    self._land(session, attempt, order, "recovered") is not None
                    for attempt in attempts
                ):
                    outcomes["recovered"] += 1
                elif payload is not None:
                    session._release(park_at=payload.path)
                    outcomes["parked"] += 1
                else:
                    session._mark_lost(
                        f"session {session.session_id} was lost: replica "
                        f"{index} died leaving no checkpoint, and no "
                        f"surviving replica could re-run it"
                    )
                    outcomes["lost"] += 1
            span.set(**outcomes)

    def _latest_checkpoint(
        self, replica_index: int, engine_session_id: int, spec: SessionSpec
    ) -> Optional[CheckpointPayload]:
        """The newest checkpoint a dead replica left for one session that
        still validates (a save torn by the crash fails its digest and is
        skipped in favor of the previous one) and embeds the session's
        spec: engine labels restart at 0 in every run, so a directory
        reused from an earlier run holds its files under the same labels."""
        directory = self.replicas[replica_index].checkpoint_dir
        if directory is None or not os.path.isdir(directory):
            return None
        label = f"session-{engine_session_id}"
        expected = spec.to_mapping()
        for path in reversed(list_checkpoints(directory, label=label)):
            try:
                with open(path, "rb") as stream:
                    data = stream.read()
                ckpt = loads_checkpoint(data, origin=f"{path!r}")
            except (OSError, CheckpointError):
                continue
            if ckpt.spec == expected:
                return CheckpointPayload(path, data=data)
        return None

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def _span(self, name: str, **attrs: Any):
        """A span to open with ``with``; a no-op one when telemetry is off."""
        if self.telemetry is None:
            return NULL_TRACER.span(name)
        return self.telemetry.span(name, **attrs)

    def stats(self) -> ClusterStats:
        """The merged cluster snapshot; traffic counters are exact sums of
        the per-replica :class:`ServiceStats` (a dead replica contributes
        its last reported snapshot, in-flight counts zeroed)."""
        per_replica = tuple(replica.stats() for replica in self.replicas)
        healthy = sum(1 for replica in self.replicas if replica.healthy)
        with self._lock:
            elapsed = time.perf_counter() - self._started
            submitted = sum(t.submitted for t in self._tenants.values())
            rejected = self._rejected
            migrations = self._migrations
            recoveries = self._recoveries
            rebalances = self._rebalances
            parked = sum(
                1
                for session in self._sessions.values()
                if session.parked_path is not None
            )
            ledgers = {
                name: (ledger.submitted, ledger.privacy_sessions,
                       ledger.rejected)
                for name, ledger in self._tenants.items()
            }
        # Material counters (work done, traffic) are exact per-replica
        # sums; the budget-bearing ones (submitted, privacy_sessions,
        # rejected) come from the cluster ledger instead — they are
        # charged once per *logical* session, however many replicas a
        # migrating session visits, and replica-level re-admissions
        # (migration hops, bounce attempts, crash re-runs) must not
        # inflate them.
        merged: Dict[str, TenantStats] = {}
        for stats in per_replica:
            for tenant in stats.tenants:
                into = merged.setdefault(tenant.tenant, TenantStats(tenant.tenant))
                for name, value in vars(tenant).items():
                    if name == "tenant":
                        continue
                    setattr(into, name, getattr(into, name) + value)
        for name, (subs, privacy, refusals) in ledgers.items():
            into = merged.setdefault(name, TenantStats(name))
            into.submitted = subs
            into.privacy_sessions = privacy
            into.rejected = refusals
        return ClusterStats(
            elapsed_seconds=elapsed,
            replicas=len(self.replicas),
            placement=self.placement,
            backend=self.backend,
            healthy_replicas=healthy,
            submitted=submitted,
            rejected=rejected,
            migrations=migrations,
            recoveries=recoveries,
            rebalances=rebalances,
            parked=parked,
            completed=sum(s.completed for s in per_replica),
            failed=sum(s.failed for s in per_replica),
            cancelled=sum(s.cancelled for s in per_replica),
            evicted=sum(s.evicted for s in per_replica),
            active=sum(s.active for s in per_replica),
            records=sum(s.records for s in per_replica),
            messages=sum(s.messages for s in per_replica),
            bytes=sum(s.bytes for s in per_replica),
            tenants=tuple(merged.values()),
            per_replica=per_replica,
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def wait_all(self, timeout: Optional[float] = None) -> None:
        """Block until every tracked session settles (or parks)."""
        deadline = _deadline(timeout)
        for session in self.sessions:
            session.wait(timeout=_remaining(deadline))

    def close(
        self, wait: bool = True, park: bool = False
    ) -> Optional[List[str]]:
        """Close every replica; process children are always reaped (clean
        shutdown first, escalating to terminate/kill) so no interrupt or
        crash path leaks an orphan.  ``park=True`` parks live
        checkpointable sessions (scheduled checkpoint-on-shutdown) and
        returns the written checkpoint paths; plain close waits sessions
        out and returns ``None``."""
        if park:
            self._require_migratable()
        with self._lock:
            if self._closed:
                return [] if park else None
            self._closed = True
            sessions = list(self._sessions.values())
        if not park:
            for replica in self.replicas:
                replica.close(wait=wait)
            return None
        paths: List[str] = []
        parked_by_replica: Dict[int, List[str]] = {}
        for replica in self.replicas:
            parked = replica.close(wait=wait, park=True) or []
            parked_by_replica[replica.index] = list(parked)
            paths.extend(parked)
        for session in sessions:
            # Observing a session parks a hop its replica evicted; a
            # closed process replica can no longer name the file, but its
            # list of parked files can.
            session._status(parked_by_replica[session.replica])
        return paths

    def __enter__(self) -> "ClusterController":
        """Context-manager entry: the controller itself."""
        return self

    def __exit__(self, *exc_info: object) -> None:
        """Context-manager exit: close every replica."""
        self.close()


def _close_quietly(replicas: Sequence[Optional[ReplicaTransport]]) -> None:
    """Close every replica that came up (reaping process children)."""
    for replica in replicas:
        if replica is not None:
            try:
                replica.close(wait=False)
            except Exception:
                pass


def _boot_concurrently(
    count: int, boot: Callable[[int], ReplicaTransport]
) -> List[ReplicaTransport]:
    """``[boot(0), ..., boot(count - 1)]``, each run on its own thread.

    A process replica spends its boot importing the package and building
    its service in its own child, so side by side N boots take about as
    long as one.  When a boot fails, or the caller is interrupted while
    waiting, every other boot is still waited out (each is bounded by the
    replica's ``init`` deadline), every replica that came up is closed,
    and the interrupt, else the first failure by index, is raised.
    """
    booted: List[Optional[ReplicaTransport]] = [None] * count
    failures: List[Optional[BaseException]] = [None] * count

    def run(index: int) -> None:
        try:
            booted[index] = boot(index)
        except BaseException as exc:
            failures[index] = exc

    threads = [
        threading.Thread(
            target=run,
            args=(index,),
            name=f"repro-replica-{index}-boot",
            daemon=True,
        )
        for index in range(count)
    ]
    try:
        # A Ctrl-C while starting lands once every boot has started.
        with _InterruptShield():
            for thread in threads:
                thread.start()
        for thread in threads:
            thread.join()
    except BaseException:
        try:
            for thread in threads:
                if thread.ident is not None:
                    thread.join()
        finally:
            _close_quietly(booted)
        raise
    for failure in failures:
        if failure is not None:
            _close_quietly(booted)
            raise failure
    return booted


def _deadline(timeout: Optional[float]) -> Optional[float]:
    return None if timeout is None else time.perf_counter() + timeout


def _remaining(deadline: Optional[float]) -> Optional[float]:
    if deadline is None:
        return None
    return max(0.0, deadline - time.perf_counter())
