"""Replica transports: the narrow surface the cluster control plane speaks.

The :class:`~repro.cluster.controller.ClusterController` never touches a
:class:`~repro.serve.engine.MiningService` directly any more — it drives
a :class:`ReplicaTransport`, whose whole vocabulary is

    submit / poll / wait / result / cancel / evict / stats / health /
    close

with checkpoints crossing as **opaque RPCK bytes**
(:class:`CheckpointPayload`).  Two interchangeable backends implement it:

* :class:`InProcessReplica` — the PR 9 behavior, preserved exactly: a
  service in this process, handles passed by reference, checkpoints by
  path.  Always healthy; transport counters stay zero.
* :class:`ProcessReplica` — a service in a **separate OS process**
  (``python -m repro.cluster.replica``), driven over a framed socketpair
  (:mod:`repro.cluster.protocol`).  Results and stats come back as the
  registered dataclasses themselves (:func:`repro.checkpoint.register`);
  checkpoints travel as bytes and are validated by the receiving engine
  like any local file.  A heartbeat thread watches the child (process
  liveness every tick, an application-level ping when the connection is
  idle) and reports death exactly once via ``on_death`` — the
  controller's crash-recovery hook.

Both backends hand out handles with one surface (the engine's own
:class:`~repro.serve.engine.SessionHandle` / :class:`RemoteHandle`):
``poll`` statuses are the engine's, plus ``"lost"`` from a remote handle
whose replica died — the control plane turns ``lost`` into recovery,
callers never see it for longer than a handoff.

Determinism is untouched by construction: a transport moves *opaque
state and results*; it never reorders a session's execution, so any
schedule of migrations/crashes/resumes over process replicas reproduces
the single-engine run bit for bit.
"""

from __future__ import annotations

import logging
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..checkpoint import CheckpointError
from ..core.session import SAPSessionResult
from ..serve.engine import (
    AdmissionError,
    MiningService,
    PoolStats,
    ServiceStats,
    SessionHandle,
    SessionResult,
)
from ..serve.spec import SessionSpec
from ..streaming.stream_session import StreamSessionResult
from .protocol import TransportError, read_frame, unwrap_response, write_frame

__all__ = [
    "CheckpointPayload",
    "ReplicaTransport",
    "InProcessReplica",
    "RemoteHandle",
    "ProcessReplica",
]

#: handle statuses after which wait() need not keep blocking
_SETTLED = ("completed", "failed", "cancelled", "evicted")

#: seconds a spawned replica has to answer ``init`` (import the package,
#: build its service) before it is killed and its boot fails
INIT_TIMEOUT_S = 60.0

#: seconds to wait for a killed child's exit status
_REAP_TIMEOUT_S = 5.0


def result_from_wire(value: Any) -> SessionResult:
    """The session result a ``result`` frame carries, checked for type."""
    if not isinstance(value, (SAPSessionResult, StreamSessionResult)):
        raise TransportError(
            f"a result frame must carry a session result, got a "
            f"{type(value).__name__}"
        )
    return value


@dataclass(frozen=True)
class CheckpointPayload:
    """One checkpoint as it crosses the control plane.

    ``path`` always names the file on the *source* replica's directory
    (kept for parked-session resume hints); ``data`` carries the full
    RPCK bytes when the checkpoint came over a wire.  A transport asked
    to resume from a payload without bytes reads ``path`` itself — every
    replica of one cluster shares the controller's checkpoint tree.
    """

    path: str
    data: Optional[bytes] = None

    def read(self) -> bytes:
        """The checkpoint bytes, loading them from ``path`` if needed."""
        if self.data is not None:
            return self.data
        with open(self.path, "rb") as stream:
            return stream.read()


class ReplicaTransport:
    """The protocol a cluster replica speaks, backend-independent.

    Implementations also carry ``index`` (position in the cluster),
    ``kind`` (``"inprocess"`` | ``"process"``), ``checkpoint_dir`` (the
    replica's own checkpoint directory or ``None``), the liveness surface
    (``healthy``, ``heartbeat_age``), and the transport counters
    (``frames_sent``/``frames_received``/``wire_bytes_sent``/
    ``wire_bytes_received`` — zero for in-process replicas).
    """

    def submit(
        self,
        spec: SessionSpec,
        checkpoint_every: Optional[int] = None,
        resume: Optional[CheckpointPayload] = None,
    ):
        """Admit one session (fresh, or resumed from a checkpoint payload)."""
        raise NotImplementedError

    def evict(
        self, session_id: int, timeout: Optional[float] = None
    ) -> Optional[CheckpointPayload]:
        """Checkpoint-and-abandon one live session; ``None`` if it settled
        before reaching a boundary."""
        raise NotImplementedError

    def stats(self) -> ServiceStats:
        """The replica's service snapshot (last known one if it is down)."""
        raise NotImplementedError

    def close(
        self, wait: bool = True, park: bool = False
    ) -> Optional[List[str]]:
        """Shut the replica down; with ``park=True`` returns parked paths."""
        raise NotImplementedError


# ----------------------------------------------------------------------
# in-process backend (PR 9 behavior, preserved)
# ----------------------------------------------------------------------
class InProcessReplica(ReplicaTransport):
    """The original backend: a :class:`MiningService` in this process."""

    kind = "inprocess"

    def __init__(self, index: int, service: MiningService) -> None:
        self.index = index
        self.service = service
        self.checkpoint_dir = service.checkpoint_dir
        self.frames_sent = 0
        self.frames_received = 0
        self.wire_bytes_sent = 0
        self.wire_bytes_received = 0

    @property
    def healthy(self) -> bool:
        """An in-process replica lives exactly as long as the controller."""
        return True

    @property
    def heartbeat_age(self) -> float:
        """Seconds since liveness was confirmed (always now, in-process)."""
        return 0.0

    def submit(
        self,
        spec: SessionSpec,
        checkpoint_every: Optional[int] = None,
        resume: Optional[CheckpointPayload] = None,
    ) -> SessionHandle:
        return self.service.submit(
            spec,
            resume_from=None if resume is None else resume.path,
            checkpoint_every=checkpoint_every,
        )

    def evict(
        self, session_id: int, timeout: Optional[float] = None
    ) -> Optional[CheckpointPayload]:
        path = self.service.evict(session_id, timeout=timeout)
        return None if path is None else CheckpointPayload(path)

    def stats(self) -> ServiceStats:
        return self.service.stats()

    def close(
        self, wait: bool = True, park: bool = False
    ) -> Optional[List[str]]:
        return self.service.close(wait=wait, park=park)


# ----------------------------------------------------------------------
# process backend
# ----------------------------------------------------------------------
class _InterruptShield:
    """Defer ``SIGINT`` for the duration of one framed exchange.

    The replica protocol is strictly request/response on one stream, so
    an exchange must be atomic with respect to Ctrl-C: an interrupt
    raised after ``write_frame`` but before ``read_frame`` completes
    abandons the in-flight response in the kernel buffer, and every
    subsequent RPC then unwraps some earlier reply — including the
    interrupt handler's own ``close(park=True)``.  Inside the main
    thread, this context manager swaps in a capturing ``SIGINT`` handler
    and re-raises :class:`KeyboardInterrupt` once the exchange finishes;
    in other threads (heartbeat, recovery) it is a no-op, since signals
    are only ever delivered to the main thread anyway.
    """

    def __enter__(self) -> "_InterruptShield":
        self._pending = False
        self._installed = False
        self._previous: Any = None
        if threading.current_thread() is threading.main_thread():
            try:
                self._previous = signal.signal(signal.SIGINT, self._capture)
                self._installed = True
            except ValueError:  # pragma: no cover — embedded interpreter
                pass
        return self

    def _capture(self, signum: int, frame: Any) -> None:
        self._pending = True

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        if self._installed:
            restore = (
                self._previous
                if self._previous is not None
                else signal.default_int_handler
            )
            signal.signal(signal.SIGINT, restore)
            if self._pending and exc_type is None:
                raise KeyboardInterrupt
        return False


class _CountingSocket:
    """Socket facade feeding the replica's wire counters."""

    def __init__(self, sock: socket.socket, owner: "ProcessReplica") -> None:
        self._sock = sock
        self._owner = owner

    def recv(self, n: int) -> bytes:
        data = self._sock.recv(n)
        self._owner.wire_bytes_received += len(data)
        return data

    def sendall(self, data: bytes) -> None:
        self._sock.sendall(data)
        self._owner.wire_bytes_sent += len(data)


class RemoteHandle:
    """A replica handle backed by a session in another process.

    Statuses are the engine's; a handle whose replica died reports
    ``"lost"`` — the cluster session layer treats it like a handoff in
    flight and waits for crash recovery to install a replacement handle.
    """

    def __init__(
        self,
        replica: "ProcessReplica",
        spec: SessionSpec,
        session_id: int,
        migratable: bool,
    ) -> None:
        self.spec = spec
        self.session_id = session_id
        self._replica = replica
        self._migratable = migratable
        self._wall_seconds = 0.0
        # Last terminal status seen; a settled session stays settled even
        # after its replica is gone (closed or crashed).
        self._settled: Optional[str] = None
        # ``(result, error)`` once ``result`` has collected the session's
        # end; the replica forgets the session then.
        self._outcome: Optional[Tuple[Any, Optional[BaseException]]] = None

    @property
    def migratable(self) -> bool:
        """Whether the session can move (it writes checkpoints)."""
        return self._migratable

    @property
    def wall_seconds(self) -> float:
        """Last observed execution wall clock (refreshed by ``poll``)."""
        self.poll()
        return self._wall_seconds

    def poll(self) -> str:
        """Current status over the wire; ``"lost"`` if the replica died."""
        if self._settled is not None:
            return self._settled
        if not self._replica.healthy:
            return "lost"
        try:
            value = self._replica._rpc("poll", session_id=self.session_id)
        except TransportError:
            return "lost"
        self._wall_seconds = value["wall_seconds"]
        status = value["status"]
        if status in _SETTLED:
            self._settle(status)
        return status

    def _settle(self, status: str) -> None:
        self._settled = status
        # The replica's cached snapshot now counts this end: should the
        # replica die, recovery leaves a settled hop alone, and the
        # snapshot is what the cluster sums for it.
        self._replica._refresh_stats()

    def done(self) -> bool:
        """Whether the session has settled (any terminal status)."""
        return self.poll() in _SETTLED

    def wait(self, timeout: Optional[float] = None) -> str:
        """Block until the session settles, the timeout lapses, or the
        replica dies (``"lost"``) — chunked so one waiter cannot pin the
        connection while the heartbeat needs it."""
        if self._settled is not None:
            return self._settled
        deadline = (
            None if timeout is None else time.perf_counter() + timeout
        )
        status = "lost"
        while self._replica.healthy:
            remaining = (
                None
                if deadline is None
                else max(0.0, deadline - time.perf_counter())
            )
            chunk = 0.25 if remaining is None else min(0.25, remaining)
            try:
                value = self._replica._rpc(
                    "wait", session_id=self.session_id, timeout=chunk
                )
            except TransportError:
                return "lost"
            status = value["status"]
            if status in _SETTLED:
                self._settle(status)
                return status
            if remaining is not None and remaining <= chunk:
                return status
        return "lost"

    def result(self, timeout: Optional[float] = None) -> SessionResult:
        """Fetch the settled result over the wire, once, and rehydrate it."""
        if self._outcome is None:
            status = self.wait(timeout=timeout)
            if status == "lost":
                raise TransportError(
                    f"replica {self._replica.index} died while owning "
                    f"session {self.session_id}"
                )
            try:
                value = self._replica._rpc(
                    "result", session_id=self.session_id, timeout=timeout
                )
            except TransportError:
                raise
            except Exception as exc:  # the session's own end, re-raised
                if status not in ("completed", "failed", "cancelled"):
                    raise
                self._outcome = (None, exc)
            else:
                self._outcome = (result_from_wire(value["result"]), None)
        result, error = self._outcome
        if error is not None:
            raise error
        return result

    def cancel(self) -> bool:
        """Cancel on the owning replica; False if it cannot be reached."""
        try:
            value = self._replica._rpc("cancel", session_id=self.session_id)
        except TransportError:
            return False
        return bool(value["cancelled"])

    def request_evict(self) -> None:
        """Ask for a checkpoint-and-abandon at the next round boundary."""
        self._replica._rpc("request_evict", session_id=self.session_id)

    def evicted_path(self) -> Optional[str]:
        """The checkpoint file of a settled eviction, else ``None``."""
        try:
            value = self._replica._rpc(
                "collect_evicted", session_id=self.session_id, timeout=5.0
            )
        except TransportError:
            return None
        return value["path"]


def _offline_stats() -> ServiceStats:
    """The snapshot of a replica that died before reporting anything."""
    return ServiceStats(
        elapsed_seconds=0.0, submitted=0, rejected=0, completed=0, failed=0,
        cancelled=0, evicted=0, active=0, records=0, messages=0, bytes=0,
        tenants=(),
        pool=PoolStats(
            backend="process", workers=0, tasks=0, batches=0,
            busy_seconds=0.0, utilization=0.0,
        ),
    )


def _kill(process: subprocess.Popen) -> None:
    """SIGKILL a child and reap it, waiting a bounded time (a child stuck
    in the kernel is left to ``subprocess``'s own later reaping)."""
    process.kill()
    try:
        process.wait(timeout=_REAP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        pass


class ProcessReplica(ReplicaTransport):
    """A replica in a separate OS process behind the framed protocol.

    Construction spawns the child and waits for its answer to ``init``,
    at most :data:`INIT_TIMEOUT_S` seconds; a child that dies or stays
    silent is killed and reaped, and :class:`TransportError` is raised.

    Parameters
    ----------
    index:
        This replica's position in the cluster (labels, placement).
    service_kwargs:
        Constructor arguments for the child's :class:`MiningService`
        (``max_inflight``, ``shard_backend``, ``checkpoint_dir``, ...).
        Must be codec-encodable; tenant policies travel as plain field
        mappings.
    heartbeat_interval:
        Seconds between liveness checks.  Every tick checks the child
        process; when the connection is idle, an application ``ping``
        additionally guards against a wedged-but-alive child.
    on_death:
        Called **exactly once**, with this replica's index, from a
        dedicated thread, when the child is found dead — the controller
        hangs crash recovery off it.
    """

    kind = "process"

    def __init__(
        self,
        index: int,
        service_kwargs: Dict[str, Any],
        heartbeat_interval: float = 0.2,
        on_death: Optional[Callable[[int], None]] = None,
    ) -> None:
        self.index = index
        self.checkpoint_dir = service_kwargs.get("checkpoint_dir")
        self.frames_sent = 0
        self.frames_received = 0
        self.wire_bytes_sent = 0
        self.wire_bytes_received = 0
        self._lock = threading.RLock()
        self._death_lock = threading.Lock()
        self._dead = False
        self._on_death = on_death
        self._stats_cache: Optional[ServiceStats] = None
        self._last_heartbeat = time.perf_counter()
        self._stop = threading.Event()
        self._heartbeat_interval = heartbeat_interval

        parent_sock, child_sock = socket.socketpair()
        # The child must import this package; inherit our resolution.
        package_root = os.path.dirname(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            package_root
            + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        )
        # ``start_new_session`` detaches the child from the terminal's
        # process group: a Ctrl-C reaches only the parent, which parks
        # sessions and then terminates replicas deliberately.
        self._process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cluster.replica",
                str(child_sock.fileno()),
            ],
            pass_fds=(child_sock.fileno(),),
            start_new_session=True,
            env=env,
        )
        child_sock.close()
        self._sock = parent_sock
        self._stream = _CountingSocket(parent_sock, self)
        parent_sock.settimeout(INIT_TIMEOUT_S)
        try:
            # The child logs like this process: same handler, same level.
            value = self._rpc(
                "init",
                service=dict(service_kwargs),
                log_level=logging.getLogger("repro").getEffectiveLevel(),
            )
        except BaseException:
            _kill(self._process)
            parent_sock.close()
            raise
        parent_sock.settimeout(None)
        self.pid = value["pid"]
        self._heartbeat = threading.Thread(
            target=self._heartbeat_loop,
            name=f"repro-replica-{index}-heartbeat",
            daemon=True,
        )
        self._heartbeat.start()

    # -- liveness -------------------------------------------------------
    @property
    def healthy(self) -> bool:
        """False once the child process died or the connection broke."""
        return not self._dead

    @property
    def heartbeat_age(self) -> float:
        """Seconds since the child last proved it is alive."""
        return time.perf_counter() - self._last_heartbeat

    def _mark_dead(self) -> None:
        with self._death_lock:
            if self._dead:
                return
            self._dead = True
        # The dead replica runs nothing any more: its last snapshot's
        # in-flight counts would otherwise haunt the cluster sums while
        # recovery re-places those sessions elsewhere.
        if self._stats_cache is not None:
            self._stats_cache.active = 0
            for tenant in self._stats_cache.tenants:
                tenant.active = 0
        callback = self._on_death
        if callback is not None:
            # A fresh thread: death is often discovered mid-RPC under
            # arbitrary caller locks, and recovery needs the controller's.
            threading.Thread(
                target=callback,
                args=(self.index,),
                name=f"repro-replica-{self.index}-recovery",
                daemon=True,
            ).start()

    def _heartbeat_loop(self) -> None:
        while not self._stop.wait(self._heartbeat_interval):
            if self._dead:
                return
            if self._process.poll() is not None:
                self._mark_dead()
                return
            # Ping only when the connection is idle: a held lock means an
            # RPC is in flight, which is liveness evidence by itself.
            if not self._lock.acquire(blocking=False):
                continue
            try:
                if self._dead or self._stop.is_set():
                    return
                self._sock.settimeout(max(2.0, 10 * self._heartbeat_interval))
                try:
                    write_frame(self._stream, {"op": "ping"})
                    self.frames_sent += 1
                    response = read_frame(self._stream)
                except (OSError, TransportError):
                    # Timeout or broken pipe with an idle child: wedged
                    # or gone.  (A timed-out ping also desynchronizes the
                    # framing, so the connection is unusable either way.)
                    self._mark_dead()
                    return
                finally:
                    self._sock.settimeout(None)
                if response is None:
                    self._mark_dead()
                    return
                self.frames_received += 1
                self._last_heartbeat = time.perf_counter()
            finally:
                self._lock.release()

    # -- the RPC plumbing ----------------------------------------------
    def _rpc(self, op: str, **fields: Any) -> Any:
        """One request/response exchange; raises :class:`TransportError`
        (after marking the replica dead) when the child is unreachable.

        The exchange is shielded from ``SIGINT``: a Ctrl-C landing between
        the request write and the response read would leave that response
        unread in the socket buffer, desynchronizing the framing for every
        later call (the interrupt path itself — park-on-shutdown — would
        then read a stale reply).  The shield defers the interrupt to the
        frame boundary, so Ctrl-C still lands, just never mid-exchange.
        """
        request = {"op": op, **fields}
        with self._lock, _InterruptShield():
            if self._dead:
                raise TransportError(
                    f"replica {self.index} is down; cannot send {op!r}"
                )
            try:
                write_frame(self._stream, request)
                self.frames_sent += 1
                response = read_frame(self._stream)
            except (OSError, TransportError) as exc:
                self._mark_dead()
                raise TransportError(
                    f"replica {self.index} connection failed during {op!r}: "
                    f"{exc}"
                ) from exc
            if response is None:
                self._mark_dead()
                raise TransportError(
                    f"replica {self.index} closed its connection during {op!r}"
                )
            self.frames_received += 1
            self._last_heartbeat = time.perf_counter()
        return unwrap_response(response)

    def _refresh_stats(self) -> None:
        try:
            value = self._rpc("stats")
        except TransportError:
            return
        self._stats_cache = value["stats"]

    # -- the transport surface -----------------------------------------
    def submit(
        self,
        spec: SessionSpec,
        checkpoint_every: Optional[int] = None,
        resume: Optional[CheckpointPayload] = None,
    ) -> RemoteHandle:
        try:
            if resume is not None:
                value = self._rpc(
                    "submit",
                    resume=resume.read(),
                    checkpoint_every=checkpoint_every,
                )
            else:
                value = self._rpc(
                    "submit",
                    spec=spec.to_mapping(),
                    checkpoint_every=checkpoint_every,
                )
        except TransportError as exc:
            # To admission control, a dead replica and a full replica are
            # the same answer: place the session somewhere else.
            raise AdmissionError(
                f"replica {self.index} is down: {exc}"
            ) from exc
        handle = RemoteHandle(
            self,
            spec,
            value["session_id"],
            migratable=(
                self.checkpoint_dir is not None and spec.kind == "stream"
            ),
        )
        # Keep the cached snapshot current: if this replica dies, its
        # last-known counters (this submission included) still feed the
        # cluster's conservation sums.
        self._refresh_stats()
        return handle

    def evict(
        self, session_id: int, timeout: Optional[float] = None
    ) -> Optional[CheckpointPayload]:
        value = self._rpc("request_evict", session_id=session_id)
        if not value["evictable"]:
            raise CheckpointError(
                f"session {session_id} on replica {self.index} is not "
                f"evictable: it writes no checkpoints"
            )
        value = self._rpc(
            "collect_evicted", session_id=session_id, timeout=timeout
        )
        self._refresh_stats()
        if value["status"] != "evicted":
            return None
        return CheckpointPayload(path=value["path"], data=value["data"])

    def stats(self) -> ServiceStats:
        if self._dead:
            return (
                self._stats_cache
                if self._stats_cache is not None
                else _offline_stats()
            )
        try:
            value = self._rpc("stats")
        except TransportError:
            return (
                self._stats_cache
                if self._stats_cache is not None
                else _offline_stats()
            )
        self._stats_cache = value["stats"]
        return self._stats_cache

    def close(
        self, wait: bool = True, park: bool = False
    ) -> Optional[List[str]]:
        self._stop.set()
        parked: Optional[List[str]] = [] if park else None
        if not self._dead:
            try:
                value = self._rpc("close", wait=wait, park=park)
                parked = value["parked"]
                self._rpc("shutdown")
            except TransportError:
                pass
        try:
            self._process.wait(timeout=10.0 if wait else 2.0)
        except subprocess.TimeoutExpired:
            self._process.terminate()
            try:
                self._process.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                _kill(self._process)
        self._dead = True
        self._sock.close()
        if self._heartbeat.is_alive():
            self._heartbeat.join(timeout=1.0)
        return parked
