"""The process replica: a :class:`MiningService` behind a framed socket.

This module is the **child side** of the cluster's process backend.  The
parent (:class:`repro.cluster.transport.ProcessReplica`) spawns

.. code-block:: text

    python -m repro.cluster.replica <fd>

with one end of a ``socketpair`` inherited as file descriptor ``fd``,
then drives the narrow replica surface over
:mod:`repro.cluster.protocol` frames.  The child is deliberately
single-threaded at the protocol layer: requests are handled strictly in
arrival order (the engine underneath still runs its own driver threads),
which makes the protocol trivially race-free and keeps every blocking
operation — ``wait``, ``evict``, ``close`` — an explicit, parent-chosen
cost.

Checkpoints cross the boundary as **bytes in the RPCK file format**
(:func:`repro.checkpoint.dumps_checkpoint` output): a ``submit`` carrying
``resume`` bytes is decoded with :func:`~repro.checkpoint.loads_checkpoint`
and re-admitted straight from them, writing no file, so the receiving
engine validates magic, schema version, and digest exactly as it would
for a local file — a corrupted migration payload is refused with the
same distinct :class:`~repro.checkpoint.CheckpointError` messages, never
silently resumed.

Crash semantics: the child ignores ``SIGINT`` (the parent owns interrupt
handling and parks sessions before terminating children — no orphaned
workers on Ctrl-C) and exits when its socket reaches EOF, so a dead
parent can never leak a replica.
"""

from __future__ import annotations

import logging
import os
import signal
import socket
import sys
from typing import Any, Dict, Optional, Tuple

from ..checkpoint import checkpoint as checkpoints
from ..obs import log_to_stderr
from ..serve.engine import MiningService, SessionHandle, TenantPolicy
from .protocol import error_response, ok_response, read_frame, write_frame

__all__ = ["ReplicaServer", "serve_connection", "main"]


def _policies(mapping: Optional[Dict[str, Any]]) -> Optional[Dict[str, TenantPolicy]]:
    if not mapping:
        return None
    return {
        tenant: TenantPolicy(**dict(fields)) for tenant, fields in mapping.items()
    }


class ReplicaServer:
    """One replica's operation handlers around an owned engine.

    Separated from the socket loop so tests can drive the exact protocol
    against in-memory streams — including malformed ones — without
    spawning a process.
    """

    def __init__(self, service: MiningService) -> None:
        self.service = service
        # The engine settles (forgets) finished handles; the replica keeps
        # each handle it admitted until the parent has collected its end
        # (a settled ``result``, an evicted ``collect_evicted``), so the
        # parent can poll and collect at its own pace.  The parent never
        # asks about a collected session again.
        self._handles: Dict[int, SessionHandle] = {}

    # -- handlers: each returns (response, keep_serving) ----------------
    def _handle(self, session_id: Any) -> SessionHandle:
        handle = self._handles.get(session_id)
        if handle is None:
            raise KeyError(f"no session {session_id!r} on this replica")
        return handle

    def _op_ping(self, request: Dict[str, Any]) -> Dict[str, Any]:
        return {"pid": os.getpid(), "active": len(self._handles)}

    def _op_submit(self, request: Dict[str, Any]) -> Dict[str, Any]:
        checkpoint_every = request.get("checkpoint_every")
        resume = request.get("resume")
        if resume is not None:
            # Looked up on its module at call time, as load_checkpoint does.
            ckpt = checkpoints.loads_checkpoint(resume, "resume payload")
            handle = self.service.resume(ckpt, checkpoint_every=checkpoint_every)
        else:
            handle = self.service.submit(
                request["spec"], checkpoint_every=checkpoint_every
            )
        self._handles[handle.session_id] = handle
        return {"session_id": handle.session_id}

    def _op_poll(self, request: Dict[str, Any]) -> Dict[str, Any]:
        handle = self._handle(request["session_id"])
        return {
            "status": handle.poll(),
            "wall_seconds": handle.wall_seconds,
            "queue_seconds": handle.queue_seconds,
            "migratable": handle.migratable,
        }

    def _op_wait(self, request: Dict[str, Any]) -> Dict[str, Any]:
        handle = self._handle(request["session_id"])
        status = handle.wait(timeout=request.get("timeout"))
        return {"status": status}

    def _op_result(self, request: Dict[str, Any]) -> Dict[str, Any]:
        handle = self._handle(request["session_id"])
        try:
            # Re-raises the session's own failure; the loop wraps it into
            # an error envelope with its type preserved.
            result = handle.result(timeout=request.get("timeout"))
        finally:
            if handle.poll() in ("completed", "failed", "cancelled"):
                del self._handles[handle.session_id]
        return {"result": result}

    def _op_cancel(self, request: Dict[str, Any]) -> Dict[str, Any]:
        handle = self._handle(request["session_id"])
        return {"cancelled": handle.cancel()}

    def _op_request_evict(self, request: Dict[str, Any]) -> Dict[str, Any]:
        handle = self._handle(request["session_id"])
        if not handle.migratable:
            return {"evictable": False}
        handle.request_evict()
        return {"evictable": True}

    def _op_collect_evicted(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """After an eviction settles: the checkpoint path *and its bytes*.

        The bytes travel back to the control plane so a migration can ship
        them straight to another replica without sharing a filesystem.
        """
        handle = self._handle(request["session_id"])
        status = handle.wait(timeout=request.get("timeout"))
        if status != "evicted":
            return {"status": status, "path": None, "data": None}
        path = handle.evicted_path()
        with open(path, "rb") as stream:
            data = stream.read()
        del self._handles[handle.session_id]
        return {"status": status, "path": path, "data": data}

    def _op_stats(self, request: Dict[str, Any]) -> Dict[str, Any]:
        return {"stats": self.service.stats()}

    def _op_close(self, request: Dict[str, Any]) -> Dict[str, Any]:
        parked = self.service.close(
            wait=bool(request.get("wait", True)),
            park=bool(request.get("park", False)),
        )
        return {"parked": parked}

    _OPS = {
        "ping": _op_ping,
        "submit": _op_submit,
        "poll": _op_poll,
        "wait": _op_wait,
        "result": _op_result,
        "cancel": _op_cancel,
        "request_evict": _op_request_evict,
        "collect_evicted": _op_collect_evicted,
        "stats": _op_stats,
        "close": _op_close,
    }

    def handle_request(
        self, request: Dict[str, Any]
    ) -> Tuple[Dict[str, Any], bool]:
        """Dispatch one request; returns ``(response, keep_serving)``."""
        op = request.get("op")
        if op == "shutdown":
            return ok_response({"pid": os.getpid()}), False
        handler = self._OPS.get(op)
        if handler is None:
            return (
                error_response(
                    ValueError(f"unknown replica operation {op!r}")
                ),
                True,
            )
        try:
            return ok_response(handler(self, request)), True
        except BaseException as exc:  # noqa: BLE001 — every error crosses back
            return error_response(exc), True


def serve_connection(stream: Any, service: MiningService) -> None:
    """Serve the replica protocol on one connection until EOF/shutdown.

    A connection reset or broken pipe means the parent went away (or
    closed the socket hard on its own interrupt path) — for the child
    that is the same instruction as EOF: stop serving, exit cleanly, no
    traceback on the shared stderr.
    """
    server = ReplicaServer(service)
    serving = True
    while serving:
        try:
            request = read_frame(stream)
        except OSError:
            break
        if request is None:
            break
        response, serving = server.handle_request(request)
        try:
            write_frame(stream, response)
        except OSError:
            break


def main(argv: Optional[list] = None) -> int:
    """Child entrypoint: ``python -m repro.cluster.replica <fd>``.

    The first frame must be ``{"op": "init", "service": {...},
    "log_level": N}`` naming the engine's constructor arguments and the
    parent's effective ``repro`` log level, at which the child logs to
    stderr as the CLI does; everything after is the normal operation
    stream.
    """
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python -m repro.cluster.replica <socket-fd>", file=sys.stderr)
        return 2
    # The parent owns interrupt handling: it parks sessions, then
    # terminates replicas explicitly.  A terminal Ctrl-C must never kill
    # the child mid-checkpoint.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    sock = socket.socket(fileno=int(argv[0]))
    try:
        init = read_frame(sock)
        if init is None or init.get("op") != "init":
            write_frame(
                sock,
                error_response(
                    ValueError("the first frame must be the init request")
                ),
            )
            return 1
        try:
            log_to_stderr(init.get("log_level", logging.WARNING))
            kwargs = dict(init.get("service") or {})
            kwargs["tenants"] = _policies(kwargs.get("tenants"))
            service = MiningService(**kwargs)
        except BaseException as exc:  # noqa: BLE001 — parent must see why
            write_frame(sock, error_response(exc))
            return 1
        write_frame(sock, ok_response({"pid": os.getpid()}))
        try:
            serve_connection(sock, service)
        finally:
            service.close(wait=False)
    finally:
        sock.close()
    return 0


if __name__ == "__main__":  # pragma: no cover — exercised via subprocess
    sys.exit(main())
