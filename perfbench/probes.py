"""Layer probes: time calls into each layer from outside the program.

:class:`Probes` patches a public name *where the caller looks it up*
(``repro.streaming.stream_session.transform_window``,
``repro.simnet.crypto.encrypt``, ``MiningService.submit``, ...) with a
wrapper that accumulates busy time, call count and a unit count.  The
accumulators are per thread, because shard-pool threads call the
transform/predict tasks concurrently with the session threads; they are
merged when read.  A wrapper that re-enters itself on the same thread
(``_MeteredFutures.gather`` calling ``_PoolFutures.gather``) counts only
the outermost call.  :meth:`Probes.remove` restores every original.

Replica RPC gets a dedicated probe: the round trip is measured from the
``write_frame`` of a request to the ``read_frame`` of its response, per
op, and the lock wait from entering ``ProcessReplica._rpc`` to that
``write_frame``.
"""

from __future__ import annotations

import functools
import math
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple, Union


class _Accumulator:
    """Busy seconds, calls and units per probe key, for one thread."""

    def __init__(self) -> None:
        self.busy: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.units: Dict[str, int] = defaultdict(int)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.depth: Dict[str, int] = defaultdict(int)
        self.rpc_op: Optional[str] = None
        self.rpc_entered: Optional[float] = None
        self.rpc_written: Optional[float] = None


class Probes:
    """A set of installed wrappers and the totals they collected."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: List[_Accumulator] = []
        self._patched: List[Tuple[Any, str, Any, bool]] = []
        #: bytes retained by ``keep`` callbacks, per key
        self.kept: Dict[str, List[bytes]] = defaultdict(list)

    # -- accumulation ---------------------------------------------------
    def _acc(self) -> _Accumulator:
        acc = getattr(self._local, "acc", None)
        if acc is None:
            acc = self._local.acc = _Accumulator()
            with self._lock:
                self._threads.append(acc)
        return acc

    def _patch(self, owner: Any, attr: str, wrapper: Callable) -> None:
        own = attr in vars(owner)
        original = vars(owner)[attr] if own else getattr(owner, attr)
        self._patched.append((owner, attr, original, own))
        setattr(owner, attr, wrapper)

    def timed(
        self,
        owner: Any,
        attr: str,
        key: Union[str, Callable[..., str]],
        units: Optional[Callable[..., int]] = None,
        samples: bool = False,
        counts: Optional[Dict[str, Callable[..., int]]] = None,
        keep: Optional[Callable[[Any], Optional[bytes]]] = None,
    ) -> None:
        """Time every call of ``owner.attr`` under ``key``.

        ``key`` may be a function of the call's arguments.
        ``units(*args, **kwargs)`` counts the work one call does (rows,
        bytes); ``counts`` adds further per-call tallies under their own
        keys; ``samples`` keeps every call's duration for percentiles;
        ``keep(result)`` picks bytes out of the return value to retain in
        :attr:`kept` under the key.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            name = key(*args, **kwargs) if callable(key) else key
            acc = self._acc()
            if acc.depth[name]:
                return original(*args, **kwargs)
            acc.depth[name] += 1
            began = time.perf_counter()
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                elapsed = time.perf_counter() - began
                acc.depth[name] -= 1
                acc.busy[name] += elapsed
                acc.calls[name] += 1
                if units is not None:
                    acc.units[name] += units(*args, **kwargs)
                for tally, count in (counts or {}).items():
                    acc.units[tally] += count(*args, **kwargs)
                if samples:
                    acc.samples[name].append(elapsed)
                data = None if keep is None or result is None else keep(result)
                if data is not None:
                    with self._lock:
                        self.kept[name].append(data)

        self._patch(owner, attr, wrapper)

    def install_rpc(self, transport: Any) -> None:
        """Per-op round trips and lock waits of process-replica RPCs."""
        write_frame = transport.write_frame
        read_frame = transport.read_frame
        rpc = transport.ProcessReplica._rpc

        def timed_rpc(replica: Any, op: str, **fields: Any) -> Any:
            acc = self._acc()
            acc.rpc_entered = time.perf_counter()
            try:
                return rpc(replica, op, **fields)
            finally:
                acc.rpc_entered = None

        def timed_write(stream: Any, payload: Dict[str, Any]) -> int:
            acc = self._acc()
            now = time.perf_counter()
            if acc.rpc_entered is not None:
                acc.samples["cluster.rpc_lock_wait"].append(now - acc.rpc_entered)
            acc.rpc_op = payload.get("op")
            acc.rpc_written = now
            return write_frame(stream, payload)

        def timed_read(stream: Any) -> Any:
            response = read_frame(stream)
            acc = self._acc()
            if acc.rpc_written is not None:
                acc.samples[f"cluster.rpc.{acc.rpc_op}"].append(
                    time.perf_counter() - acc.rpc_written
                )
                acc.rpc_written = None
            return response

        self._patch(transport.ProcessReplica, "_rpc", timed_rpc)
        self._patch(transport, "write_frame", timed_write)
        self._patch(transport, "read_frame", timed_read)

    def remove(self) -> None:
        """Put every original back, newest patch first."""
        for owner, attr, original, own in reversed(self._patched):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patched.clear()

    # -- reading --------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Totals merged across threads (call when no probe is running)."""
        busy: Dict[str, float] = defaultdict(float)
        calls: Dict[str, int] = defaultdict(int)
        units: Dict[str, int] = defaultdict(int)
        samples: Dict[str, List[float]] = defaultdict(list)
        with self._lock:
            threads = list(self._threads)
        for acc in threads:
            for key, value in list(acc.busy.items()):
                busy[key] += value
            for key, value in list(acc.calls.items()):
                calls[key] += value
            for key, value in list(acc.units.items()):
                units[key] += value
            for key, values in list(acc.samples.items()):
                samples[key].extend(values)
        return {"busy": busy, "calls": calls, "units": units, "samples": samples}


def install_layer_probes(probes: Probes) -> None:
    """Wrap each layer's public entry points, as their callers see them."""
    from repro.attacks.resilience import AttackSuite
    from repro.cluster import controller, transport
    from repro.core import session as core_session
    from repro.core.optimizer import PerturbationOptimizer
    from repro.serve.engine import MiningService
    from repro.sharding import backends
    from repro.sharding.engine import DataPlane, ShardPool
    from repro.simnet import channel, crypto
    from repro.streaming import stream_session
    from repro.streaming.ingest import IngestPlane

    def rows(task: Dict[str, Any]) -> int:
        return len(task["X"])

    def blocks(nbytes: int) -> int:
        return math.ceil(nbytes / 32)

    probes.timed(MiningService, "submit", "serve.admit", samples=True)
    probes.timed(
        ShardPool, "submit_map", "sharding.submit_map",
        units=lambda pool, fn, tasks: len(tasks),
    )
    for cls in (
        backends._MeteredFutures, backends._PoolFutures,
        backends._CompletedFutures,
    ):
        probes.timed(cls, "gather", "sharding.gather")
    probes.timed(stream_session, "transform_window", "sharding.transform", units=rows)
    probes.timed(stream_session, "predict_window", "sharding.predict", units=rows)
    probes.timed(
        DataPlane, "route_window", "sharding.dataplane",
        units=lambda plane, index, slices, merged: len(merged),
    )
    probes.timed(DataPlane, "flush", "sharding.dataplane")
    probes.timed(core_session, "party_risk_task", "sharding.risk_task")
    probes.timed(
        crypto, "encrypt", "simnet.cipher",
        units=lambda key, plaintext, rng: len(plaintext),
        counts={"simnet.cipher_blocks": lambda key, plaintext, rng: blocks(
            len(plaintext)
        )},
    )
    probes.timed(
        crypto, "decrypt", "simnet.cipher",
        units=lambda key, ciphertext: len(ciphertext.body),
        counts={"simnet.cipher_blocks": lambda key, ciphertext: blocks(
            len(ciphertext.body)
        )},
    )
    probes.timed(channel, "serialize_payload", "simnet.codec")
    probes.timed(channel, "deserialize_payload", "simnet.codec_decode")
    probes.timed(PerturbationOptimizer, "optimize", "core.optimize")
    probes.timed(IngestPlane, "push", "streaming.ingest")
    probes.timed(AttackSuite, "guarantee", "attacks.guarantee")
    probes.timed(transport, "result_from_wire", "serve.wire_decode")
    probes.timed(
        transport.ProcessReplica, "evict", "cluster.evict", samples=True,
        keep=lambda payload: payload.data,
    )
    probes.timed(
        transport.ProcessReplica, "submit",
        lambda replica, spec, checkpoint_every=None, resume=None: (
            "cluster.submit" if resume is None else "cluster.resume"
        ),
        samples=True,
    )
    probes.timed(transport.ProcessReplica, "__init__", "cluster.spawn", samples=True)
    probes.timed(controller.ClusterController, "migrate", "cluster.migrate", samples=True)
    probes.install_rpc(transport)


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
def self_times(spans: List[Dict[str, Any]]) -> Dict[str, float]:
    """Total self time per span name: duration minus child coverage.

    A child's interval is clipped to its parent's, and overlapping
    children (pipelined rounds) are merged before subtracting, so self
    time is never negative.
    """
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span["parent_id"] is not None:
            children[span["parent_id"]].append(
                (span["start"], span["start"] + span["duration"])
            )
    totals: Dict[str, float] = defaultdict(float)
    for span in spans:
        start, end = span["start"], span["start"] + span["duration"]
        covered = 0.0
        cursor = start
        for lo, hi in sorted(children.get(span["span_id"], ())):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        totals[span["name"]] += max(0.0, span["duration"] - covered)
    return totals
