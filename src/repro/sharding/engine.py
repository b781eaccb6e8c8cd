"""The sharded execution engine's data plane and executor facade.

Compute and accounting are deliberately split:

* **Compute** runs through a :class:`ShardPool` — a :class:`ShardPlan`
  plus a worker-pool backend.  Tasks are the pure functions of
  :mod:`repro.sharding.worker`; results always come back in task order,
  and per-window merge happens in window order, so the numbers a session
  produces are bit-identical across shard counts and backends.
* **Accounting** runs through a :class:`DataPlane` — a persistent
  :mod:`repro.simnet` network with one gate node per data provider, one
  node per logical shard, and a miner sink.  Every per-window party batch
  is serialized, encrypted, and delivered over it (``SHARD_BATCH``, plus a
  ``SHARD_FORWARD`` hop when the plan's batch affinity differs from the
  window's owner, and a ``SHARD_RESULT`` submission of the merged window
  to the miner), so the message/byte cost of sharded ingestion is charged
  exactly like the negotiation traffic — nothing moves off the books.

The data plane's counters are kept separate from the negotiation
network's: a session reports control-plane and shard-traffic costs
side by side rather than blending them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, TypeVar

import numpy as np

from ..checkpoint import CheckpointError, register
from ..simnet.channel import Network
from ..simnet.messages import Message, MessageKind
from ..simnet.node import Node
from .backends import ShardBackend, ShardFutures, make_backend
from .plan import ShardPlan

__all__ = ["ShardPool", "DataPlane", "DataPlaneState"]

_Task = TypeVar("_Task")
_Result = TypeVar("_Result")


class ShardPool:
    """A shard plan bound to an executor backend.

    The pool is the engine's single compute entry point: ``map`` fans a
    list of pure tasks out to the backend and returns results in task
    order.  Logical shard ids (from the plan) decide data routing and
    merge order; the backend decides physical placement — the two are
    independent, which is why results cannot depend on scheduling.

    ``backend`` may be a backend *name* (the pool builds and owns a fresh
    executor sized to the plan) or an already-built :class:`ShardBackend`
    *instance* — the sharing hook the serving layer uses to run many
    concurrent sessions over one physical worker pool.  A shared instance
    is never shut down by :meth:`close`; its owner does that.
    """

    def __init__(
        self, plan: ShardPlan, backend: str | ShardBackend = "serial"
    ) -> None:
        self.plan = plan
        if isinstance(backend, ShardBackend):
            self.backend = backend
            self._owns_backend = False
        else:
            self.backend = make_backend(backend, plan.n_shards)
            self._owns_backend = True

    def map(
        self, fn: Callable[[_Task], _Result], tasks: Sequence[_Task]
    ) -> List[_Result]:
        """Ordered map over the backend (see :meth:`ShardBackend.map`)."""
        return self.backend.map(fn, tasks)

    def submit_map(
        self, fn: Callable[[_Task], _Result], tasks: Sequence[_Task]
    ) -> ShardFutures:
        """Asynchronous dispatch (see :meth:`ShardBackend.submit_map`)."""
        return self.backend.submit_map(fn, tasks)

    @property
    def supports_overlap(self) -> bool:
        """Whether dispatches can run while the driver does other work."""
        return self.backend.supports_overlap

    def close(self) -> None:
        """Release the backend's worker pool (no-op for a shared backend)."""
        if self._owns_backend:
            self.backend.close()

    def __enter__(self) -> "ShardPool":
        """Context-manager entry: the pool itself."""
        return self

    def __exit__(self, *exc_info: object) -> None:
        """Context-manager exit: release the workers."""
        self.close()


class _ShardWorkerNode(Node):
    """A logical shard's network presence: receives (and forwards) batches."""

    def __init__(self, name: str, network: Network, index: int, seed: int = 0) -> None:
        super().__init__(name, network, seed=seed)
        self.index = index
        self.records_received = 0
        self.batches_received = 0

    def on_shard_batch(self, message: Message) -> None:
        """Accept a party batch, forwarding it when another shard owns it."""
        owner = int(message.payload["owner"])
        if owner != self.index:
            # Party-affine routing delivered the batch here; hand it to the
            # window's owner (an extra, fully accounted network hop).
            self.send(
                MessageKind.SHARD_FORWARD,
                f"shard-{owner}",
                dict(message.payload),
            )
            return
        self._absorb(message)

    def on_shard_forward(self, message: Message) -> None:
        """Accept a batch forwarded from a party-affine shard."""
        self._absorb(message)

    def _absorb(self, message: Message) -> None:
        self.records_received += int(
            np.asarray(message.payload["X"]).shape[0]
        )
        self.batches_received += 1


class _MinerSink(Node):
    """The miner's ingest endpoint for merged per-window result batches."""

    def __init__(self, name: str, network: Network, seed: int = 0) -> None:
        super().__init__(name, network, seed=seed)
        self.windows_received = 0
        self.records_received = 0

    def on_shard_result(self, message: Message) -> None:
        """Account one merged window batch."""
        self.windows_received += 1
        self.records_received += int(np.asarray(message.payload["X"]).shape[0])


@register
@dataclass(eq=False)
class DataPlaneState:
    """A :class:`DataPlane`'s checkpoint state: its counters (nonces and
    the virtual clock never surface in results)."""

    messages: int
    bytes: int
    provider_records: List[int]
    shard_records: List[int]
    shard_batches: List[int]
    sink_windows: int
    sink_records: int


class DataPlane:
    """Persistent simnet network carrying the sharded session's data traffic.

    One instance lives for a whole streaming session (unlike the
    per-epoch negotiation networks), so latency, bandwidth, and the
    message and byte counters accumulate over the run exactly as they
    would on a long-lived deployment.  Delivered messages do not: the
    adversary ledger and the nodes' inboxes hold the traffic of the latest
    :meth:`flush` only, which the next routed window drops, so a
    session-long plane keeps one batch of messages rather than every batch
    it carried.
    """

    def __init__(
        self,
        plan: ShardPlan,
        provider_names: Sequence[str],
        seed: int = 0,
        miner_name: str = "stream-miner",
    ) -> None:
        self.plan = plan
        self.network = Network(seed=seed)
        # Provider gates only send; the plane counts the rows each pushed
        # onto the wire, a per-provider view that lines up with the
        # ingestion plane's gate counters.
        self.gates = [Node(name, self.network) for name in provider_names]
        self._provider_records = [0] * len(self.gates)
        self.shards = [
            _ShardWorkerNode(f"shard-{index}", self.network, index=index)
            for index in range(plan.n_shards)
        ]
        self.sink = _MinerSink(miner_name, self.network)

    def route_window(
        self,
        window_index: int,
        party_slices: Sequence[Optional[np.ndarray]],
        merged: np.ndarray,
    ) -> None:
        """Charge one window's data movement to the network.

        ``party_slices[p]`` is party ``p``'s share of the window's
        target-space batch (``None``/empty when the party contributed no
        rows); ``merged`` is the full window the owner submits to the
        miner.  Providers adapt locally — they hold their own adaptors —
        so the wire carries target-space rows.
        """
        if not self.network.simulator.pending_events:
            # Nothing is in flight, so all the ledger and the inboxes hold
            # was delivered and counted by an earlier flush.
            self.network.ledger.wire.clear()
            self.network.ledger.endpoint.clear()
            for node in (*self.gates, *self.shards, self.sink):
                node.inbox.clear()
        owner = self.plan.shard_of_window(window_index)
        for party, rows in enumerate(party_slices):
            if rows is None or rows.shape[0] == 0:
                continue
            destination = self.plan.shard_of_batch(window_index, party)
            self._provider_records[party] += int(rows.shape[0])
            self.gates[party].send(
                MessageKind.SHARD_BATCH,
                f"shard-{destination}",
                {"window": window_index, "owner": owner, "X": rows},
            )
        self.shards[owner].send(
            MessageKind.SHARD_RESULT,
            self.sink.name,
            {"window": window_index, "X": merged},
        )

    def flush(self) -> None:
        """Deliver everything in flight (runs the discrete-event kernel)."""
        self.network.run()

    @property
    def messages_sent(self) -> int:
        """Data-plane messages accepted for transmission so far."""
        return self.network.messages_sent

    @property
    def bytes_sent(self) -> int:
        """Data-plane payload bytes accepted for transmission so far."""
        return self.network.bytes_sent

    @property
    def shard_records(self) -> List[int]:
        """Records absorbed per logical shard, in fixed shard order."""
        return [shard.records_received for shard in self.shards]

    @property
    def provider_records(self) -> List[int]:
        """Rows pushed per provider gate, in fixed provider order."""
        return list(self._provider_records)

    def snapshot(self) -> DataPlaneState:
        """The plane's counters."""
        return DataPlaneState(
            messages=self.messages_sent,
            bytes=self.bytes_sent,
            provider_records=self.provider_records,
            shard_records=self.shard_records,
            shard_batches=[shard.batches_received for shard in self.shards],
            sink_windows=self.sink.windows_received,
            sink_records=self.sink.records_received,
        )

    def restore(self, state: DataPlaneState) -> None:
        """Load a :meth:`snapshot` into a fresh plane; refuses a misfit."""
        if not isinstance(state, DataPlaneState) or (
            len(state.provider_records),
            len(state.shard_records),
            len(state.shard_batches),
        ) != (len(self.gates), len(self.shards), len(self.shards)):
            raise CheckpointError(
                f"checkpoint data-plane state does not fit {len(self.gates)} "
                f"providers on {len(self.shards)} shards"
            )
        self.network.messages_sent = state.messages
        self.network.bytes_sent = state.bytes
        self._provider_records = list(state.provider_records)
        for shard, records, batches in zip(
            self.shards, state.shard_records, state.shard_batches
        ):
            shard.records_received = records
            shard.batches_received = batches
        self.sink.windows_received = state.sink_windows
        self.sink.records_received = state.sink_records
