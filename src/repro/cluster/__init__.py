"""Multi-replica serving over checkpoints: placement, migration, recovery.

The scale-out layer the ROADMAP's "scale-out serving over checkpoints"
item asks for.  A :class:`ClusterController` is a **control plane** over
N replicas, each speaking the narrow :class:`ReplicaTransport` protocol
(submit / poll / result / evict / stats / health), with
checkpoints crossing as opaque RPCK payloads:

* **backends** (:mod:`~repro.cluster.transport`) — ``"inprocess"`` runs
  every replica's :class:`~repro.serve.MiningService` in this process;
  ``"process"`` runs each in its own OS process
  (:mod:`~repro.cluster.replica`) behind the length-prefixed framed
  protocol of :mod:`~repro.cluster.protocol`, with heartbeat health
  checks and crash recovery (a dead replica's sessions re-resume from
  their newest intact checkpoints on the survivors);
* **placement** (:mod:`~repro.cluster.placement`) — pluggable policies
  choosing a replica per submit: deterministic ``hash``, greedy
  ``least_loaded`` over the occupancy ledger, and ``tenant`` affinity
  (the multi-level-trust shape: tenants placed by trust/budget class);
* **live migration** — :meth:`ClusterController.migrate` evicts on the
  owner at the session's next post-drain round boundary (in-flight
  rounds complete first; no stop-the-world) and resumes on the
  destination through ordinary admission — over the wire when the
  replicas live in other processes;
* **rebalancing / draining** — a :meth:`~ClusterController.rebalance`
  sweep levels live-session counts, :meth:`~ClusterController.drain`
  empties one replica (re-placing or parking its sessions), and
  ``close(park=True)`` parks everything via scheduled
  checkpoint-on-shutdown;
* **merged view** — :class:`ClusterStats` sums per-replica
  :class:`~repro.serve.ServiceStats` exactly (records, messages, bytes —
  the conservation invariant, which holds across process boundaries),
  with cluster-level admission and migration counters on top.

The governing invariant, property-swept like the checkpoint layer's: any
schedule of migrations, crashes, and resumes across replicas × backends
× shards × plans is **bit-identical** to the unmigrated single-engine
run, because a checkpoint carries the complete session state — RNGs,
normalizers, online miner, epoch and perturbation-space adaptor —
between pools, and the digest-checked RPCK format refuses damaged state
instead of resuming it.
"""

from .controller import (
    CLUSTER_BACKENDS,
    ClusterController,
    ClusterError,
    ClusterSession,
    ClusterStats,
)
from .placement import (
    PLACEMENT_POLICIES,
    hash_placement,
    least_loaded_placement,
    resolve_placement,
    tenant_placement,
)
from .protocol import MAX_FRAME_BYTES, TransportError, read_frame, write_frame
from .transport import (
    CheckpointPayload,
    InProcessReplica,
    ProcessReplica,
    ReplicaTransport,
)

__all__ = [
    "CLUSTER_BACKENDS",
    "ClusterController",
    "ClusterError",
    "ClusterSession",
    "ClusterStats",
    "PLACEMENT_POLICIES",
    "hash_placement",
    "least_loaded_placement",
    "tenant_placement",
    "resolve_placement",
    "MAX_FRAME_BYTES",
    "TransportError",
    "read_frame",
    "write_frame",
    "CheckpointPayload",
    "ReplicaTransport",
    "InProcessReplica",
    "ProcessReplica",
]
