"""Parallel sharded execution for the batch and streaming pipelines.

The multiparty pipeline is embarrassingly parallel almost everywhere —
per-party perturbation, per-window transforms, prequential scoring, and
per-party risk profiling are all independent units of work — but the seed
implementation ran every one of them on a single thread.  This subsystem
supplies the missing engine:

* :mod:`~repro.sharding.plan` — :class:`ShardPlan`, deterministic
  hash/round-robin/per-party assignment of windows, records, and batches
  to N logical shards;
* :mod:`~repro.sharding.backends` — interchangeable serial / thread-pool /
  process-pool executors with order-preserving ``map``;
* :mod:`~repro.sharding.worker` — the pure, picklable task functions
  (stacked-matmul window transform, snapshot prediction, per-party risk
  profiling);
* :mod:`~repro.sharding.engine` — :class:`ShardPool` (plan + backend) and
  :class:`DataPlane` (a persistent :mod:`repro.simnet` network that
  charges every per-shard record batch, forward hop, and merged result to
  the message/byte ledgers).

Determinism guarantee: task content never depends on shard count or
backend, results are merged in fixed window/shard order, and all noise is
drawn from ``(root, window, party)``-keyed generators — so a session with
``shards=4`` on the process backend is bit-identical to ``shards=1`` on
the serial one.
"""

from .backends import (
    BACKENDS,
    MeteredBackend,
    ProcessBackend,
    SerialBackend,
    ShardBackend,
    ShardFutures,
    ThreadBackend,
    make_backend,
)
from .engine import DataPlane, DataPlaneState, ShardPool
from .plan import SHARD_STRATEGIES, ShardPlan
from .worker import party_risk_task, predict_window, transform_window

__all__ = [
    "SHARD_STRATEGIES",
    "ShardPlan",
    "BACKENDS",
    "ShardBackend",
    "ShardFutures",
    "SerialBackend",
    "ThreadBackend",
    "ProcessBackend",
    "MeteredBackend",
    "make_backend",
    "ShardPool",
    "DataPlane",
    "DataPlaneState",
    "transform_window",
    "predict_window",
    "party_risk_task",
]
