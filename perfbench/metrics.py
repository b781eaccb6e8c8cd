"""Metric definitions: names, units, bounds, and what each should move.

``END_TO_END`` and ``PER_LAYER`` are the source of truth that
``BENCHMARK.json`` mirrors (the self-test checks they agree).  Each
per-layer entry names the end-to-end metric and workload it should
move, decided before any measurement: a later change that claims a
layer gain shows it on that pairing, and the trace shows where.
"""

from __future__ import annotations

import math
import statistics
from typing import List, Sequence

#: (name, unit, better, bound) — what a user of the system sees, at the
#: nominal host speed (``calibrate``).  The bounds are the widest allowed:
#: on a shared 2-CPU machine, the speed of one workload drifts by 10-30%
#: over minutes with the machine's load, and the scaling takes out most,
#: not all, of that drift.
END_TO_END = (
    ("sessions_per_s", "sessions/s", "higher", 0.25),
    ("records_per_s", "records/s", "higher", 0.25),
    ("session_p50_ms", "ms", "lower", 0.25),
    ("session_tail_ms", "ms", "lower", 0.25),
    ("cpu_ms_per_session", "ms", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
)

#: ops whose replica round trip is reported as ``cluster.rpc_ms.<op>``
RPC_OPS = ("submit", "wait", "result", "stats", "request_evict", "collect_evicted")

#: (name, unit, better, moves) — one layer each, from the traced run.
#: ``privacy-batch`` is not in ``BENCHMARK.json``; its pairings are
#: checked by running it by name.
PER_LAYER = (
    ("serve.admit_ms", "ms", "lower", "session_p50_ms on service-mix"),
    ("serve.queue_ms", "ms", "lower",
     "session_tail_ms on service-mix, privacy-batch"),
    ("serve.drive_ms", "ms", "lower",
     "sessions_per_s on service-mix, privacy-batch"),
    ("serve.pool_utilization", "ratio", "higher",
     "sessions_per_s on service-mix, privacy-batch"),
    ("serve.inline_ratio", "ratio", "higher",
     "sessions_per_s on service-mix, privacy-batch, cluster-migrate"),
    ("serve.wire_decode_ms", "ms", "lower", "session_p50_ms on cluster-migrate"),
    ("sharding.tasks", "count", "lower", "cpu_ms_per_session on service-mix"),
    ("sharding.dispatches", "count", "lower", "cpu_ms_per_session on service-mix"),
    ("sharding.gather_wait_ms", "ms", "lower",
     "session_p50_ms on service-mix, privacy-batch"),
    ("sharding.transform_us_per_record", "us/record", "lower",
     "records_per_s on stream-long"),
    ("sharding.predict_us_per_record", "us/record", "lower",
     "records_per_s on stream-long"),
    ("sharding.dataplane_us_per_record", "us/record", "lower",
     "records_per_s on stream-long"),
    ("sharding.risk_task_ms", "ms", "lower", "sessions_per_s on privacy-batch"),
    ("simnet.cipher_us_per_kib", "us/KiB", "lower",
     "sessions_per_s on service-mix; records_per_s on stream-long"),
    ("simnet.cipher_blocks", "count", "lower",
     "sessions_per_s on service-mix; records_per_s on stream-long"),
    ("simnet.codec_us_per_msg", "us/msg", "lower", "sessions_per_s on service-mix"),
    ("simnet.messages", "count", "lower", "none; must not move"),
    ("simnet.bytes", "bytes", "lower", "none; must not move"),
    ("core.negotiations", "count", "lower", "none"),
    ("core.negotiate_ms", "ms", "lower", "session_p50_ms on service-mix"),
    ("core.optimize_ms", "ms", "lower", "sessions_per_s on privacy-batch"),
    ("streaming.ingest_us_per_record", "us/record", "lower",
     "records_per_s on stream-long"),
    ("streaming.control_ms", "ms/window", "lower",
     "records_per_s on stream-long; session_p50_ms on service-mix"),
    ("streaming.dispatch_ms", "ms/window", "lower",
     "records_per_s on stream-long; session_p50_ms on service-mix"),
    ("streaming.settle_ms", "ms/window", "lower",
     "records_per_s on stream-long; session_p50_ms on service-mix"),
    ("streaming.merge_ms", "ms/window", "lower",
     "records_per_s on stream-long; session_p50_ms on service-mix"),
    ("streaming.seal_lag_records", "records", "lower", "none"),
    ("streaming.late", "count", "lower", "none"),
    ("streaming.readmitted", "count", "lower", "none"),
    ("attacks.guarantee_ms", "ms", "lower",
     "records_per_s on stream-long; sessions_per_s on privacy-batch"),
    ("attacks.guarantee_calls", "count", "lower",
     "records_per_s on stream-long; sessions_per_s on privacy-batch"),
    ("checkpoint.bytes", "bytes", "lower", "cluster.migrate_ms on cluster-migrate"),
    ("checkpoint.decode_ms_per_mib", "ms/MiB", "lower",
     "cluster.migrate_ms on cluster-migrate"),
    ("checkpoint.encode_ms_per_mib", "ms/MiB", "lower",
     "cluster.migrate_ms on cluster-migrate"),
    ("checkpoint.used_ratio", "ratio", "higher",
     "cpu_ms_per_session on cluster-migrate"),
) + tuple(
    (f"cluster.rpc_ms.{op}", "ms", "lower", "session_p50_ms on cluster-migrate")
    for op in RPC_OPS
) + (
    ("cluster.rpc_lock_wait_ms", "ms", "lower", "session_tail_ms on cluster-migrate"),
    ("cluster.wire_bytes", "bytes/session", "lower",
     "sessions_per_s on cluster-migrate"),
    ("cluster.evict_ms", "ms", "lower", "cluster.migrate_ms on cluster-migrate"),
    ("cluster.resume_ms", "ms", "lower", "cluster.migrate_ms on cluster-migrate"),
    ("cluster.migrate_ms", "ms", "lower",
     "session_p50_ms, session_tail_ms on cluster-migrate"),
    ("cluster.migrate_useful_ratio", "ratio", "higher",
     "cluster.migrate_ms on cluster-migrate"),
    ("cluster.spawn_s", "s", "lower", "setup_s on cluster-migrate"),
    ("obs.trace_overhead", "ratio", "lower", "none; should stay small"),
)

#: counters that must repeat exactly between traced passes of one deck
EXACT = (
    "simnet.messages",
    "simnet.bytes",
    "simnet.cipher_blocks",
    "sharding.tasks",
    "sharding.dispatches",
    "core.negotiations",
    "attacks.guarantee_calls",
    "streaming.late",
    "streaming.readmitted",
    "streaming.seal_lag_records",
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
MOVES = {name: moves for name, _, _, moves in PER_LAYER}


def p50(values: Sequence[float]) -> float:
    """The median, or 0.0 for a layer that saw no calls."""
    return statistics.median(values) if values else 0.0


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, or 0.0 when nothing was measured."""
    return numerator / denominator if denominator else 0.0


def tail(values: Sequence[float], percentile: float) -> float:
    """The ``percentile``-th latency, interpolated between order statistics."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = (len(ordered) - 1) * percentile / 100.0
    lower = math.floor(position)
    upper = min(lower + 1, len(ordered) - 1)
    weight = position - lower
    return ordered[lower] * (1 - weight) + ordered[upper] * weight


def beyond(values: Sequence[float], percentile: float) -> int:
    """How many samples lie strictly above the ``percentile``-th one."""
    cut = tail(values, percentile)
    return sum(1 for value in values if value > cut)


def quartile_spread(values: List[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0
