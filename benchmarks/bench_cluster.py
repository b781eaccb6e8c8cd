"""Cluster benchmark — scale-out throughput and live-migration cost.

Runs one all-stream workload four ways and reports sessions/second:

* a single :class:`repro.serve.MiningService` (the reference);
* a :class:`repro.cluster.ClusterController` at increasing replica
  counts over identical per-replica pools — once with in-process
  replicas and once with the ``process`` backend, so the framed-socket
  transport's overhead (spawn, wire serialization, heartbeats) is a
  visible column instead of folklore;
* the single long session ping-ponged between two replicas by live
  migration, measuring hops/second (checkpoint + evict + re-admit).

Because migration is bit-deterministic, the benchmark doubles as a
correctness check: every clustered run must reproduce the single-engine
reference result-for-result, migrations included.

The sweep itself is ``repro.obs.benches.measure("cluster")``, which
``repro experiment gate`` runs too.  Two entry points:

* ``pytest benchmarks/bench_cluster.py`` — pytest-benchmark harness,
  saves the rendered block under ``benchmarks/results/``;
* ``python benchmarks/bench_cluster.py [--quick] [--out BENCH_JSON]`` —
  standalone sweep; ``--quick`` shrinks the workload for CI smoke runs,
  and ``--out BENCH_cluster.json`` appends a trajectory entry for
  ``repro experiment gate``.
"""

import sys

from repro.obs.benches import measure

from _util import main, save_block


def test_cluster_throughput(benchmark):
    """pytest-benchmark entry: time the full sweep, save its table."""
    result = benchmark.pedantic(
        measure, args=("cluster",), rounds=1, iterations=1
    )
    save_block("cluster_throughput", result.table)


if __name__ == "__main__":
    sys.exit(main("cluster"))
