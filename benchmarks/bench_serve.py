"""Serving-engine benchmark — sessions/sec and shard-pool utilization.

Submits the same mixed batch+stream workload to a
:class:`repro.serve.MiningService` at increasing concurrency
(``max_inflight``) over one shared thread worker pool, and reports
sustained sessions/second, the speedup over sequential submission, and
the shared pool's utilization.  Because the engine is bit-deterministic,
the benchmark doubles as a correctness check: every concurrency level
must reproduce the sequential reference result-for-result.

The sweep itself is ``repro.obs.benches.measure("serve")``, which
``repro experiment gate`` runs too.  Two entry points:

* ``pytest benchmarks/bench_serve.py`` — pytest-benchmark harness, saves
  the rendered block under ``benchmarks/results/``;
* ``python benchmarks/bench_serve.py [--quick] [--out BENCH_JSON]`` —
  standalone sweep (no pytest needed); ``--quick`` shrinks the workload
  for CI smoke runs, ``--out`` appends a trajectory entry.
"""

import sys

from repro.obs.benches import measure

from _util import main, save_block


def test_serve_throughput(benchmark):
    """pytest-benchmark entry: time the full sweep, save its table."""
    result = benchmark.pedantic(measure, args=("serve",), rounds=1, iterations=1)
    save_block("serve_throughput", result.table)


if __name__ == "__main__":
    sys.exit(main("serve"))
