"""Pipelined-rounds benchmark — overlap vs serial dispatch latency hiding.

Runs the same streaming session twice per configuration over a process
worker pool: once with ``overlap=False`` (the driver blocks on every
round's transforms and predictions) and once with ``overlap=True`` (round
``N+1``'s transforms and round ``N``'s predictions occupy the pool while
the driver runs the control plane).  Reports records/second for both and
the speedup, i.e. how much driver round-dispatch latency the pipeline
hides.  Because overlap is bit-deterministic, the benchmark doubles as a
correctness check: every pipelined run must reproduce the serial-dispatch
fingerprint exactly.

On a single hardware core the two dispatch modes collapse to the same
wall time (there is nobody to overlap *with*); the speedup column is
meaningful on multi-core hosts.  The process backend is the one that
pipelines: ``thread``, like ``serial``, runs shard tasks inline.

The sweep itself is ``repro.obs.benches.measure("overlap")``, which
``repro experiment gate`` runs too.  Two entry points:

* ``pytest benchmarks/bench_overlap.py`` — pytest-benchmark harness,
  saves the rendered block under ``benchmarks/results/``;
* ``python benchmarks/bench_overlap.py [--quick] [--out BENCH_JSON]`` —
  standalone sweep (no pytest needed); ``--quick`` shrinks the stream for
  CI smoke runs, ``--out`` appends a trajectory entry.
"""

import sys

from repro.obs.benches import measure

from _util import main, save_block


def test_overlap_throughput(benchmark):
    """pytest-benchmark entry: time the full sweep, save its table."""
    result = benchmark.pedantic(measure, args=("overlap",), rounds=1, iterations=1)
    save_block("overlap_throughput", result.table)


if __name__ == "__main__":
    sys.exit(main("overlap"))
