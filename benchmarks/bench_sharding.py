"""Sharded-engine benchmark — records/sec scaling vs shard count.

Runs the identical streaming workload (stationary stream, KNN reservoir
miner, privacy refresh off — the pure data path) at increasing shard
counts and reports sustained records/second plus the speedup over the
single-shard serial reference.  Because the engine is bit-deterministic,
the benchmark also doubles as an end-to-end correctness check: every
configuration must reproduce the reference accuracy-deviation series
exactly.

Two entry points:

* ``pytest benchmarks/bench_sharding.py`` — pytest-benchmark harness,
  saves the rendered block under ``benchmarks/results/``;
* ``python benchmarks/bench_sharding.py [--quick]`` — standalone sweep
  (no pytest needed), printing the scaling table; ``--quick`` shrinks the
  workload for CI smoke runs.

The workload sizes the per-window shard work (KNN distance blocks over a
large reservoir, stacked transform matmuls) to dominate the driver's
sequential control plane; on a multi-core host the process backend is
expected to clear 1.5x at 4 shards.  Budget knobs:
``REPRO_BENCH_SHARD_WINDOWS``, ``REPRO_BENCH_SHARD_WINDOW_SIZE``,
``REPRO_BENCH_SHARD_CAPACITY``, ``REPRO_BENCH_SHARD_COUNTS``.
"""

import argparse
import os
import sys

from repro.analysis.reporting import ascii_table, series_block
from repro.sharding import BACKENDS
from repro.streaming import StreamConfig, make_stream, run_stream_session

from _util import budget_from_env, save_block

N_WINDOWS = budget_from_env("REPRO_BENCH_SHARD_WINDOWS", 24)
WINDOW_SIZE = budget_from_env("REPRO_BENCH_SHARD_WINDOW_SIZE", 256)
CAPACITY = budget_from_env("REPRO_BENCH_SHARD_CAPACITY", 2048)
SHARD_COUNTS = tuple(
    int(v)
    for v in os.environ.get("REPRO_BENCH_SHARD_COUNTS", "1,2,4").split(",")
)


def _run(shards, backend, n_windows=N_WINDOWS, window_size=WINDOW_SIZE,
         capacity=CAPACITY):
    source = make_stream(
        "wine", kind="stationary", n_records=n_windows * window_size, seed=0
    )
    config = StreamConfig(
        k=3,
        window_size=window_size,
        classifier="knn",
        classifier_params=(("capacity", capacity),),
        compute_privacy=False,
        shards=shards,
        shard_backend=backend,
        seed=0,
    )
    return run_stream_session(source, config)


def _sweep(backend, shard_counts, **kwargs):
    """Run the sweep; returns (rows, reference_result)."""
    reference = _run(1, "serial", **kwargs)
    rows = [["1", "serial", f"{reference.throughput:,.0f}", "1.00x", "yes"]]
    for shards in shard_counts:
        if shards == 1:
            continue
        result = _run(shards, backend, **kwargs)
        identical = (
            result.deviation_series() == reference.deviation_series()
            and result.accuracy_perturbed == reference.accuracy_perturbed
        )
        rows.append(
            [
                str(shards),
                backend,
                f"{result.throughput:,.0f}",
                f"{result.throughput / reference.throughput:.2f}x",
                "yes" if identical else "NO",
            ]
        )
        assert identical, (
            f"shards={shards} ({backend}) diverged from the serial reference"
        )
    return rows, reference


def test_sharding_scaling(benchmark):
    """pytest-benchmark entry: time the 4-shard run, save the sweep table."""
    rows, reference = _sweep("process", SHARD_COUNTS)
    top = max(SHARD_COUNTS)
    result = benchmark.pedantic(
        lambda: _run(top, "process"), rounds=1, iterations=1
    )
    assert result.deviation_series() == reference.deviation_series()
    save_block(
        "sharding_scaling",
        series_block(
            f"Sharding - records/sec scaling (wine, stationary, k=3, "
            f"KNN capacity {CAPACITY}, window {WINDOW_SIZE})",
            ascii_table(
                ["shards", "backend", "records/sec", "speedup", "identical"],
                rows,
            ),
        ),
    )


def main(argv=None):
    """Standalone sweep: ``python benchmarks/bench_sharding.py [--quick]``."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: a small workload, shards 1 and 4 only",
    )
    parser.add_argument(
        "--backend",
        default="process",
        choices=list(BACKENDS),
    )
    args = parser.parse_args(argv)

    kwargs = {}
    shard_counts = SHARD_COUNTS
    if args.quick:
        kwargs = {"n_windows": 8, "window_size": 64, "capacity": 256}
        shard_counts = (1, 4)
    rows, _ = _sweep(args.backend, shard_counts, **kwargs)
    print(
        series_block(
            f"Sharding - records/sec scaling ({args.backend} backend"
            f"{', quick' if args.quick else ''})",
            ascii_table(
                ["shards", "backend", "records/sec", "speedup", "identical"],
                rows,
            ),
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
