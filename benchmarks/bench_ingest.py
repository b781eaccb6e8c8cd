"""Event-time ingestion benchmark — records/sec and seal latency vs skew.

Two measurements for the ingestion plane introduced by the event-time
redesign, reported alongside ``bench_streaming.py``'s end-to-end numbers:

1. **ingest throughput** — records/second through the bare
   :class:`~repro.streaming.ingest.IngestPlane` (gates, per-shard window
   buffers, watermark sealing; no mining), swept over arrival skew and
   watermark delay.  This is the pure cost of the push-based data plane.
2. **seal latency** — how long a window waits to seal, measured in
   *records past its last sequence number* (the event-space latency an
   operator trades against late-record risk), for the same sweep.

The sweep itself is ``repro.obs.benches.measure("ingest")``, which
``repro experiment gate`` runs too.  Two entry points:

* ``pytest benchmarks/bench_ingest.py`` — pytest-benchmark harness,
  saves the rendered block under ``benchmarks/results/`` (plus an
  end-to-end in-order vs skewed session comparison);
* ``python benchmarks/bench_ingest.py [--quick] [--out BENCH_JSON]`` —
  standalone sweep (no pytest needed); ``--quick`` shrinks the workload
  for CI smoke runs, ``--out`` appends a trajectory entry.
"""

import sys

from repro.analysis.reporting import ascii_table, series_block
from repro.obs.benches import measure
from repro.streaming import StreamConfig, make_stream, run_stream_session

from _util import main, save_block


def test_ingest_plane_throughput(benchmark):
    """pytest-benchmark entry: time the full sweep, save its table."""
    result = benchmark.pedantic(measure, args=("ingest",), rounds=1, iterations=1)
    assert result.metrics["skew=0,watermark=0"]["late"] == 0
    save_block("ingest_throughput", result.table)


def test_ingest_end_to_end_overhead(benchmark):
    """Full skewed session vs the in-order one: the data-plane overhead."""
    window_size = 64
    n_records = 16 * window_size

    def run(skew, watermark):
        source = make_stream("wine", n_records=n_records, seed=0)
        config = StreamConfig(
            k=3,
            window_size=window_size,
            compute_privacy=False,
            skew=skew,
            watermark_delay=watermark,
            late_policy="readmit",
            seed=0,
        )
        return run_stream_session(source, config)

    in_order = run(0, 0)
    out_of_order = benchmark.pedantic(
        lambda: run(16, 16), rounds=1, iterations=1
    )
    assert out_of_order.ingest.late == 0
    assert out_of_order.deviation_series() == in_order.deviation_series()
    save_block(
        "ingest_end_to_end",
        series_block(
            "Event-time ingestion - end-to-end session, in-order vs skewed",
            ascii_table(
                ["arrival order", "records/sec", "late", "max skew"],
                [
                    ["in-order", f"{in_order.throughput:,.0f}", "0", "0"],
                    [
                        "skew 16 / watermark 16",
                        f"{out_of_order.throughput:,.0f}",
                        str(out_of_order.ingest.late),
                        str(out_of_order.ingest.max_skew),
                    ],
                ],
            ),
        ),
    )


if __name__ == "__main__":
    sys.exit(main("ingest"))
