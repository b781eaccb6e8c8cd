"""Shared helpers for the benchmark harness.

Every benchmark regenerates one paper figure (or ablation) and both prints
the rendered series and writes it to ``benchmarks/results/<name>.txt`` so
EXPERIMENTS.md can be assembled from the saved artefacts.  The four
trajectory benches (``bench_{overlap,ingest,serve,cluster}.py``) also run
standalone through :func:`main`.
"""

from __future__ import annotations

import argparse
import os
from typing import List, Optional

from repro.obs.benches import measure
from repro.obs.experiment import (  # noqa: F401  (machine_fingerprint: re-export)
    machine_fingerprint,
    record_trajectory,
)

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def save_block(name: str, block: str) -> None:
    """Print a rendered figure block and persist it under results/."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.txt")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(block + "\n")
    print()
    print(block)


def budget_from_env(name: str, default: int) -> int:
    """Allow CI/users to scale benchmark budgets via environment variables
    (e.g. ``REPRO_BENCH_ROUNDS=50 pytest benchmarks/``)."""
    value = os.environ.get(name)
    if value is None:
        return default
    return max(1, int(value))


def main(bench: str, argv: Optional[List[str]] = None) -> int:
    """Standalone trajectory sweep:
    ``python benchmarks/bench_<bench>.py [--quick] [--out BENCH_JSON]``."""
    parser = argparse.ArgumentParser(
        description=f"Run the {bench} sweep of repro.obs.benches and print "
        f"its table."
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: the small size of the committed trajectory",
    )
    parser.add_argument(
        "--out",
        metavar="BENCH_JSON",
        help=f"append this run to a perf-trajectory file "
        f"(e.g. BENCH_{bench}.json)",
    )
    parser.add_argument(
        "--timestamp",
        help="entry timestamp (default: $REPRO_BENCH_TIMESTAMP, else now UTC)",
    )
    args = parser.parse_args(argv)
    result = measure(bench, quick=args.quick)
    print(result.table)
    if args.out:
        record_trajectory(args.out, bench, result.metrics, timestamp=args.timestamp)
    return 0
