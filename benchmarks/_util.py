"""Shared helpers for the benchmark harness.

Every benchmark regenerates one paper figure (or ablation) and both prints
the rendered series and writes it to ``benchmarks/results/<name>.txt`` so
EXPERIMENTS.md can be assembled from the saved artefacts.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Optional

from repro.obs.experiment import (
    bench_timestamp,
    load_trajectory,
    machine_fingerprint,
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


def record_trajectory(
    path: str,
    bench: str,
    metrics: Dict[str, object],
    timestamp: Optional[str] = None,
) -> Dict[str, object]:
    """Append one ``{timestamp, machine, metrics}`` entry to a trajectory file.

    The file is a single JSON object ``{"bench": ..., "entries": [...]}``;
    re-running a benchmark with the same ``--out`` grows the history rather
    than overwriting it, which is what makes the file a perf *trajectory*.
    Entries whose ``(timestamp, machine)`` already appears are *not*
    re-appended — CI pins ``REPRO_BENCH_TIMESTAMP``, so retried jobs would
    otherwise bloat the committed files with exact duplicates.  Returns the
    appended entry (or the existing duplicate).
    """
    entry = {
        "timestamp": bench_timestamp(timestamp),
        "machine": machine_fingerprint(),
        "metrics": metrics,
    }
    history: Dict[str, object] = {"bench": bench, "entries": []}
    if os.path.exists(path):
        history = load_trajectory(path)
    for existing in history["entries"]:
        if (
            existing["timestamp"] == entry["timestamp"]
            and existing["machine"] == entry["machine"]
        ):
            return existing
    history["bench"] = bench
    history["entries"].append(entry)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(history, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return entry
