"""Check the benchmark's run-to-run spread against its own bounds.

Runs ``perfbench/run.py`` once per seed on one workload and prints, for
every end-to-end metric, the median of the runs and the distance between
the first and third quartiles as a share of that median — the figure a
metric's ``bound`` in ``BENCHMARK.json`` must stay above (by 3x, to be
comfortable).  Beside it: the same spread of the figures as measured,
before they were scaled to the nominal host speed, and the spread of the
runs' slowdowns::

    python3 perfbench/spread.py --workload service-mix --seeds 1-10
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text: str) -> list:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(seed) for seed in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-5")
    parser.add_argument("--seconds", type=int)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
        spec = json.load(spec_file)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    runs, measured = [], []
    for seed in _seeds(args.seeds):
        began = time.perf_counter()
        out = subprocess.run(
            spec["command"] + [
                "--workload", args.workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", "0",
            ],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        took = time.perf_counter() - began
        if out.returncode != 0:
            sys.stderr.write(out.stdout + out.stderr)
            print(f"seed {seed}: exit {out.returncode}")
            return 1
        result = json.loads(out.stdout.strip().splitlines()[-1])
        runs.append(result["metrics"])
        measured.append(_as_measured(out.stdout))
        shown = " ".join(
            f"{name}={metric['value']:.4g}"
            for name, metric in result["metrics"].items()
            if name in bounds
        ) + f" slowdown={measured[-1].get('slowdown', 1.0):.4g}"
        print(f"seed {seed}: {took:.1f}s {shown}", flush=True)
    if len(runs) < 2:
        return 0
    sys.path.insert(0, HERE)
    from metrics import quartile_spread

    for name in runs[0]:
        values = [run[name]["value"] for run in runs]
        median = statistics.median(values)
        spread = quartile_spread(values)
        bound = bounds.get(name)
        flag = ""
        if bound is not None:
            flag = "ok" if spread < bound / 3 else (
                "within bound" if spread < bound else "TOO WIDE"
            )
        raw = [m[name] for m in measured if name in m]
        as_measured = (
            f" (as measured {quartile_spread(raw):.3f})"
            if len(raw) == len(runs) else ""
        )
        print(f"{name:<36} median {median:<12.6g} spread {spread:.3f}"
              f"{as_measured} {flag}")
    slowdowns = [m["slowdown"] for m in measured if "slowdown" in m]
    if len(slowdowns) == len(runs):
        print(f"{'slowdown':<36} median {statistics.median(slowdowns):<12.6g} "
              f"spread {quartile_spread(slowdowns):.3f}")
    return 0


def _as_measured(stdout: str) -> dict:
    """The slowdown and the unscaled values from a run's ``[speed]`` note."""
    for line in stdout.splitlines():
        if "[speed] slowdown" in line:
            head, _, tail = line.partition("as measured:")
            found = {"slowdown": float(head.split("slowdown")[1].split()[0])}
            for pair in tail.split():
                key, _, value = pair.partition("=")
                found[key] = float(value)
            return found
    return {}


if __name__ == "__main__":
    sys.exit(main())
