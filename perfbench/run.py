"""The repository benchmark: closed-loop workloads, measured from outside.

Usage (from the repository root)::

    python3 perfbench/run.py --workload service-mix --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all            # every declared workload

The workload's specs are generated from ``--seed``; the program only sees
those :class:`~repro.serve.SessionSpec` objects.  One run:

1. times set-up from a fresh interpreter several times (child
   processes that import, build the service or cluster, warm the pool or
   spawn the replicas, and report ready) and keeps the median;
2. builds the system, warms it up, then runs timed passes over the whole
   deck through the closed loop, draining after each, for ``--seconds``
   with telemetry off.  The end-to-end metrics pool the faster half of
   the passes: every pass does the same work, and on a shared host a
   pass is only ever slowed by other load, never sped up, so the faster
   half is the program's own speed and the slower half mostly the host's.
   A slice of fixed reference work precedes every set-up and every pass,
   and the metrics are reported at the nominal host speed: scaled by how
   much slower than nominal those slices ran (``calibrate``), which takes
   out the host's drift from one run to the next;
3. runs every distinct spec twice inline on the serial backend — the
   reference — and checks each session's fingerprint against it;
4. with ``--trace 1`` only: rebuilds the system with the layer probes and
   an in-memory :class:`repro.obs.Telemetry` on, runs the deck twice
   (draining in between), checks the fingerprints again and that the
   exact counters repeat between the passes, and reports the per-layer
   metrics; spans are written to ``perfbench/results/`` at the end.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``).  A wrong result,
a failed session or a counter that does not repeat makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# One BLAS thread, set before numpy loads (children inherit it).  The
# program's matrices are small (d <= 13 columns): extra OpenBLAS threads
# only spin, burning a second CPU for no speed-up, and on a shared 2-CPU
# machine that spinning made CPU time ~1.7x wall and widened the
# run-to-run spread about sixfold.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

#: fresh-interpreter set-ups per run; their median is ``setup_s``
SETUP_RUNS = 3

#: timed passes over the deck per run, at the least
MIN_PASSES = 3

#: the tail percentile reported as ``session_tail_ms``, per workload; each
#: leaves over ten samples beyond it in the faster half of the passes at
#: ``--seconds 25`` on two CPUs, even when the host runs a third slower
#: (service-mix leaves about twenty, which steadies its tail; stream-long
#: still leaves ten at 1.8x slower)
TAIL_PERCENTILE = {
    "service-mix": 95.0,
    "stream-long": 80.0,
    "privacy-batch": 75.0,
    "cluster-migrate": 92.0,
}


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path, or fail clearly."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise SystemExit(
            f"error: no program to benchmark: {SRC}/repro is missing "
            f"(run from a checkout of the repository)"
        )
    sys.path.insert(0, SRC)


# ----------------------------------------------------------------------
# set-up time
# ----------------------------------------------------------------------
def _setup_probe(workload: str) -> int:
    """Child side of a set-up measurement: build, say ready, tear down."""
    from workloads import WORKLOADS

    system = WORKLOADS[workload].system()
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    sys.stdin.read()
    system.close()
    return 0


def measure_setup(workload: str, meter: Any) -> List[float]:
    """Seconds from spawning a fresh interpreter to ready, per attempt."""
    times = []
    for _ in range(SETUP_RUNS):
        meter.tick()
        began = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT,
        )
        try:
            line = child.stdout.readline()
            times.append(time.perf_counter() - began)
        finally:
            child.stdin.close()
            try:
                child.wait(timeout=60)
            except subprocess.TimeoutExpired:
                child.kill()
                child.wait()
            child.stdout.close()
        if line.strip() != b"ready":
            raise RuntimeError(f"set-up probe for {workload} did not get ready")
    return times


# ----------------------------------------------------------------------
# measurement helpers
# ----------------------------------------------------------------------
def cpu_seconds(child_pids: List[int]) -> float:
    """CPU time of this process plus the given live children."""
    total = time.process_time()
    ticks = os.sysconf("SC_CLK_TCK")
    for pid in child_pids:
        with open(f"/proc/{pid}/stat") as stat:
            fields = stat.read().rsplit(")", 1)[1].split()
        total += (int(fields[11]) + int(fields[12])) / ticks
    return total


def rates(phase: Any) -> Dict[str, float]:
    """Completed sessions and their records per second of the phase."""
    done = phase.completed
    return {
        "sessions_per_s": len(done) / phase.wall,
        "records_per_s": sum(s.counters["records"] for s in done) / phase.wall,
    }


# ----------------------------------------------------------------------
# one workload
# ----------------------------------------------------------------------
def run_untraced(
    workload: Any, deck: list, seconds: float, meter: Any
) -> List[Dict[str, Any]]:
    """Warm up, then timed passes over the deck with telemetry off.

    Each pass runs the whole deck through the closed loop and drains, so
    every pass does the same work; passes repeat until ``seconds`` have
    passed (at least ``MIN_PASSES`` of them).  A slice of the reference
    work precedes every pass.  Returns each pass's phase and CPU seconds.
    """
    import workloads

    system = workload.system()
    try:
        workloads.closed_loop(system, deck, seconds=workloads.WARMUP_S)
        pids = system.child_pids()
        passes = []
        deadline = time.perf_counter() + seconds
        while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
            meter.tick()
            cpu_before = cpu_seconds(pids)
            phase = workloads.closed_loop(system, deck, sessions=len(deck))
            passes.append({"phase": phase, "cpu": cpu_seconds(pids) - cpu_before})
    finally:
        system.close()
    return passes


def end_to_end(
    name: str, passes: List[Dict[str, Any]], setup: List[float], meter: Any
) -> Dict[str, Any]:
    """The end-to-end metric values plus the tail's sample bookkeeping.

    Rates are multiplied, and times divided, by the run's slowdown
    against the nominal host speed (see ``calibrate``).
    """
    from metrics import beyond, p50, tail
    from workloads import Phase

    passes = sorted(passes, key=lambda p: p["phase"].wall)
    kept = passes[: (len(passes) + 1) // 2]
    phase = Phase.joined([p["phase"] for p in kept])
    done = phase.completed
    latencies = [s.latency for s in done]
    percentile = TAIL_PERCENTILE[name]
    raw = dict(rates(phase))
    raw["session_p50_ms"] = p50(latencies) * 1e3
    raw["session_tail_ms"] = tail(latencies, percentile) * 1e3
    raw["cpu_ms_per_session"] = (
        sum(p["cpu"] for p in kept) / max(1, len(done)) * 1e3
    )
    if setup:
        raw["setup_s"] = p50(setup)
    slowdown = meter.slowdown()
    values = {
        key: value * slowdown if key.endswith("_per_s") else value / slowdown
        for key, value in raw.items()
    }
    notes = {
        "passes": f"the faster {len(kept)} of {len(passes)} passes x "
                  f"{len(passes[0]['phase'].samples)} sessions; pass seconds "
                  + " ".join(f"{p['phase'].wall:.3f}" for p in passes),
        "tail": f"p{percentile:g} of {len(latencies)} sessions "
                f"({beyond(latencies, percentile)} beyond it)",
        "speed": f"slowdown {slowdown:.4f} against nominal, from "
                 f"{len(meter.slices)} slices; as measured: "
                 + " ".join(f"{key}={value:.6g}" for key, value in raw.items()),
    }
    return {"values": values, "notes": notes, "measured": phase}


def run_workload(
    name: str, seed: int, seconds: float, trace: bool
) -> Dict[str, Any]:
    """Measure one workload; returns metrics, counts and problems."""
    import workloads
    from calibrate import Speedometer

    workload = workloads.WORKLOADS[name]
    deck = workload.deck(seed)
    meter = Speedometer()
    setup = [] if trace else measure_setup(name, meter)
    passes = run_untraced(workload, deck, seconds, meter)
    ref = workloads.reference(deck)
    phase = workloads.Phase.joined([p["phase"] for p in passes])
    problems = workloads.wrong_results(phase.samples, ref)
    attempted = len(phase.samples)
    e2e = end_to_end(name, passes, setup, meter)
    report: Dict[str, Any] = {
        "workload": name,
        "attempted": attempted,
        "failed": len(problems),
        "problems": problems,
        "notes": e2e["notes"],
    }
    if not trace:
        report["values"] = e2e["values"]
        return report
    from traced import run_traced

    layers = run_traced(
        workload, deck, ref, phase, e2e["measured"], workloads.WARMUP_S
    )
    report["attempted"] += layers["attempted"]
    report["failed"] += len(layers["problems"])
    report["problems"] += layers["problems"]
    report["values"] = layers["values"]
    report["notes"].update(layers["notes"])
    return report


# ----------------------------------------------------------------------
# command line
# ----------------------------------------------------------------------
def _print_report(report: Dict[str, Any]) -> None:
    from metrics import MOVES, UNITS

    attempted, failed = report["attempted"], report["failed"]
    print(f"== {report['workload']}: {attempted} sessions, {failed} failed "
          f"(failed_fraction {failed / max(1, attempted):.4f})")
    for name, value in report["values"].items():
        moves = f"  moves {MOVES[name]}" if name in MOVES else ""
        print(f"  {name:<36} {value:>14.6g} {UNITS[name]:<13}{moves}".rstrip())
    for key, note in report["notes"].items():
        print(f"  [{key}] {note}")
    for problem in report["problems"][:20]:
        print(f"  !! {problem}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _import_program()
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    if args.workload != "all" and args.workload not in WORKLOADS:
        parser.error(
            f"unknown workload {args.workload!r}; choose from "
            f"{', '.join(WORKLOADS)} or all"
        )
    if args.setup_probe:
        return _setup_probe(args.workload)
    names = (
        [name for name, w in WORKLOADS.items() if w.in_benchmark]
        if args.workload == "all" else [args.workload]
    )
    reports = []
    for name in names:
        report = run_workload(name, args.seed, args.seconds, bool(args.trace))
        _print_report(report)
        reports.append(report)
    from metrics import UNITS

    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    metrics = {}
    for report in reports:
        prefix = "" if len(reports) == 1 else f"{report['workload']}/"
        for name, value in report["values"].items():
            metrics[prefix + name] = {"value": value, "unit": UNITS[name]}
    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(line), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
