"""Command-line entry point: regenerate any paper figure from the terminal.

Usage (after ``pip install -e .``)::

    repro datasets                 # list the 12 synthetic UCI stand-ins
    repro fig2 --dataset diabetes  # optimized vs random privacy histogram
    repro fig3 --rounds 10         # optimality rate vs number of parties
    repro fig4                     # minimum-parties bound
    repro fig5 --repeats 2         # KNN accuracy deviations (full protocol)
    repro fig6 --repeats 1         # SVM(RBF) accuracy deviations
    repro risk                     # eq.(1)/(2) sweep + identifiability MC
    repro session --dataset wine   # one verbose end-to-end protocol run
    repro stream --dataset wine --windows 20 --drift abrupt
                                   # online SAP over a drifting stream
    repro stream --dataset wine --shards 4 --shard-backend process
                                   # same pipeline, sharded across workers
    repro stream --dataset wine --shards 4 --shard-backend thread --overlap
                                   # pipelined rounds: round N+1 transforms
                                   # overlap round N predictions
    repro stream --dataset wine --skew 3 --watermark 4 --late-policy readmit
                                   # out-of-order arrivals, watermark-sealed
                                   # windows, late records readmitted
    repro stream --windows 40 --checkpoint-dir ckpts --checkpoint-every 8
                                   # durable session: a versioned checkpoint
                                   # every 8 windows
    repro stream --resume-from ckpts/session-w00016.ckpt --json
                                   # restore and finish; output bit-identical
                                   # to the uninterrupted run
    repro checkpoint inspect ckpts/session-w00016.ckpt
                                   # schema version, fingerprint, progress
    repro checkpoint inspect ckpts --retain 2
                                   # list a checkpoint directory, pruning
                                   # each session down to its newest 2
    repro serve --sessions 8 --shards 4
                                   # many concurrent sessions, one shared pool
    repro serve --workload workload.json --json
                                   # run a JSON workload file, emit JSON
    repro serve --checkpoint-dir ckpts --checkpoint-every 4
                                   # durable serving: Ctrl-C parks live
                                   # sessions and prints resume hints
    repro cluster --replicas 3 --placement least_loaded
                                   # same workload across 3 engine replicas
    repro cluster --replicas 2 --migrate-every 2 --json
                                   # force live migrations mid-run; results
                                   # stay bit-identical to a single engine
    repro cluster --backend process --replicas 2 --checkpoint-dir ckpts
                                   # each replica is its own OS process;
                                   # checkpoints migrate over the wire and
                                   # a killed replica's sessions recover on
                                   # the survivors, still bit-identical
    repro cluster --serve --workload workload.json --poll-interval 0.5
                                   # long-running mode: keep admitting
                                   # sessions appended to the workload file
    repro experiment diff results/a results/b
                                   # cell-by-cell throughput diff of two
                                   # sweep directories (exit 1 on regression)
    repro stream --shards 4 --overlap --trace-out spans.jsonl \\
                 --metrics-out metrics.json
                                   # telemetry: tracing spans + metrics export
    repro report spans.jsonl       # per-stage / per-round latency tables
    repro report results/quick     # merge every spans.jsonl under a dir
    repro experiment run examples/experiment_quick.json
                                   # declarative sweep: factors x levels x
                                   # reps -> per-run artifact directories
    repro experiment report results/quick --out report.md
                                   # join metrics + spans into one report
    repro experiment gate --baseline BENCH_overlap.json
                                   # fail (exit 1) on >20% throughput drop
                                   # vs the committed perf trajectory

Every command accepts ``--seed``; heavier ones accept budget flags so a
quick look stays quick.  ``session``, ``stream``, and ``serve`` accept
``--json`` for machine-readable output and share ``-v/--verbose`` /
``-q/--quiet`` (library logs go to stderr under the ``repro.*`` logger
namespace — the library itself never prints).  Errors such as an unknown
dataset name or an unwritable ``--trace-out`` path exit with code 2 and a
one-line message rather than a traceback.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import shutil
import sys
import tempfile
import time
from concurrent.futures import CancelledError
from dataclasses import replace as dataclasses_replace
from typing import Dict, List, Optional

import numpy as np

from .analysis.experiments import (
    attack_ablation,
    identifiability_monte_carlo,
    noise_sweep,
    optimizer_ablation,
    risk_sweep,
)
from .analysis.figures import (
    figure2_series,
    figure3_series,
    figure4_series,
    figure5_series,
    figure6_series,
)
from .analysis.reporting import ascii_table, format_mapping, series_block, text_histogram
from .checkpoint import (
    CheckpointError,
    Checkpointer,
    SessionEvicted,
    list_checkpoints,
    load_checkpoint,
    prune_checkpoints,
)
from .cluster import ClusterController, ClusterError
from .core.session import run_sap_session
from .datasets.registry import dataset_summary, load_dataset
from .obs import Telemetry
from .parties.config import ClassifierSpec, SAPConfig
from .serve import AdmissionError, MiningService, SessionSpec
from .streaming import (
    STREAM_KINDS,
    StreamConfig,
    TrustChange,
    make_stream,
    run_stream_session,
)
from .streaming.stream_session import _source_from_mapping

__all__ = ["main", "build_parser"]


def _add_logging_flags(p: argparse.ArgumentParser) -> None:
    """The shared ``-v/--verbose`` / ``-q/--quiet`` pair."""
    group = p.add_mutually_exclusive_group()
    group.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="log progress to stderr (repeat for debug detail)",
    )
    group.add_argument(
        "-q", "--quiet", action="store_true", help="only log errors"
    )


def _configure_logging(args: argparse.Namespace) -> None:
    """Point the ``repro.*`` logger hierarchy at stderr per the flags.

    The library only ever *logs* (never prints); the CLI decides here how
    much of that reaches the terminal.  Commands without the shared flags
    default to warnings-and-up.
    """
    verbose = getattr(args, "verbose", 0)
    if getattr(args, "quiet", False):
        level = logging.ERROR
    elif verbose >= 2:
        level = logging.DEBUG
    elif verbose == 1:
        level = logging.INFO
    else:
        level = logging.WARNING
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    logger = logging.getLogger("repro")
    logger.handlers[:] = [handler]
    logger.setLevel(level)
    logger.propagate = False


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Space Adaptation: privacy-preserving multiparty "
            "collaborative mining with geometric perturbation' (PODC 2007)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("datasets", help="list the synthetic UCI stand-ins")
    p.add_argument(
        "--detail",
        metavar="NAME",
        default=None,
        help="show per-column statistics for one dataset",
    )

    p = sub.add_parser("fig2", help="optimized vs random perturbation privacy")
    p.add_argument("--dataset", default="diabetes")
    p.add_argument("--rounds", type=int, default=30)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("fig3", help="optimality rate vs number of parties")
    p.add_argument("--rounds", type=int, default=8)
    p.add_argument("--k-min", type=int, default=5)
    p.add_argument("--k-max", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("fig4", help="minimum number of parties vs satisfaction")

    p = sub.add_parser("fig5", help="KNN accuracy deviation (full protocol)")
    p.add_argument("--repeats", type=int, default=2)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("fig6", help="SVM(RBF) accuracy deviation (full protocol)")
    p.add_argument("--repeats", type=int, default=1)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("risk", help="risk-model sweep and identifiability MC")
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--runs", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("session", help="one verbose end-to-end protocol run")
    p.add_argument("--dataset", default="wine")
    p.add_argument("--k", type=int, default=5)
    p.add_argument(
        "--classifier",
        default="knn",
        choices=[
            "knn", "svm_rbf", "linear_svm", "perceptron",
            "lda", "naive_bayes", "decision_tree",
        ],
    )
    p.add_argument("--noise", type=float, default=0.05)
    p.add_argument("--privacy", action="store_true", help="also compute risk profiles")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--json", action="store_true", help="emit a machine-readable JSON result"
    )
    _add_logging_flags(p)

    p = sub.add_parser("ablation", help="design-choice ablations")
    p.add_argument(
        "--which",
        default="optimizer",
        choices=["optimizer", "noise", "attacks"],
    )
    p.add_argument("--dataset", default="diabetes")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser(
        "stream", help="online SAP over a synthetic record stream"
    )
    p.add_argument("--dataset", default="wine")
    p.add_argument(
        "--drift",
        default="stationary",
        choices=list(STREAM_KINDS),
        help="stream scenario (drift schedule / arrival process)",
    )
    p.add_argument("--windows", type=int, default=20, help="windows to process")
    p.add_argument("--window-size", type=int, default=64)
    p.add_argument(
        "--window-kind", default="tumbling", choices=["tumbling", "sliding"]
    )
    p.add_argument(
        "--window-step",
        type=int,
        default=None,
        help="sliding-window stride (< size gives overlap; default: size)",
    )
    p.add_argument("--k", type=int, default=3)
    p.add_argument(
        "--classifier", default="knn", choices=["knn", "linear_svm"]
    )
    p.add_argument("--noise", type=float, default=0.05)
    p.add_argument("--detector", default="meanvar", choices=["meanvar", "ks"])
    p.add_argument(
        "--shards",
        type=int,
        default=1,
        help="worker shards for the parallel execution engine",
    )
    p.add_argument(
        "--shard-backend",
        default="serial",
        choices=["serial", "thread", "process"],
        help="executor running the shard tasks (results are identical)",
    )
    p.add_argument(
        "--shard-plan",
        default="round_robin",
        choices=["round_robin", "hash", "party"],
        help="window/batch-to-shard assignment strategy",
    )
    p.add_argument(
        "--overlap",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="pipeline rounds over the worker pool (default: on for "
        "thread/process backends, ignored for serial; results are "
        "identical either way)",
    )
    p.add_argument(
        "--trust-change",
        action="append",
        default=[],
        metavar="WINDOW:PARTY:TRUST",
        help="schedule a trust-level change, e.g. 10:0:0.5 (repeatable)",
    )
    p.add_argument(
        "--skew",
        type=int,
        default=0,
        help="simulate an out-of-order transport: bounded arrival "
        "displacement in records (0 = in order)",
    )
    p.add_argument(
        "--watermark",
        type=int,
        default=0,
        help="watermark delay in records before a window seals "
        "(>= --skew guarantees no late records)",
    )
    p.add_argument(
        "--late-policy",
        default="drop",
        choices=["drop", "readmit", "upsert"],
        help="what happens to records arriving after their window sealed",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        default=None,
        help="save durable session checkpoints into DIR (enables "
        "--checkpoint-every / --stop-after)",
    )
    p.add_argument(
        "--checkpoint-every",
        type=int,
        default=None,
        metavar="N",
        help="checkpoint every N completed windows (needs --checkpoint-dir)",
    )
    p.add_argument(
        "--checkpoint-retain",
        type=int,
        default=None,
        metavar="K",
        help="keep only the newest K checkpoints of this session, deleting "
        "older ones after each save (needs --checkpoint-dir; default: "
        "keep everything)",
    )
    p.add_argument(
        "--stop-after",
        type=int,
        default=None,
        metavar="N",
        help="checkpoint and stop once N windows completed (simulated "
        "eviction; resume later with --resume-from)",
    )
    p.add_argument(
        "--resume-from",
        metavar="FILE",
        default=None,
        help="restore a checkpointed session and continue it; the workload "
        "flags are taken from the checkpoint, and the final result is "
        "bit-identical to never having stopped",
    )
    p.add_argument(
        "--json", action="store_true", help="emit a machine-readable JSON result"
    )
    p.add_argument(
        "--trace-out",
        metavar="FILE",
        default=None,
        help="write telemetry spans (round/stage/seal/...) as JSONL; "
        "aggregate later with `repro report`",
    )
    p.add_argument(
        "--metrics-out",
        metavar="FILE",
        default=None,
        help="write the session's metrics-registry snapshot as JSON",
    )
    _add_logging_flags(p)

    p = sub.add_parser(
        "checkpoint", help="inspect durable session checkpoint files"
    )
    csub = p.add_subparsers(dest="checkpoint_command", required=True)
    c = csub.add_parser(
        "inspect", help="print a checkpoint's identity, progress, and fingerprint"
    )
    c.add_argument(
        "path",
        metavar="PATH",
        help="a checkpoint file (*.ckpt), or a checkpoint directory to "
        "list every session's checkpoints in",
    )
    c.add_argument(
        "--retain",
        type=int,
        default=None,
        metavar="K",
        help="with a directory: first prune it down to the newest K "
        "checkpoints per session, then list what is left",
    )
    c.add_argument(
        "--json", action="store_true", help="emit the summary as JSON"
    )
    _add_logging_flags(c)

    p = sub.add_parser(
        "serve", help="run a multi-session workload on the serving engine"
    )
    p.add_argument(
        "--workload",
        metavar="FILE",
        default=None,
        help="JSON workload file (a list of session specs, or "
        '{"sessions": [...]}); omitted: a built-in mixed demo workload',
    )
    p.add_argument(
        "--sessions",
        type=int,
        default=8,
        help="demo-workload size (ignored with --workload)",
    )
    p.add_argument(
        "--dataset", default="iris", help="demo-workload dataset"
    )
    p.add_argument(
        "--max-inflight", type=int, default=4, help="concurrent session drivers"
    )
    p.add_argument(
        "--queue-limit",
        type=int,
        default=None,
        help="sessions allowed to queue beyond the in-flight ones "
        "(default: unbounded)",
    )
    p.add_argument(
        "--shards",
        type=int,
        default=2,
        help="workers in the shared shard pool",
    )
    p.add_argument(
        "--shard-backend",
        default="thread",
        choices=["serial", "thread", "process"],
        help="shared pool executor (results are identical)",
    )
    p.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        default=None,
        help="give the service a checkpoint directory: stream sessions "
        "become durable, and an interrupt (Ctrl-C) parks every live "
        "session instead of losing it",
    )
    p.add_argument(
        "--checkpoint-every",
        type=int,
        default=None,
        metavar="N",
        help="checkpoint stream sessions every N completed windows "
        "(needs --checkpoint-dir)",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--json", action="store_true", help="emit a machine-readable JSON report"
    )
    p.add_argument(
        "--metrics-out",
        metavar="FILE",
        default=None,
        help="write the service's metrics-registry snapshot as JSON",
    )
    _add_logging_flags(p)

    p = sub.add_parser(
        "cluster",
        help="run a workload across N engine replicas with live migration",
    )
    p.add_argument(
        "--workload",
        metavar="FILE",
        default=None,
        help="JSON workload file (same format as `repro serve`); omitted: "
        "a built-in all-stream demo workload",
    )
    p.add_argument(
        "--sessions",
        type=int,
        default=6,
        help="demo-workload size (ignored with --workload)",
    )
    p.add_argument(
        "--dataset", default="iris", help="demo-workload dataset"
    )
    p.add_argument(
        "--replicas", type=int, default=2, help="serving-engine replicas"
    )
    p.add_argument(
        "--backend",
        default="inprocess",
        choices=["inprocess", "process"],
        help="replica backend: engines in this process, or one OS process "
        "per replica behind the framed transport (results identical)",
    )
    p.add_argument(
        "--heartbeat-interval",
        type=float,
        default=0.2,
        metavar="SECONDS",
        help="process-replica liveness check cadence",
    )
    p.add_argument(
        "--placement",
        default="hash",
        choices=["hash", "least_loaded", "tenant"],
        help="session-to-replica placement policy",
    )
    p.add_argument(
        "--serve",
        action="store_true",
        help="long-running mode: keep watching --workload and admit any "
        "sessions appended to it (Ctrl-C parks and exits cleanly)",
    )
    p.add_argument(
        "--poll-interval",
        type=float,
        default=0.5,
        metavar="SECONDS",
        help="--serve workload re-read cadence",
    )
    p.add_argument(
        "--serve-idle-exit",
        type=int,
        default=0,
        metavar="K",
        help="--serve exits after K consecutive idle polls with nothing "
        "live (0 = run until interrupted)",
    )
    p.add_argument(
        "--chaos-kill",
        type=int,
        default=0,
        metavar="N",
        help="SIGKILL the busiest process replica after N poll ticks "
        "(50 ms each) to exercise crash recovery; needs --backend process "
        "(0 = never)",
    )
    p.add_argument(
        "--migrate-every",
        type=int,
        default=0,
        metavar="N",
        help="force a live migration every N poll ticks (50 ms each), "
        "rotating over live sessions (0 = never; results stay "
        "bit-identical either way)",
    )
    p.add_argument(
        "--max-inflight",
        type=int,
        default=2,
        help="concurrent session drivers per replica",
    )
    p.add_argument(
        "--queue-limit",
        type=int,
        default=None,
        help="per-replica queue depth beyond the in-flight sessions "
        "(default: unbounded)",
    )
    p.add_argument(
        "--shards",
        type=int,
        default=2,
        help="workers in each replica's shard pool",
    )
    p.add_argument(
        "--shard-backend",
        default="thread",
        choices=["serial", "thread", "process"],
        help="replica pool executor (results are identical)",
    )
    p.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        default=None,
        help="cluster checkpoint root (replica-<i>/ per replica); "
        "default: a temporary directory when migration is requested",
    )
    p.add_argument(
        "--checkpoint-every",
        type=int,
        default=None,
        metavar="N",
        help="checkpoint stream sessions every N completed windows",
    )
    p.add_argument(
        "--checkpoint-retain",
        type=int,
        default=None,
        metavar="K",
        help="keep only the newest K checkpoints per session "
        "(default: keep everything)",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--json", action="store_true", help="emit a machine-readable JSON report"
    )
    p.add_argument(
        "--metrics-out",
        metavar="FILE",
        default=None,
        help="write the cluster's metrics-registry snapshot as JSON",
    )
    _add_logging_flags(p)

    p = sub.add_parser(
        "report", help="aggregate --trace-out span files into latency tables"
    )
    p.add_argument(
        "spans",
        metavar="SPANS",
        nargs="+",
        help="span file(s) written by `repro stream --trace-out`, and/or "
        "directories searched recursively for *.jsonl (multi-run "
        "experiments merge into one table)",
    )
    p.add_argument(
        "--max-rounds",
        type=int,
        default=20,
        help="per-round rows to show (0 = all)",
    )
    _add_logging_flags(p)

    p = sub.add_parser(
        "experiment",
        help="declarative sweeps: run a config, report a sweep, gate perf",
    )
    esub = p.add_subparsers(dest="experiment_command", required=True)

    e = esub.add_parser(
        "run", help="execute a factors x levels x repetitions sweep config"
    )
    e.add_argument(
        "config",
        metavar="CONFIG",
        help="JSON (or TOML, Python 3.11+) experiment config: "
        '{"name", "base", "factors", "repetitions"}',
    )
    e.add_argument(
        "--results",
        metavar="DIR",
        default="results",
        help="results root; artifacts land under DIR/<name>/<run_id>/ "
        "(default: results)",
    )
    e.add_argument(
        "--fresh",
        action="store_true",
        help="re-run every cell even if a completed artifact exists "
        "(default: resume, skipping completed cells)",
    )
    e.add_argument(
        "--timestamp",
        help="artifact timestamp (default: $REPRO_BENCH_TIMESTAMP, else now UTC)",
    )
    _add_logging_flags(e)

    e = esub.add_parser(
        "report",
        help="join a sweep's per-run metrics + spans into one document",
    )
    e.add_argument(
        "directory",
        metavar="EXPERIMENT_DIR",
        help="one experiment's directory (results/<name>)",
    )
    e.add_argument(
        "--html",
        action="store_true",
        help="emit a standalone HTML page instead of markdown",
    )
    e.add_argument(
        "--out",
        metavar="FILE",
        default=None,
        help="also write the report to FILE",
    )
    _add_logging_flags(e)

    e = esub.add_parser(
        "gate",
        help="fail (exit 1) when fresh throughput regresses vs a committed "
        "BENCH_*.json trajectory",
    )
    e.add_argument(
        "--baseline",
        metavar="BENCH_JSON",
        required=True,
        help="committed trajectory file to compare against",
    )
    e.add_argument(
        "--current",
        metavar="BENCH_JSON",
        default=None,
        help="freshly recorded trajectory to compare (default: run the "
        "bench's built-in quick measurement now)",
    )
    e.add_argument(
        "--tolerance",
        type=float,
        default=20.0,
        metavar="PCT",
        help="largest tolerated throughput drop in percent (default: 20)",
    )
    e.add_argument(
        "--allow-machine-mismatch",
        action="store_true",
        help="compare against baseline entries from other machines too "
        "(default: only fingerprint-matched entries count)",
    )
    e.add_argument(
        "--write-current",
        metavar="FILE",
        default=None,
        help="persist the fresh measurement as a one-entry trajectory file",
    )
    e.add_argument(
        "--timestamp",
        help="--write-current entry timestamp (default: "
        "$REPRO_BENCH_TIMESTAMP, else now UTC)",
    )
    _add_logging_flags(e)

    e = esub.add_parser(
        "diff",
        help="compare two sweep result directories cell by cell "
        "(exit 1 when B regresses vs A)",
    )
    e.add_argument(
        "dir_a",
        metavar="DIR_A",
        help="baseline experiment directory (results/<name>)",
    )
    e.add_argument(
        "dir_b",
        metavar="DIR_B",
        help="candidate experiment directory to compare against DIR_A",
    )
    e.add_argument(
        "--tolerance",
        type=float,
        default=20.0,
        metavar="PCT",
        help="largest tolerated *per_s drop in percent (default: 20)",
    )
    _add_logging_flags(e)

    return parser


# ----------------------------------------------------------------------
# command implementations
# ----------------------------------------------------------------------
def _cmd_datasets(args: argparse.Namespace) -> str:
    if args.detail:
        from .datasets.statistics import describe

        return describe(load_dataset(args.detail))
    return dataset_summary()


def _cmd_fig2(args: argparse.Namespace) -> str:
    series = figure2_series(
        dataset=args.dataset, n_rounds=args.rounds, seed=args.seed
    )
    random_vals = np.array(series["random"])
    optimized_vals = np.array(series["optimized"])
    body = "\n\n".join(
        [
            text_histogram(series["random"], label="random perturbations"),
            text_histogram(series["optimized"], label="optimized perturbations"),
            format_mapping(
                {
                    "mean random": float(random_vals.mean()),
                    "mean optimized": float(optimized_vals.mean()),
                    "gain": float(optimized_vals.mean() - random_vals.mean()),
                }
            ),
        ]
    )
    return series_block(
        f"Figure 2 - privacy guarantee distribution ({args.dataset})", body
    )


def _cmd_fig3(args: argparse.Namespace) -> str:
    k_values = list(range(args.k_min, args.k_max + 1))
    series = figure3_series(k_values=k_values, n_rounds=args.rounds, seed=args.seed)
    headers = ["dataset - scheme"] + [f"k={k}" for k in k_values]
    rows = []
    for (name, scheme), rates in sorted(series.items()):
        rows.append([f"{name} - {scheme}"] + [rates[k] for k in k_values])
    return series_block(
        "Figure 3 - optimality rate vs number of parties",
        ascii_table(headers, rows),
    )


def _cmd_fig4(_args: argparse.Namespace) -> str:
    series = figure4_series()
    s0_values = sorted(next(iter(series.values())))
    headers = ["dataset (opt-rate)"] + [f"s0={s0:.2f}" for s0 in s0_values]
    from .analysis.figures import FIGURE4_OPT_RATES

    rows = []
    for name, by_s0 in sorted(series.items()):
        label = f"{name} ({FIGURE4_OPT_RATES[name]:.2f})"
        rows.append([label] + [by_s0[s0] for s0 in s0_values])
    return series_block(
        "Figure 4 - minimum number of parties vs expected satisfaction",
        ascii_table(headers, rows),
    )


def _deviation_table(series) -> str:
    datasets = sorted({name for name, _ in series})
    headers = ["dataset", "SAP - Uniform", "SAP - Class"]
    rows = []
    for name in datasets:
        rows.append(
            [
                name,
                series.get((name, "uniform"), float("nan")),
                series.get((name, "class"), float("nan")),
            ]
        )
    return ascii_table(headers, rows, float_format="{:+.2f}")


def _cmd_fig5(args: argparse.Namespace) -> str:
    series = figure5_series(k=args.k, repeats=args.repeats, seed=args.seed)
    return series_block(
        "Figure 5 - KNN accuracy deviation (percentage points)",
        _deviation_table(series),
    )


def _cmd_fig6(args: argparse.Namespace) -> str:
    series = figure6_series(k=args.k, repeats=args.repeats, seed=args.seed)
    return series_block(
        "Figure 6 - SVM(RBF) accuracy deviation (percentage points)",
        _deviation_table(series),
    )


def _cmd_risk(args: argparse.Namespace) -> str:
    sweep = risk_sweep()
    headers = list(sweep[0])
    table = ascii_table(headers, [[row[h] for h in headers] for row in sweep])
    mc = identifiability_monte_carlo(args.k, n_runs=args.runs, seed=args.seed)
    return series_block(
        "Risk model - eq.(1)/(2) sweep and identifiability Monte Carlo",
        table + "\n\n" + format_mapping(mc),
    )


def _cmd_session(args: argparse.Namespace) -> str:
    table = load_dataset(args.dataset)
    config = SAPConfig(
        k=args.k,
        noise_sigma=args.noise,
        classifier=ClassifierSpec(args.classifier),
        seed=args.seed,
        optimize_locally=args.privacy,
    )
    result = run_sap_session(table, config, compute_privacy=args.privacy)
    if args.json:
        return json.dumps(result.to_dict(), indent=2)
    return series_block(
        f"SAP session - {args.dataset} ({args.classifier}, k={args.k})",
        result.summary(),
    )


def _parse_trust_changes(specs: List[str]) -> List[TrustChange]:
    changes = []
    for spec in specs:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValueError(
                f"bad --trust-change {spec!r}; expected WINDOW:PARTY:TRUST "
                f"(e.g. 10:0:0.5)"
            )
        try:
            changes.append(
                TrustChange(
                    window=int(parts[0]), party=int(parts[1]), trust=float(parts[2])
                )
            )
        except ValueError as exc:
            raise ValueError(f"bad --trust-change {spec!r}: {exc}") from None
    return changes


def _require_positive(name: str, value: Optional[int]) -> None:
    """Reject zero/negative budget flags with the friendly exit-2 message."""
    if value is not None and value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value}")


def _require_non_negative(name: str, value: Optional[int]) -> None:
    """Reject negative count flags with the friendly exit-2 message."""
    if value is not None and value < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {value}")


def _check_writable(flag: str, path: str) -> None:
    """Fail fast (exit 2) on an unwritable output path, before the run."""
    try:
        with open(path, "w", encoding="utf-8"):
            pass
    except OSError as exc:
        raise ValueError(f"cannot write {flag} {path!r}: {exc}") from None


def _telemetry_from_flags(
    trace_out: Optional[str], metrics_out: Optional[str]
) -> Optional[Telemetry]:
    """The command's telemetry bundle, or ``None`` when no flag asked.

    ``--trace-out`` enables span recording into the named JSONL file;
    ``--metrics-out`` alone keeps the tracer disabled (free no-op spans)
    but still collects counters for the end-of-run snapshot.
    """
    if not trace_out and not metrics_out:
        return None
    if metrics_out:
        _check_writable("--metrics-out", metrics_out)
    if trace_out:
        try:
            return Telemetry.to_file(trace_out)
        except OSError as exc:
            raise ValueError(
                f"cannot write --trace-out {trace_out!r}: {exc}"
            ) from None
    return Telemetry.disabled()


def _finish_telemetry(
    telemetry: Optional[Telemetry], metrics_out: Optional[str]
) -> None:
    """Flush the span sink and write the metrics snapshot, if asked."""
    if telemetry is None:
        return
    telemetry.close()
    if metrics_out:
        try:
            telemetry.metrics.write_json(metrics_out)
        except OSError as exc:
            raise ValueError(
                f"cannot write --metrics-out {metrics_out!r}: {exc}"
            ) from None


def _stream_checkpointer(
    args: argparse.Namespace, telemetry: Optional[Telemetry]
) -> Optional[Checkpointer]:
    """Build the ``repro stream`` command's checkpoint policy, if asked."""
    _require_positive("--checkpoint-every", args.checkpoint_every)
    _require_positive("--checkpoint-retain", args.checkpoint_retain)
    _require_positive("--stop-after", args.stop_after)
    if args.checkpoint_dir is None:
        if (
            args.checkpoint_every is not None
            or args.checkpoint_retain is not None
            or args.stop_after is not None
        ):
            raise ValueError(
                "--checkpoint-every/--checkpoint-retain/--stop-after need "
                "--checkpoint-dir to say where checkpoints go"
            )
        return None
    return Checkpointer(
        directory=args.checkpoint_dir,
        every=args.checkpoint_every,
        stop_after=args.stop_after,
        retain=args.checkpoint_retain,
        telemetry=telemetry,
    )


def _cmd_stream(args: argparse.Namespace) -> str:
    _require_positive("--windows", args.windows)
    _require_positive("--window-size", args.window_size)
    _require_positive("--window-step", args.window_step)
    _require_positive("--shards", args.shards)
    _require_non_negative("--skew", args.skew)
    _require_non_negative("--watermark", args.watermark)
    telemetry = _telemetry_from_flags(args.trace_out, args.metrics_out)
    checkpointer = _stream_checkpointer(args, telemetry)
    if args.resume_from:
        # The checkpoint *is* the workload description: rebuild the source
        # and config it was taken under (only the telemetry attachment
        # comes from this invocation's flags), so no flag needs repeating
        # and none can silently diverge.
        ckpt = load_checkpoint(args.resume_from)
        src = ckpt.source
        config = ckpt.config
        if not isinstance(config, StreamConfig):
            raise CheckpointError(
                f"checkpoint config is a {type(config).__name__}, not a "
                f"StreamConfig"
            )
        source = _source_from_mapping(src)
        if telemetry is not None:
            config = dataclasses_replace(config, telemetry=telemetry)
    else:
        source = make_stream(
            args.dataset,
            kind=args.drift,
            n_records=args.windows * args.window_size,
            seed=args.seed,
        )
        config = StreamConfig(
            k=args.k,
            window_size=args.window_size,
            window_kind=args.window_kind,
            window_step=args.window_step,
            noise_sigma=args.noise,
            classifier=args.classifier,
            detector=args.detector,
            trust_changes=tuple(_parse_trust_changes(args.trust_change)),
            shards=args.shards,
            shard_backend=args.shard_backend,
            shard_plan=args.shard_plan,
            overlap=args.overlap,
            watermark_delay=args.watermark,
            late_policy=args.late_policy,
            skew=args.skew,
            seed=args.seed,
            telemetry=telemetry,
        )
    try:
        result = run_stream_session(
            source,
            config,
            checkpointer=checkpointer,
            resume_from=args.resume_from,
        )
    except SessionEvicted as evicted:
        _finish_telemetry(telemetry, args.metrics_out)
        if args.json:
            return json.dumps(
                {
                    "status": "evicted",
                    "checkpoint": evicted.path,
                    "windows": evicted.windows_done,
                    "records": evicted.records,
                },
                indent=2,
            )
        return series_block(
            "Streaming SAP - session checkpointed and stopped",
            f"windows completed : {evicted.windows_done}\n"
            f"records ingested  : {evicted.records}\n"
            f"checkpoint        : {evicted.path}\n"
            f"resume with       : repro stream --resume-from {evicted.path}",
        )
    _finish_telemetry(telemetry, args.metrics_out)
    if args.json:
        return json.dumps(result.to_dict(), indent=2)

    headers = ["window", "records", "acc (SAP)", "acc (std)", "deviation",
               "drift stat", "readapted"]
    rows = []
    for w in result.windows:
        rows.append(
            [
                w.index,
                w.n_records,
                w.accuracy_perturbed,
                w.accuracy_baseline,
                f"{w.deviation:+.2f}",
                f"{w.drift_statistic:.3f} ({w.drift_kind})",
                "*" if w.readapted else "",
            ]
        )
    event_lines = [
        f"window {e.window:>3}  {e.reason:<8} stat={e.statistic:.3f}  "
        f"negotiation={e.latency * 1000:.1f} ms  msgs={e.messages}"
        + (
            f"  guarantee={e.privacy_guarantee:.4f}"
            if e.privacy_guarantee is not None
            else ""
        )
        for e in result.events
    ]
    blocks = [
        result.summary(),
        "accuracy deviation over time\n" + ascii_table(headers, rows),
        "space (re-)negotiations\n" + "\n".join(event_lines),
    ]
    if result.ingest is not None and (
        result.ingest.late > 0 or result.ingest.max_skew > 0
    ):
        ingest_rows = [
            [
                gate.name,
                gate.records,
                gate.late,
                gate.dropped,
                gate.readmitted,
                gate.upserted,
                gate.max_skew,
            ]
            for gate in result.ingest.providers
        ]
        blocks.append(
            "event-time ingestion per provider\n"
            + ascii_table(
                ["provider", "records", "late", "dropped", "readmitted",
                 "upserted", "max skew"],
                ingest_rows,
            )
        )
    body = "\n\n".join(blocks)
    # Identity comes from the executed source/config (not the flags), so a
    # resumed session's header names the checkpointed workload.
    return series_block(
        f"Streaming SAP - {source.name} ({source.kind}, {config.classifier}, "
        f"k={config.k})",
        body,
    )


def _demo_workload(n_sessions: int, dataset: str, seed: int) -> List[Dict[str, object]]:
    """A mixed batch+stream workload across two tenants (the serve demo)."""
    workload: List[Dict[str, object]] = []
    for index in range(n_sessions):
        tenant = "acme" if index % 2 == 0 else "globex"
        if index % 2 == 0:
            workload.append(
                {
                    "kind": "batch",
                    "dataset": dataset,
                    "tenant": tenant,
                    "k": 3,
                    "seed": seed + index,
                }
            )
        else:
            workload.append(
                {
                    "kind": "stream",
                    "dataset": dataset,
                    "tenant": tenant,
                    "k": 3,
                    "stream": "abrupt" if index % 4 == 1 else "stationary",
                    "windows": 4,
                    "window_size": 32,
                    "compute_privacy": False,
                    "seed": seed + index,
                }
            )
    return workload


def _load_workload(path: str) -> List[Dict[str, object]]:
    """Read a workload file: a JSON list or ``{"sessions": [...]}``."""
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except OSError as exc:
        raise ValueError(f"cannot read workload file {path!r}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"workload file {path!r} is not valid JSON: {exc}") from None
    if isinstance(payload, dict):
        payload = payload.get("sessions")
    if not isinstance(payload, list) or not payload:
        raise ValueError(
            f"workload file {path!r} must contain a non-empty list of session "
            f'specs (or {{"sessions": [...]}})'
        )
    return payload


def _session_row(handle, result) -> List[object]:
    """One per-session report row (shared by text and JSON output)."""
    spec = handle.spec
    if result is None:
        outcome = "-"
    elif spec.kind == "batch":
        outcome = f"{result.deviation:+.2f} pts"
    else:
        outcome = f"{result.deviation:+.2f} pts / {result.records_processed} rec"
    return [
        handle.session_id,
        spec.tenant,
        spec.kind,
        spec.dataset_name,
        handle.poll(),
        outcome,
        f"{handle.wall_seconds * 1000:.0f} ms",
    ]


def _park_and_hint(closeable) -> None:
    """Ctrl-C landing: park live sessions, print how to resume each one."""
    parked = closeable.close(park=True)
    if parked:
        print("parked live sessions:", file=sys.stderr)
        for path in parked:
            print(
                f"  resume with: repro stream --resume-from {path}",
                file=sys.stderr,
            )


def _cmd_serve(args: argparse.Namespace) -> str:
    _require_positive("--sessions", args.sessions)
    _require_positive("--max-inflight", args.max_inflight)
    _require_positive("--shards", args.shards)
    _require_positive("--checkpoint-every", args.checkpoint_every)
    if args.queue_limit is not None and args.queue_limit < 0:
        raise ValueError(
            f"--queue-limit must be >= 0, got {args.queue_limit}"
        )
    if args.checkpoint_every is not None and args.checkpoint_dir is None:
        raise ValueError(
            "--checkpoint-every needs --checkpoint-dir to say where "
            "checkpoints go"
        )
    if args.workload:
        entries = _load_workload(args.workload)
    else:
        entries = _demo_workload(args.sessions, args.dataset, args.seed)
    specs = [SessionSpec.from_mapping(entry) for entry in entries]
    telemetry = _telemetry_from_flags(None, args.metrics_out)

    rejections: List[str] = []
    with MiningService(
        max_inflight=args.max_inflight,
        queue_limit=args.queue_limit,
        shard_backend=args.shard_backend,
        shard_workers=args.shards,
        telemetry=telemetry,
        checkpoint_dir=args.checkpoint_dir,
    ) as service:
        handles = []
        for spec in specs:
            every = (
                args.checkpoint_every
                if args.checkpoint_dir is not None and spec.kind == "stream"
                else None
            )
            try:
                handles.append(service.submit(spec, checkpoint_every=every))
            except AdmissionError as exc:
                rejections.append(f"{spec.display_label}: {exc}")
        try:
            service.drain()
        except KeyboardInterrupt:
            if args.checkpoint_dir is not None:
                _park_and_hint(service)
            raise
        results, errors = [], []
        for handle in handles:
            if handle.poll() == "completed":
                results.append(handle.result())
                errors.append(None)
            else:
                results.append(None)
                try:
                    handle.result(timeout=0)
                except (Exception, CancelledError) as exc:  # surfaced below
                    errors.append(f"{type(exc).__name__}: {exc}")
                else:  # pragma: no cover - completed raced the poll above
                    errors.append(None)
        stats = service.stats()
        # Snapshot while the service is alive: the registry's collectors
        # read the service and pool stats at snapshot time.
        _finish_telemetry(telemetry, args.metrics_out)
    failures = [
        f"{h.spec.display_label}: {message}"
        for h, message in zip(handles, errors)
        if message is not None
    ]
    # Failed or admission-rejected sessions make the command exit 1 (vs 2
    # for usage errors): the workload did not fully run, and scripted
    # callers must not mistake that for success.
    exit_code = 1 if failures or rejections else 0

    if args.json:
        return (
            json.dumps(
                {
                    "sessions": [
                        {
                            "id": h.session_id,
                            "label": h.spec.display_label,
                            "status": h.poll(),
                            "queue_seconds": h.queue_seconds,
                            "wall_seconds": h.wall_seconds,
                            "error": e,
                            "result": None if r is None else r.to_dict(),
                        }
                        for h, r, e in zip(handles, results, errors)
                    ],
                    "rejections": rejections,
                    "service": stats.to_dict(),
                },
                indent=2,
            ),
            exit_code,
        )

    headers = ["id", "tenant", "kind", "dataset", "status", "outcome", "wall"]
    rows = [_session_row(h, r) for h, r in zip(handles, results)]
    body = [ascii_table(headers, rows), stats.summary()]
    if failures:
        body.append("failed\n" + "\n".join(f"  {line}" for line in failures))
    if rejections:
        body.append("rejected\n" + "\n".join(f"  {line}" for line in rejections))
    return (
        series_block(
            f"Serving engine - {len(handles)} sessions "
            f"({args.shard_backend} pool, {args.shards} workers, "
            f"max_inflight={args.max_inflight})",
            "\n\n".join(body),
        ),
        exit_code,
    )


def _cluster_demo_workload(
    n_sessions: int, dataset: str, seed: int
) -> List[Dict[str, object]]:
    """An all-stream two-tenant workload (streams are what can migrate)."""
    return [
        {
            "kind": "stream",
            "dataset": dataset,
            "tenant": "acme" if index % 2 == 0 else "globex",
            "k": 3,
            "stream": "abrupt" if index % 4 == 1 else "stationary",
            "windows": 6,
            "window_size": 32,
            "compute_privacy": False,
            "seed": seed + index,
        }
        for index in range(n_sessions)
    ]


def _chaos_kill(cluster, sessions, ticks: int) -> Optional[int]:
    """SIGKILL the replica owning the first live session after ``ticks``
    poll ticks (50 ms each); returns the killed index, or ``None`` when
    the workload settled first.  Crash recovery re-homes the victims —
    the CLI's standing demonstration that even an unclean death leaves
    results bit-identical."""
    import signal as _signal

    for _ in range(ticks):
        if all(session.done() for session in sessions):
            return None
        time.sleep(0.05)
    live = [s for s in sessions if not s.done()]
    target = live[0].replica if live else 0
    pid = getattr(cluster.replicas[target], "pid", None)
    if pid is None:  # pragma: no cover - guarded by the --backend check
        return None
    os.kill(pid, _signal.SIGKILL)
    return target


def _serve_loop(
    cluster,
    workload_path: str,
    poll_interval: float,
    idle_exit: int,
    sessions: List,
    rejections: List[str],
) -> None:
    """``--serve``: re-read the workload file each tick and admit every
    newly appended entry; returns once ``idle_exit`` consecutive ticks
    saw no new work and nothing live (never, when ``idle_exit`` is 0)."""
    consumed = 0
    idle = 0
    while True:
        try:
            entries = _load_workload(workload_path)
        except ValueError:
            entries = []  # mid-write or momentarily empty; next tick retries
        fresh = entries[consumed:]
        if fresh:
            idle = 0
            for entry in fresh:
                consumed += 1
                try:
                    spec = SessionSpec.from_mapping(entry)
                    sessions.append(cluster.submit(spec))
                except (AdmissionError, ValueError) as exc:
                    rejections.append(f"workload[{consumed - 1}]: {exc}")
        elif all(session.done() for session in sessions):
            idle += 1
            if idle_exit and idle >= idle_exit:
                return
        else:
            idle = 0
        time.sleep(poll_interval)


def _forced_migrations(cluster, sessions, every: int, replicas: int):
    """Poll the workload, forcing a migration every ``every`` 50 ms ticks.

    Rotates over the still-live sessions and pushes each victim to the
    next replica round-robin — the CLI's standing demonstration that any
    migration schedule leaves results bit-identical.
    """
    hops: List[List[int]] = []
    ticks = 0
    rotate = 0
    while not all(session.done() for session in sessions):
        time.sleep(0.05)
        ticks += 1
        if ticks % every:
            continue
        live = [s for s in sessions if s.poll() in ("queued", "running")]
        if not live:
            continue
        victim = live[rotate % len(live)]
        rotate += 1
        destination = (victim.replica + 1) % replicas
        try:
            landed = cluster.migrate(victim.session_id, destination)
        except ClusterError:
            continue  # settled/raced mid-flight; the next tick moves on
        if landed is not None:
            hops.append([victim.session_id, landed])
    return hops


def _cmd_cluster(args: argparse.Namespace) -> str:
    _require_positive("--sessions", args.sessions)
    _require_positive("--replicas", args.replicas)
    _require_positive("--max-inflight", args.max_inflight)
    _require_positive("--shards", args.shards)
    _require_positive("--checkpoint-every", args.checkpoint_every)
    _require_positive("--checkpoint-retain", args.checkpoint_retain)
    _require_non_negative("--migrate-every", args.migrate_every)
    _require_non_negative("--chaos-kill", args.chaos_kill)
    _require_non_negative("--serve-idle-exit", args.serve_idle_exit)
    if args.poll_interval <= 0:
        raise ValueError(
            f"--poll-interval must be > 0 seconds, got {args.poll_interval}"
        )
    if args.heartbeat_interval <= 0:
        raise ValueError(
            f"--heartbeat-interval must be > 0 seconds, got "
            f"{args.heartbeat_interval}"
        )
    if args.queue_limit is not None and args.queue_limit < 0:
        raise ValueError(
            f"--queue-limit must be >= 0, got {args.queue_limit}"
        )
    if args.chaos_kill and args.backend != "process":
        raise ValueError(
            "--chaos-kill needs --backend process: only a process replica "
            "can be killed without taking the controller down with it"
        )
    if args.serve and not args.workload:
        raise ValueError(
            "--serve needs --workload: the long-running mode admits "
            "sessions appended to that file"
        )
    if args.workload:
        entries = _load_workload(args.workload)
    else:
        entries = _cluster_demo_workload(args.sessions, args.dataset, args.seed)
    specs = [SessionSpec.from_mapping(entry) for entry in entries]
    telemetry = _telemetry_from_flags(None, args.metrics_out)

    checkpoint_dir = args.checkpoint_dir
    scratch = None
    if checkpoint_dir is None and (args.migrate_every or args.chaos_kill):
        # Migration (and crash recovery) moves state through checkpoint
        # files; without an explicit directory the demo parks them in a
        # throwaway one.
        checkpoint_dir = scratch = tempfile.mkdtemp(prefix="repro-cluster-")

    rejections: List[str] = []
    killed: Optional[int] = None
    try:
        with ClusterController(
            replicas=args.replicas,
            placement=args.placement,
            backend=args.backend,
            heartbeat_interval=args.heartbeat_interval,
            max_inflight=args.max_inflight,
            queue_limit=args.queue_limit,
            shard_backend=args.shard_backend,
            shard_workers=args.shards,
            telemetry=telemetry,
            checkpoint_dir=checkpoint_dir,
            checkpoint_every=args.checkpoint_every,
            checkpoint_retain=args.checkpoint_retain,
        ) as cluster:
            sessions = []
            hops: List[List[int]] = []
            try:
                if not args.serve:
                    for spec in specs:
                        try:
                            sessions.append(cluster.submit(spec))
                        except AdmissionError as exc:
                            rejections.append(f"{spec.display_label}: {exc}")
                if args.chaos_kill:
                    killed = _chaos_kill(cluster, sessions, args.chaos_kill)
                if args.serve:
                    _serve_loop(
                        cluster, args.workload, args.poll_interval,
                        args.serve_idle_exit, sessions, rejections,
                    )
                elif args.migrate_every:
                    hops = _forced_migrations(
                        cluster, sessions, args.migrate_every, args.replicas
                    )
                cluster.wait_all()
            except KeyboardInterrupt:
                if args.checkpoint_dir is not None:
                    _park_and_hint(cluster)
                else:
                    # Nothing durable to park into: stop without waiting
                    # the workload out.  close() always reaps process
                    # replicas (shutdown, then terminate/kill), so a
                    # Ctrl-C never leaves orphaned children behind.
                    cluster.close(wait=False)
                raise
            results, errors = [], []
            for session in sessions:
                if session.poll() == "completed":
                    results.append(session.result())
                    errors.append(None)
                else:
                    results.append(None)
                    try:
                        session.result(timeout=0)
                    except (Exception, CancelledError) as exc:
                        errors.append(f"{type(exc).__name__}: {exc}")
                    else:  # pragma: no cover - completed raced the poll
                        errors.append(None)
            stats = cluster.stats()
            # Snapshot while replicas are alive: the cluster collector
            # reads live controller state at snapshot time.
            _finish_telemetry(telemetry, args.metrics_out)
    finally:
        if scratch is not None:
            shutil.rmtree(scratch, ignore_errors=True)

    failures = [
        f"{s.spec.display_label}: {message}"
        for s, message in zip(sessions, errors)
        if message is not None
    ]
    exit_code = 1 if failures or rejections else 0

    if args.json:
        return (
            json.dumps(
                {
                    "sessions": [
                        {
                            "id": s.session_id,
                            "label": s.spec.display_label,
                            "status": s.poll(),
                            "replica": s.replica,
                            "migrations": s.migrations,
                            "error": e,
                            "result": None if r is None else r.to_dict(),
                        }
                        for s, r, e in zip(sessions, results, errors)
                    ],
                    "rejections": rejections,
                    "migrations": hops,
                    "chaos_killed": killed,
                    "cluster": stats.to_dict(),
                },
                indent=2,
            ),
            exit_code,
        )

    headers = [
        "id", "tenant", "kind", "dataset", "replica", "hops", "status",
        "outcome", "wall",
    ]
    rows = []
    for session, result in zip(sessions, results):
        spec = session.spec
        if result is None:
            outcome = "-"
        elif spec.kind == "batch":
            outcome = f"{result.deviation:+.2f} pts"
        else:
            outcome = (
                f"{result.deviation:+.2f} pts / {result.records_processed} rec"
            )
        rows.append(
            [
                session.session_id,
                spec.tenant,
                spec.kind,
                spec.dataset_name,
                session.replica,
                session.migrations,
                session.poll(),
                outcome,
                f"{session.wall_seconds * 1000:.0f} ms",
            ]
        )
    body = [ascii_table(headers, rows), stats.summary()]
    if killed is not None:
        body.append(
            f"chaos: replica {killed} was SIGKILLed mid-run; its sessions "
            f"recovered on the surviving replicas"
        )
    if failures:
        body.append("failed\n" + "\n".join(f"  {line}" for line in failures))
    if rejections:
        body.append("rejected\n" + "\n".join(f"  {line}" for line in rejections))
    return (
        series_block(
            f"Cluster - {len(sessions)} sessions over {args.replicas} "
            f"{args.backend} replicas ({args.placement} placement, "
            f"{args.shard_backend} pools x {args.shards} workers)",
            "\n\n".join(body),
        ),
        exit_code,
    )


def _checkpoint_dir_report(args: argparse.Namespace) -> str:
    """``repro checkpoint inspect <dir>``: list (and optionally prune)."""
    pruned: List[str] = []
    if args.retain is not None:
        pruned = prune_checkpoints(args.path, retain=args.retain)
    paths = list_checkpoints(args.path)
    entries: List[Dict[str, object]] = []
    for path in paths:
        name = os.path.relpath(path, args.path)
        try:
            summary = load_checkpoint(path).describe()
        except CheckpointError as exc:
            entries.append({"file": name, "error": str(exc)})
            continue
        entries.append(
            {
                "file": name,
                "dataset": summary["dataset"],
                "windows": summary["windows"],
                "records": summary["records"],
                "fingerprint": summary["fingerprint"][:12],
                "resumable": summary["resumable_by_service"],
            }
        )
    if args.json:
        return json.dumps(
            {
                "directory": args.path,
                "checkpoints": entries,
                "pruned": [os.path.relpath(p, args.path) for p in pruned],
            },
            indent=2,
        )
    headers = ["file", "dataset", "windows", "records", "fingerprint", "service"]
    rows = [
        [
            entry["file"],
            entry.get("dataset", "-"),
            entry.get("windows", "-"),
            entry.get("records", "-"),
            entry.get("fingerprint", "-"),
            "error" if "error" in entry else ("yes" if entry["resumable"] else "no"),
        ]
        for entry in entries
    ]
    body = (
        ascii_table(headers, rows)
        if rows
        else "(no checkpoint files in this directory)"
    )
    if pruned:
        body += "\n\npruned " + ", ".join(
            os.path.relpath(p, args.path) for p in pruned
        )
    return series_block(
        f"Checkpoints - {args.path} ({len(entries)} files)", body
    )


def _cmd_checkpoint(args: argparse.Namespace) -> str:
    # Only `inspect` today; the subparser is required, so anything else
    # already died in argparse.
    _require_positive("--retain", args.retain)
    if os.path.isdir(args.path):
        return _checkpoint_dir_report(args)
    if args.retain is not None:
        raise ValueError(
            "--retain prunes a checkpoint *directory*; "
            f"{args.path!r} is a file"
        )
    ckpt = load_checkpoint(args.path)
    summary = ckpt.describe()
    if args.json:
        return json.dumps(summary, indent=2)
    labels = {
        "schema_version": "schema version",
        "fingerprint": "fingerprint",
        "created_unix": "created (unix)",
        "dataset": "dataset",
        "stream": "stream kind",
        "n_records": "stream length",
        "k": "parties (k)",
        "classifier": "classifier",
        "window_size": "window size",
        "shards": "shards",
        "shard_backend": "shard backend",
        "seed": "seed",
        "records": "records ingested",
        "windows": "windows completed",
        "epochs": "epochs negotiated",
        "resumable_by_service": "service-resumable",
    }
    width = max(len(label) for label in labels.values())
    lines = [
        f"{labels[key]:<{width}} : {summary[key]}"
        for key in labels
        if summary.get(key) is not None or key in ("created_unix",)
    ]
    return series_block(f"Checkpoint - {args.path}", "\n".join(lines))


def _cmd_report(args: argparse.Namespace) -> str:
    from .obs.report import load_span_sources, render_latency_report

    spans, files = load_span_sources(args.spans)
    max_rounds = None if args.max_rounds == 0 else args.max_rounds
    if len(files) == 1:
        origin = files[0]
    else:
        origin = f"{len(files)} span files merged"
    return series_block(
        f"Span latency report - {origin} ({len(spans)} spans)",
        render_latency_report(spans, max_rounds=max_rounds),
    )


def _cmd_experiment(args: argparse.Namespace):
    from .obs import experiment as exp

    if args.experiment_command == "run":
        config = exp.load_experiment_config(args.config)
        lines: List[str] = []

        def narrate(cell, artifact):
            status = artifact.get("status", "?")
            summary = artifact.get("summary") or {}
            detail = (
                f"{summary.get('records_per_s', '-')} rec/s"
                if status == "ok"
                else artifact.get("error", "")
            )
            lines.append(f"  {cell.run_id:<48} {status:<6} {detail}")
            logging.getLogger("repro.obs.experiment").info(
                "%s: %s", cell.run_id, status
            )

        run = exp.run_experiment(
            config,
            results_root=args.results,
            resume=not args.fresh,
            timestamp=args.timestamp,
            progress=narrate,
        )
        lines.append("")
        lines.append(
            f"{run.total} cells: {run.executed} executed, "
            f"{run.skipped} resumed, {run.failed} failed -> {run.directory}"
        )
        body = "\n".join(lines)
        # A failed cell leaves an error artifact but must not read as
        # success to scripted callers (same convention as `repro serve`).
        return (
            series_block(
                f"Experiment run - {config.name} "
                f"({len(config.factor_names)} factors x "
                f"{run.total} cells)",
                body,
            ),
            1 if run.failed else 0,
        )

    if args.experiment_command == "report":
        runs = exp.load_runs(args.directory)
        name = os.path.basename(os.path.normpath(args.directory))
        text = exp.render_experiment_report(
            runs, name=name, fmt="html" if args.html else "md"
        )
        if args.out:
            try:
                with open(args.out, "w", encoding="utf-8") as handle:
                    handle.write(text)
            except OSError as exc:
                raise ValueError(
                    f"cannot write --out {args.out!r}: {exc}"
                ) from None
        return text.rstrip("\n")

    if not 0.0 <= args.tolerance < 100.0:
        raise ValueError(
            f"--tolerance must be a percentage in [0, 100), got {args.tolerance}"
        )
    if args.experiment_command == "diff":
        report = exp.run_diff(
            args.dir_a, args.dir_b, tolerance=args.tolerance / 100.0
        )
        return report.text, 0 if report.ok else 1
    report = exp.run_gate(
        args.baseline,
        current_path=args.current,
        tolerance=args.tolerance / 100.0,
        allow_machine_mismatch=args.allow_machine_mismatch,
        write_current=args.write_current,
        timestamp=args.timestamp,
    )
    return report.text, 0 if report.ok else 1


def _cmd_ablation(args: argparse.Namespace) -> str:
    if args.which == "optimizer":
        stats = optimizer_ablation(dataset=args.dataset, seed=args.seed)
        blocks = [
            format_mapping({"strategy": name, **values})
            for name, values in stats.items()
        ]
        return series_block("Ablation - optimizer strategy", "\n\n".join(blocks))
    if args.which == "noise":
        rows = noise_sweep(dataset=args.dataset, seed=args.seed)
        headers = list(rows[0])
        return series_block(
            "Ablation - common noise level",
            ascii_table(headers, [[row[h] for h in headers] for row in rows]),
        )
    stats = attack_ablation(dataset=args.dataset, seed=args.seed)
    return series_block("Ablation - attack suite", format_mapping(stats))


_COMMANDS = {
    "datasets": _cmd_datasets,
    "fig2": _cmd_fig2,
    "fig3": _cmd_fig3,
    "fig4": _cmd_fig4,
    "fig5": _cmd_fig5,
    "fig6": _cmd_fig6,
    "risk": _cmd_risk,
    "session": _cmd_session,
    "ablation": _cmd_ablation,
    "stream": _cmd_stream,
    "checkpoint": _cmd_checkpoint,
    "serve": _cmd_serve,
    "cluster": _cmd_cluster,
    "report": _cmd_report,
    "experiment": _cmd_experiment,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    User-input errors (unknown dataset, malformed flag values) print a
    one-line ``error:`` message and return 2 — the same exit code argparse
    uses for an unknown subcommand — instead of dumping a traceback.
    Commands may return ``(output, exit_code)`` to report partial failures
    (``repro serve`` exits 1 when any session failed).
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    _configure_logging(args)
    try:
        output = _COMMANDS[args.command](args)
    except (KeyError, ValueError) as exc:
        message = exc.args[0] if exc.args else str(exc)
        print(f"error: {message}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        # Both entry points (`python -m repro` and the installed `repro`
        # script) share this handler.
        print("interrupted", file=sys.stderr)
        return 130
    code = 0
    if isinstance(output, tuple):
        output, code = output
    print(output)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
