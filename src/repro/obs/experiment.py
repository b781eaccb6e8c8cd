"""Declarative experiment sweeps: run tables, joined reports, a perf gate.

The paper's whole evaluation is a grid — scenario x parties x perturbation
knobs — and this module makes such grids one config file instead of one
hand-rolled script per cell:

* :class:`ExperimentConfig` — factors x levels x repetitions plus a base
  spec, loaded from one JSON or TOML file
  (:func:`load_experiment_config`);
* :func:`expand_run_table` — the deterministic cartesian expansion whose
  row type is the existing :class:`repro.serve.SessionSpec`;
* :func:`run_experiment` — executes every cell through
  :func:`repro.serve.engine.execute_spec` with its *own*
  :class:`~repro.obs.Telemetry` bundle, persists a per-run artifact
  directory (``spec.json`` + ``spans.jsonl`` + ``metrics.json`` +
  ``result.json`` with machine fingerprint and wall time), survives a
  crashed cell (an error artifact is written and the sweep continues),
  and resumes a partial sweep without re-running completed cells;
* :func:`load_runs` / :func:`render_experiment_report` — the report
  stage: joins the per-run metrics snapshots with the span latency
  tables of :mod:`repro.obs.report` into one factor-pivoted markdown (or
  minimal HTML) document;
* :func:`load_trajectory` / :func:`record_trajectory` — read and append
  the ``BENCH_*.json`` perf-trajectory files;
* :func:`run_gate` — the trajectory regression gate: compares a fresh
  quick measurement (or a ``--current`` trajectory file of the same
  bench and size) against the committed ``BENCH_*.json`` entries,
  matched by machine fingerprint, and reports a regression whenever a
  throughput metric drops by more than the tolerance (default 20%);
  :func:`run_diff` makes the same comparison between two sweeps.

Layering: everything config/table/report/gate-shaped here imports only
the standard library, keeping the package's rule that any ``repro``
subpackage may import ``repro.obs``.  The two call sites that *execute*
sessions defer their imports to call time, which is safe because by then
the execution layers are fully importable: :func:`run_experiment`'s cell
loop imports ``repro.serve``, and the gate's fresh measurement imports
:mod:`repro.obs.benches`, the one home of the trajectory sweeps that the
``benchmarks/bench_*.py`` scripts run too.
"""

from __future__ import annotations

import json
import math
import os
import platform
import re
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from .metrics import snapshot_quantile
from .report import stage_summary

__all__ = [
    "ExperimentConfig",
    "RunCell",
    "ExperimentRun",
    "GateReport",
    "DiffReport",
    "load_experiment_config",
    "expand_run_table",
    "run_experiment",
    "load_runs",
    "render_experiment_report",
    "machine_fingerprint",
    "bench_timestamp",
    "load_trajectory",
    "record_trajectory",
    "flatten_metrics",
    "run_gate",
    "run_diff",
]

#: top-level keys an experiment config may carry
_CONFIG_KEYS = ("name", "description", "base", "factors", "repetitions")

#: per-run artifact file names
SPEC_FILE = "spec.json"
SPANS_FILE = "spans.jsonl"
METRICS_FILE = "metrics.json"
RESULT_FILE = "result.json"
MANIFEST_FILE = "experiment.json"


def machine_fingerprint() -> Dict[str, Any]:
    """Coarse host identity stamped on every artifact and trajectory entry,
    so numbers from different machines are never compared as a trend."""
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
    }


def bench_timestamp(explicit: Optional[str] = None) -> str:
    """Artifact timestamp: explicit value, else ``REPRO_BENCH_TIMESTAMP``
    (pinned by CI for reproducible artifacts), else the current UTC time."""
    if explicit:
        return explicit
    env = os.environ.get("REPRO_BENCH_TIMESTAMP")
    if env:
        return env
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


# ----------------------------------------------------------------------
# config
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ExperimentConfig:
    """One declarative sweep: ``base`` spec + ``factors`` x ``repetitions``.

    ``base`` holds the :class:`~repro.serve.SessionSpec` fields shared by
    every cell; each factor maps a spec field to the list of levels to
    sweep; ``repetitions`` repeats every factor combination with the
    cell's seed offset by the repetition index, so repeated cells draw
    fresh (but reproducible) randomness.
    """

    name: str
    factors: Tuple[Tuple[str, Tuple[Any, ...]], ...]
    base: Tuple[Tuple[str, Any], ...] = ()
    repetitions: int = 1
    description: str = ""

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not re.fullmatch(
            r"[A-Za-z0-9._-]+", self.name or ""
        ):
            raise ValueError(
                f"experiment name must be a non-empty [A-Za-z0-9._-]+ slug "
                f"(it names the results directory), got {self.name!r}"
            )
        if not isinstance(self.repetitions, int) or isinstance(
            self.repetitions, bool
        ) or self.repetitions < 1:
            raise ValueError(
                f"repetitions must be an integer >= 1, got {self.repetitions!r}"
            )
        if not self.factors:
            raise ValueError("an experiment needs at least one factor")
        for factor, levels in self.factors:
            if not levels:
                raise ValueError(f"factor {factor!r} has no levels")
        for key, _ in tuple(self.base) + tuple(self.factors):
            if key == "telemetry":
                raise ValueError(
                    "'telemetry' is a runtime attachment, not a sweepable "
                    "spec field; the runner builds one bundle per cell"
                )

    @property
    def factor_names(self) -> Tuple[str, ...]:
        """Factor names in declaration order (the run-table column order)."""
        return tuple(name for name, _ in self.factors)

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, Any]) -> "ExperimentConfig":
        """Build a config from one parsed JSON/TOML document.

        Unknown top-level keys fail loudly, like
        :meth:`SessionSpec.from_mapping` does for spec fields.
        """
        unknown = sorted(set(mapping) - set(_CONFIG_KEYS))
        if unknown:
            raise ValueError(
                f"unknown experiment config key(s): {', '.join(unknown)}; "
                f"available: {', '.join(_CONFIG_KEYS)}"
            )
        if "name" not in mapping:
            raise ValueError("experiment config needs a 'name'")
        factors = mapping.get("factors")
        if not isinstance(factors, Mapping) or not factors:
            raise ValueError(
                "experiment config needs a non-empty 'factors' mapping "
                "(spec field -> list of levels)"
            )
        normalized: List[Tuple[str, Tuple[Any, ...]]] = []
        for factor, levels in factors.items():
            if not isinstance(levels, Sequence) or isinstance(levels, (str, bytes)):
                raise ValueError(
                    f"factor {factor!r} levels must be a list, got {levels!r}"
                )
            normalized.append((str(factor), tuple(levels)))
        base = mapping.get("base", {})
        if not isinstance(base, Mapping):
            raise ValueError(f"'base' must be a mapping, got {base!r}")
        return cls(
            name=mapping["name"],
            factors=tuple(normalized),
            base=tuple(base.items()),
            repetitions=mapping.get("repetitions", 1),
            description=mapping.get("description", ""),
        )

    def to_mapping(self) -> Dict[str, Any]:
        """The JSON-friendly inverse of :meth:`from_mapping`."""
        return {
            "name": self.name,
            "description": self.description,
            "base": dict(self.base),
            "factors": {name: list(levels) for name, levels in self.factors},
            "repetitions": self.repetitions,
        }


def load_experiment_config(path: str) -> ExperimentConfig:
    """Load an :class:`ExperimentConfig` from a JSON or TOML file.

    The format follows the extension: ``.toml`` parses with
    :mod:`tomllib` (Python 3.11+; a friendly error tells older
    interpreters to use JSON), anything else parses as JSON.
    """
    if path.endswith(".toml"):
        try:
            import tomllib
        except ImportError:
            raise ValueError(
                f"TOML config {path!r} needs Python 3.11+ (tomllib); "
                f"use a JSON config on this interpreter"
            ) from None
        try:
            with open(path, "rb") as handle:
                payload = tomllib.load(handle)
        except OSError as exc:
            raise ValueError(f"cannot read experiment config {path!r}: {exc}") from None
        except tomllib.TOMLDecodeError as exc:
            raise ValueError(f"experiment config {path!r} is not valid TOML: {exc}") from None
    else:
        try:
            with open(path, encoding="utf-8") as handle:
                payload = json.load(handle)
        except OSError as exc:
            raise ValueError(f"cannot read experiment config {path!r}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ValueError(f"experiment config {path!r} is not valid JSON: {exc}") from None
    if not isinstance(payload, Mapping):
        raise ValueError(f"experiment config {path!r} must be one object/table")
    return ExperimentConfig.from_mapping(payload)


# ----------------------------------------------------------------------
# run-table expansion
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RunCell:
    """One row of the expanded run table.

    ``overrides`` is the factor assignment (plus the repetition's seed
    offset already folded into ``spec_mapping``); ``spec_mapping`` is the
    full :class:`SessionSpec` description the cell executes.
    """

    run_id: str
    index: int
    rep: int
    overrides: Tuple[Tuple[str, Any], ...]
    spec_mapping: Tuple[Tuple[str, Any], ...]

    def build_spec(self):
        """The cell's :class:`~repro.serve.SessionSpec` (validated)."""
        from ..serve.spec import SessionSpec  # deferred: execution layer

        return SessionSpec.from_mapping(dict(self.spec_mapping))


def _level_token(value: Any) -> str:
    """A filesystem-safe rendering of one factor level for run ids."""
    if isinstance(value, bool):
        text = "true" if value else "false"
    else:
        text = str(value)
    return re.sub(r"[^A-Za-z0-9._+-]", "-", text)


def expand_run_table(config: ExperimentConfig) -> List[RunCell]:
    """Expand a config into its deterministic, validated run table.

    Factors iterate in declaration order with the *last* factor varying
    fastest (row-major cartesian product), then repetitions innermost;
    two expansions of the same config are element-wise identical, which
    is what makes run ids stable across resumes.  Every cell is built
    through :meth:`SessionSpec.from_mapping`, so an invalid factor field
    or level fails at expansion time naming the offending cell.
    """
    combos: List[Tuple[Tuple[str, Any], ...]] = [()]
    for factor, levels in config.factors:
        combos = [combo + ((factor, level),) for combo in combos for level in levels]
    base = dict(config.base)
    cells: List[RunCell] = []
    index = 0
    for combo in combos:
        for rep in range(config.repetitions):
            mapping = dict(base)
            mapping.update(combo)
            # Repetitions re-draw randomness: offset the cell's seed.
            mapping["seed"] = int(mapping.get("seed", 0)) + rep
            tokens = [f"{factor}={_level_token(level)}" for factor, level in combo]
            run_id = "-".join([f"{index:03d}"] + tokens + [f"r{rep}"])
            cell = RunCell(
                run_id=run_id,
                index=index,
                rep=rep,
                overrides=combo,
                spec_mapping=tuple(mapping.items()),
            )
            try:
                cell.build_spec()
            except ValueError as exc:
                raise ValueError(f"run table cell {run_id}: {exc}") from None
            cells.append(cell)
            index += 1
    return cells


# ----------------------------------------------------------------------
# the sweep runner
# ----------------------------------------------------------------------
@dataclass
class ExperimentRun:
    """What one :func:`run_experiment` call did."""

    directory: str
    total: int
    executed: int = 0
    skipped: int = 0
    failed: int = 0
    results: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every cell in the sweep has a completed artifact."""
        return self.failed == 0


def _result_summary(result: Any, wall_seconds: float) -> Dict[str, Any]:
    """The scalar summary persisted per run, both session kinds unified."""
    if hasattr(result, "records_processed"):  # stream
        records = result.records_processed
        messages = result.messages_sent + result.data_messages_sent
        data_bytes = result.bytes_sent + result.data_bytes_sent
        extra: Dict[str, Any] = {
            "windows": len(result.windows),
            "readaptations": result.readaptations,
            "overlap": result.overlap,
        }
    else:  # batch
        records = result.miner_result.n_train + result.miner_result.n_test
        messages = result.messages_sent
        data_bytes = result.bytes_sent
        extra = {}
    throughput = records / wall_seconds if wall_seconds > 0 else 0.0
    return {
        "records": int(records),
        "records_per_s": round(throughput, 1),
        "deviation": round(float(result.deviation), 4),
        "messages": int(messages),
        "bytes": int(data_bytes),
        **extra,
    }


def _write_json(path: str, payload: Any) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _read_json(path: str) -> Any:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _completed(result_path: str) -> Optional[Dict[str, Any]]:
    """The cell's prior completed artifact, or ``None`` to (re-)run it.

    A missing or unreadable ``result.json`` and an ``error`` artifact all
    mean "run the cell": resuming retries crashes, never successes.
    """
    try:
        artifact = _read_json(result_path)
    except (OSError, json.JSONDecodeError):
        return None
    if isinstance(artifact, dict) and artifact.get("status") == "ok":
        return artifact
    return None


def run_experiment(
    config: ExperimentConfig,
    results_root: str = "results",
    resume: bool = True,
    timestamp: Optional[str] = None,
    progress: Optional[Callable[[RunCell, Dict[str, Any]], None]] = None,
) -> ExperimentRun:
    """Execute every cell of the config's run table, persisting artifacts.

    Each cell runs through :func:`repro.serve.engine.execute_spec` with
    its own :class:`~repro.obs.Telemetry` bundle (a fresh metrics
    registry plus a tracer writing ``spans.jsonl`` in the run directory).
    A cell that raises records an ``error`` artifact and the sweep moves
    on; with ``resume`` (the default) a rerun skips cells whose artifact
    says ``ok`` and retries the rest, so a crashed sweep picks up where
    it stopped.  ``progress`` (when given) is called with every cell's
    artifact as it lands — the CLI's live narration hook.
    """
    from ..serve.engine import execute_spec  # deferred: execution layer
    from . import Telemetry  # deferred: avoid a cycle through __init__

    cells = expand_run_table(config)
    directory = os.path.join(results_root, config.name)
    os.makedirs(directory, exist_ok=True)
    _write_json(
        os.path.join(directory, MANIFEST_FILE),
        {"config": config.to_mapping(), "cells": len(cells)},
    )
    run = ExperimentRun(directory=directory, total=len(cells))
    for cell in cells:
        run_dir = os.path.join(directory, cell.run_id)
        result_path = os.path.join(run_dir, RESULT_FILE)
        if resume:
            prior = _completed(result_path)
            if prior is not None:
                run.skipped += 1
                run.results.append(prior)
                if progress is not None:
                    progress(cell, prior)
                continue
        os.makedirs(run_dir, exist_ok=True)
        _write_json(
            os.path.join(run_dir, SPEC_FILE),
            {
                "run_id": cell.run_id,
                "index": cell.index,
                "rep": cell.rep,
                "overrides": dict(cell.overrides),
                "spec": dict(cell.spec_mapping),
            },
        )
        spec = cell.build_spec()
        telemetry = Telemetry.to_file(os.path.join(run_dir, SPANS_FILE))
        artifact: Dict[str, Any] = {
            "run_id": cell.run_id,
            "timestamp": bench_timestamp(timestamp),
            "machine": machine_fingerprint(),
        }
        began = time.perf_counter()
        try:
            result = execute_spec(spec, telemetry=telemetry)
        except Exception as exc:  # a crashed cell must not kill the sweep
            artifact.update(
                status="error",
                error=f"{type(exc).__name__}: {exc}",
                wall_seconds=round(time.perf_counter() - began, 6),
            )
            run.failed += 1
        else:
            wall = time.perf_counter() - began
            artifact.update(
                status="ok",
                error=None,
                wall_seconds=round(wall, 6),
                summary=_result_summary(result, wall),
            )
            run.executed += 1
        finally:
            telemetry.close()
            telemetry.metrics.write_json(os.path.join(run_dir, METRICS_FILE))
        _write_json(result_path, artifact)
        run.results.append(artifact)
        if progress is not None:
            progress(cell, artifact)
    return run


# ----------------------------------------------------------------------
# the report stage: join artifacts + metrics + spans
# ----------------------------------------------------------------------
def load_runs(experiment_dir: str) -> List[Dict[str, Any]]:
    """Load every run's persisted artifacts from one experiment directory.

    Returns one dict per run (sorted by run id) carrying the ``spec``
    manifest, the ``result`` artifact, the metrics ``snapshot`` (or
    ``None``), and the parsed ``spans`` list (possibly empty).
    """
    if not os.path.isdir(experiment_dir):
        raise ValueError(f"not an experiment directory: {experiment_dir!r}")
    runs: List[Dict[str, Any]] = []
    for entry in sorted(os.listdir(experiment_dir)):
        run_dir = os.path.join(experiment_dir, entry)
        spec_path = os.path.join(run_dir, SPEC_FILE)
        if not os.path.isfile(spec_path):
            continue
        record: Dict[str, Any] = {"run_id": entry, "spec": _read_json(spec_path)}
        result_path = os.path.join(run_dir, RESULT_FILE)
        record["result"] = (
            _read_json(result_path) if os.path.isfile(result_path) else None
        )
        metrics_path = os.path.join(run_dir, METRICS_FILE)
        record["snapshot"] = (
            _read_json(metrics_path) if os.path.isfile(metrics_path) else None
        )
        spans: List[Dict[str, Any]] = []
        spans_path = os.path.join(run_dir, SPANS_FILE)
        if os.path.isfile(spans_path):
            with open(spans_path, encoding="utf-8") as handle:
                for line in handle:
                    line = line.strip()
                    if line:
                        spans.append(json.loads(line))
        record["spans"] = spans
        runs.append(record)
    if not runs:
        raise ValueError(
            f"no run artifacts (no */{SPEC_FILE}) under {experiment_dir!r}"
        )
    return runs


def _md_table(headers: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    """A GitHub-flavored markdown table."""
    lines = [
        "| " + " | ".join(str(h) for h in headers) + " |",
        "| " + " | ".join("---" for _ in headers) + " |",
    ]
    for row in rows:
        lines.append("| " + " | ".join(str(cell) for cell in row) + " |")
    return "\n".join(lines)


def _merge_histogram_values(values: List[Mapping[str, Any]]) -> Dict[str, Any]:
    """Sum same-family histogram snapshot values across runs.

    Snapshot buckets are cumulative per run; cumulative counts add, so
    the merged value is again a valid snapshot histogram.
    """
    buckets: Dict[str, float] = {}
    total = 0
    total_sum = 0.0
    for value in values:
        for le, count in value.get("buckets", {}).items():
            buckets[le] = buckets.get(le, 0) + count
        total += int(value.get("count", 0))
        total_sum += float(value.get("sum", 0.0))
    return {"buckets": buckets, "count": total, "sum": total_sum}


def _stddev(values: Sequence[float], mean: float) -> float:
    """Sample standard deviation (``n - 1`` denominator); 0 for n < 2."""
    if len(values) < 2:
        return 0.0
    return math.sqrt(
        sum((v - mean) ** 2 for v in values) / (len(values) - 1)
    )


def _factor_pivots(
    runs: List[Dict[str, Any]], factor_names: Sequence[str]
) -> List[Tuple[str, Any, int, float, float, float]]:
    """``(factor, level, runs, mean rec/s, stddev rec/s, mean wall s)`` rows.

    The dispersion column is what separates a real factor effect from
    run-to-run noise: a level whose mean sits within one stddev of its
    neighbour's is not evidence of anything.
    """
    pivots: List[Tuple[str, Any, int, float, float, float]] = []
    for factor in factor_names:
        grouped: Dict[Any, List[Tuple[float, float]]] = {}
        for run in runs:
            result = run.get("result") or {}
            if result.get("status") != "ok":
                continue
            level = (run["spec"].get("overrides") or {}).get(factor)
            summary = result.get("summary") or {}
            grouped.setdefault(level, []).append(
                (
                    float(summary.get("records_per_s", 0.0)),
                    float(result.get("wall_seconds", 0.0)),
                )
            )
        for level in sorted(grouped, key=repr):
            points = grouped[level]
            rates = [p[0] for p in points]
            mean_rate = sum(rates) / len(rates)
            pivots.append(
                (
                    factor,
                    level,
                    len(points),
                    mean_rate,
                    _stddev(rates, mean_rate),
                    sum(p[1] for p in points) / len(points),
                )
            )
    return pivots


def render_experiment_report(
    runs: List[Dict[str, Any]],
    name: str = "experiment",
    fmt: str = "md",
) -> str:
    """One aggregate document joining artifacts, metrics, and spans.

    Sections: the run table (factors, status, throughput, wall time),
    throughput pivoted by factor level, per-stage span latency across
    every run, metric-histogram quantiles estimated from the persisted
    snapshot buckets (no raw spans needed), aggregated traffic counters,
    and any failures.  ``fmt`` is ``"md"`` or ``"html"`` (the HTML is a
    minimal standalone wrapper for CI artifact browsing).
    """
    if fmt not in ("md", "html"):
        raise ValueError(f"report format must be 'md' or 'html', got {fmt!r}")
    factor_names: List[str] = []
    for run in runs:
        for factor in run["spec"].get("overrides") or {}:
            if factor not in factor_names:
                factor_names.append(factor)
    ok_runs = [r for r in runs if (r.get("result") or {}).get("status") == "ok"]
    failures = [
        (r["run_id"], (r.get("result") or {}).get("error") or "no result artifact")
        for r in runs
        if (r.get("result") or {}).get("status") != "ok"
    ]
    machines = {
        json.dumps((r.get("result") or {}).get("machine"), sort_keys=True)
        for r in runs
        if (r.get("result") or {}).get("machine")
    }

    blocks: List[str] = [f"# Experiment report — {name}", ""]
    blocks.append(
        f"- runs: {len(runs)} ({len(ok_runs)} ok, {len(failures)} failed)"
    )
    blocks.append(f"- factors: {', '.join(factor_names) or '(none)'}")
    for machine in sorted(machines):
        blocks.append(f"- machine: {machine}")
    blocks.append("")

    headers = ["run"] + factor_names + [
        "rep", "status", "records", "rec/s", "wall s", "deviation",
    ]
    rows = []
    for run in runs:
        spec = run["spec"]
        result = run.get("result") or {}
        summary = result.get("summary") or {}
        overrides = spec.get("overrides") or {}
        rows.append(
            [run["run_id"]]
            + [overrides.get(f, "") for f in factor_names]
            + [
                spec.get("rep", 0),
                result.get("status", "missing"),
                summary.get("records", "-"),
                summary.get("records_per_s", "-"),
                (
                    f"{result['wall_seconds']:.3f}"
                    if result.get("wall_seconds") is not None
                    else "-"
                ),
                summary.get("deviation", "-"),
            ]
        )
    blocks += ["## Run table", "", _md_table(headers, rows), ""]

    pivots = _factor_pivots(runs, factor_names)
    if pivots:
        blocks += [
            "## Throughput by factor",
            "",
            _md_table(
                [
                    "factor", "level", "runs", "mean rec/s",
                    "stddev rec/s", "mean wall s",
                ],
                [
                    (f, lvl, n, f"{rps:,.1f}", f"{dev:,.1f}", f"{wall:.3f}")
                    for f, lvl, n, rps, dev, wall in pivots
                ],
            ),
            "",
        ]

    all_spans = [span for run in ok_runs for span in run["spans"]]
    summary_by_stage = stage_summary(all_spans)
    if summary_by_stage:
        blocks += [
            "## Stage latency across runs (spans, ms)",
            "",
            _md_table(
                ["stage", "count", "p50", "p95", "mean", "total"],
                [
                    (
                        stage,
                        int(stats["count"]),
                        f"{stats['p50'] * 1000:.2f}",
                        f"{stats['p95'] * 1000:.2f}",
                        f"{stats['mean'] * 1000:.2f}",
                        f"{stats['total'] * 1000:.2f}",
                    )
                    for stage, stats in summary_by_stage.items()
                ],
            ),
            "",
        ]

    # Join the metrics snapshots: histogram quantiles straight from the
    # persisted bucket counts (satellite: no raw spans required), plus
    # the counter families summed across runs.
    histograms: Dict[Tuple[str, str], List[Mapping[str, Any]]] = {}
    counters: Dict[Tuple[str, str], float] = {}
    for run in ok_runs:
        snapshot = run.get("snapshot") or {}
        for family, body in snapshot.items():
            for label, value in body.get("values", {}).items():
                key = (family, label)
                if body.get("type") == "histogram":
                    histograms.setdefault(key, []).append(value)
                elif body.get("type") == "counter":
                    counters[key] = counters.get(key, 0.0) + float(value)
    if histograms:
        rows = []
        for (family, label), values in sorted(histograms.items()):
            merged = _merge_histogram_values(values)
            if not merged["count"]:
                continue
            rows.append(
                (
                    family + label,
                    merged["count"],
                    f"{snapshot_quantile(merged, 0.5) * 1000:.2f}",
                    f"{snapshot_quantile(merged, 0.95) * 1000:.2f}",
                )
            )
        if rows:
            blocks += [
                "## Metric histograms (snapshot buckets, ms)",
                "",
                _md_table(["histogram", "count", "p50", "p95"], rows),
                "",
            ]
    if counters:
        blocks += [
            "## Traffic counters (summed across runs)",
            "",
            _md_table(
                ["counter", "total"],
                [
                    (family + label, int(total) if total.is_integer() else total)
                    for (family, label), total in sorted(counters.items())
                ],
            ),
            "",
        ]

    if failures:
        blocks += ["## Failures", ""]
        blocks += [f"- `{run_id}`: {error}" for run_id, error in failures]
        blocks.append("")

    text = "\n".join(blocks).rstrip() + "\n"
    if fmt == "html":
        escaped = (
            text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        )
        return (
            "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">"
            f"<title>{name}</title></head>\n"
            f"<body><pre>\n{escaped}</pre></body></html>\n"
        )
    return text


# ----------------------------------------------------------------------
# perf trajectories and the regression gate
# ----------------------------------------------------------------------
def load_trajectory(path: str) -> Dict[str, Any]:
    """Load and validate one ``BENCH_*.json`` perf-trajectory file."""
    try:
        payload = _read_json(path)
    except OSError as exc:
        raise ValueError(f"cannot read trajectory file {path!r}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"trajectory file {path!r} is not valid JSON: {exc}") from None
    if not isinstance(payload, dict) or not isinstance(payload.get("entries"), list):
        raise ValueError(f"{path!r} is not a benchmark trajectory file")
    for index, entry in enumerate(payload["entries"]):
        if (
            not isinstance(entry, dict)
            or not isinstance(entry.get("timestamp"), str)
            or not isinstance(entry.get("machine"), dict)
            or not isinstance(entry.get("metrics"), dict)
        ):
            raise ValueError(
                f"{path!r}: entry {index} is not a "
                f"{{timestamp, machine, metrics}} record"
            )
    return payload


def _trajectory_entry(
    metrics: Dict[str, Any], timestamp: Optional[str]
) -> Dict[str, Any]:
    """One trajectory entry: the metrics stamped with time and machine."""
    return {
        "timestamp": bench_timestamp(timestamp),
        "machine": machine_fingerprint(),
        "metrics": metrics,
    }


def record_trajectory(
    path: str,
    bench: str,
    metrics: Dict[str, Any],
    timestamp: Optional[str] = None,
) -> Dict[str, Any]:
    """Append one ``{timestamp, machine, metrics}`` entry to a trajectory file.

    The file is a single JSON object ``{"bench": ..., "entries": [...]}``;
    re-running a benchmark with the same ``--out`` grows the history rather
    than overwriting it, which is what makes the file a perf *trajectory*.
    Entries whose ``(timestamp, machine)`` already appears are *not*
    re-appended — CI pins ``REPRO_BENCH_TIMESTAMP``, so retried jobs would
    otherwise bloat the committed files with exact duplicates.  Returns the
    appended entry (or the existing duplicate).
    """
    entry = _trajectory_entry(metrics, timestamp)
    history: Dict[str, Any] = {"bench": bench, "entries": []}
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
    _write_json(path, history)
    return entry


def flatten_metrics(
    metrics: Mapping[str, Any], prefix: str = ""
) -> Dict[str, float]:
    """Numeric leaves of a nested metrics dict as dotted keys."""
    flat: Dict[str, float] = {}
    for key, value in metrics.items():
        dotted = f"{prefix}{key}"
        if isinstance(value, Mapping):
            flat.update(flatten_metrics(value, prefix=dotted + "."))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            flat[dotted] = float(value)
    return flat


def _compare_throughput(
    base: Mapping[str, Any], current: Mapping[str, Any], tolerance: float
) -> List[List[str]]:
    """One rendered ``[metric, base, current, change, verdict]`` row per
    throughput metric (``*per_s`` numeric leaf) both metrics dicts carry.

    The verdict is ``REGRESSION`` when ``current`` sits more than
    ``tolerance`` (a fraction) below ``base``, ``improved`` when it sits
    more than that above, else ``ok``.
    """
    flat_base = flatten_metrics(base)
    flat_current = flatten_metrics(current)
    rows: List[List[str]] = []
    for key in sorted(k for k in flat_base if "per_s" in k and k in flat_current):
        before, after = flat_base[key], flat_current[key]
        change = (after - before) / before if before > 0 else 0.0
        if change < -tolerance:
            verdict = "REGRESSION"
        elif change > tolerance:
            verdict = "improved"
        else:
            verdict = "ok"
        rows.append(
            [key, f"{before:,.1f}", f"{after:,.1f}", f"{change * 100:+.1f}%",
             verdict]
        )
    return rows


def _size_fields(metrics: Mapping[str, Any]) -> Dict[str, Any]:
    """A trajectory entry's size fields (``quick``, ``n_windows``, ...):
    its top-level entries that are neither mappings nor ``*per_s`` keys."""
    return {
        key: value
        for key, value in metrics.items()
        if not isinstance(value, Mapping) and "per_s" not in key
    }


@dataclass
class GateReport:
    """One gate evaluation: verdict plus the rendered comparison."""

    ok: bool
    text: str
    compared: int = 0
    regressions: int = 0
    skipped: Optional[str] = None


def run_gate(
    baseline_path: str,
    current_path: Optional[str] = None,
    tolerance: float = 0.20,
    allow_machine_mismatch: bool = False,
    write_current: Optional[str] = None,
    timestamp: Optional[str] = None,
) -> GateReport:
    """Compare a fresh measurement against a committed perf trajectory.

    The baseline is the *latest* entry of ``baseline_path`` whose machine
    fingerprint matches this host (entries from other machines are never
    treated as a trend; ``allow_machine_mismatch`` lifts that for
    containers whose fingerprints churn).  The current measurement comes
    from ``current_path`` (the latest entry of another trajectory file of
    the same bench, e.g. one the benchmark just wrote with ``--out``) or,
    for the benches of :mod:`repro.obs.benches`, from running its quick
    sweep now.  Both must measure the same size: a size field (a
    top-level metric that is neither a mapping nor a ``*per_s`` key, such
    as ``quick`` or ``n_windows``) present on both sides with different
    values is a ``ValueError``, as is a ``current_path`` holding another
    bench.  Every throughput metric (``*per_s`` keys present on both
    sides) must stay above ``baseline * (1 - tolerance)``; any that does
    not is a regression and the gate fails.
    """
    if not 0.0 <= tolerance < 1.0:
        raise ValueError(f"tolerance must be in [0, 1), got {tolerance!r}")
    trajectory = load_trajectory(baseline_path)
    bench = trajectory.get("bench", "?")
    fingerprint = machine_fingerprint()

    if current_path is not None:
        current_trajectory = load_trajectory(current_path)
        if current_trajectory.get("bench") != trajectory.get("bench"):
            raise ValueError(
                f"current trajectory {current_path!r} is bench "
                f"{current_trajectory.get('bench')!r} but baseline "
                f"{baseline_path!r} is bench {trajectory.get('bench')!r}; "
                f"the gate compares a bench only with itself"
            )
        current_entries = current_trajectory["entries"]
        if not current_entries:
            raise ValueError(f"current trajectory {current_path!r} has no entries")
        current = current_entries[-1]["metrics"]
        current_label = f"latest entry of {current_path}"
    else:
        from .benches import BENCHES, measure  # deferred: execution layers

        if bench not in BENCHES:
            raise ValueError(
                f"no built-in quick measurement for bench {bench!r}; pass "
                f"--current with a freshly recorded trajectory file "
                f"(available built-ins: {', '.join(BENCHES)})"
            )
        current = measure(bench, quick=True).metrics
        current_label = f"fresh quick {bench} run"
    if write_current:
        _write_json(
            write_current,
            {"bench": bench, "entries": [_trajectory_entry(current, timestamp)]},
        )

    candidates = [
        entry
        for entry in trajectory["entries"]
        if allow_machine_mismatch or entry["machine"] == fingerprint
    ]
    if not candidates:
        return GateReport(
            ok=True,
            skipped="no matching baseline",
            text=(
                f"gate: PASS (vacuous) — {baseline_path} has no entries matching "
                f"this machine's fingerprint {fingerprint}; nothing comparable. "
                f"Use --allow-machine-mismatch to compare anyway."
            ),
        )
    baseline = candidates[-1]
    base_size = _size_fields(baseline["metrics"])
    current_size = _size_fields(current)
    differing = [
        f"{key}: baseline {base_size[key]!r}, current {current_size[key]!r}"
        for key in sorted(base_size)
        if key in current_size and base_size[key] != current_size[key]
    ]
    if differing:
        raise ValueError(
            f"baseline entry {baseline['timestamp']} of {baseline_path} and "
            f"{current_label} measure different sizes ({'; '.join(differing)}); "
            f"gate a run only against an entry of its own size"
        )
    rows = _compare_throughput(baseline["metrics"], current, tolerance)
    if not rows:
        return GateReport(
            ok=True,
            skipped="no throughput metrics",
            text=(
                f"gate: PASS (vacuous) — baseline entry "
                f"{baseline['timestamp']} and {current_label} share no "
                f"'*per_s' throughput metrics."
            ),
        )
    regressions = sum(row[-1] == "REGRESSION" for row in rows)
    verdict = "FAIL" if regressions else "PASS"
    lines = [
        f"gate: {verdict} — {bench} vs baseline {baseline['timestamp']} "
        f"({current_label}, tolerance {tolerance * 100:.0f}%)",
        _md_table(["metric", "baseline", "current", "change", "verdict"], rows),
    ]
    return GateReport(
        ok=not regressions,
        text="\n".join(lines),
        compared=len(rows),
        regressions=regressions,
    )


@dataclass
class DiffReport:
    """One sweep-vs-sweep comparison: verdict plus the rendered table."""

    ok: bool
    text: str
    compared: int = 0
    regressions: int = 0
    improvements: int = 0


def run_diff(
    dir_a: str, dir_b: str, tolerance: float = 0.20
) -> DiffReport:
    """Compare two sweep result directories cell by cell.

    Cells are matched by run id (the deterministic directory name, e.g.
    ``000-shards=1-shard_backend=serial-overlap=false-r0``, so the same
    config's sweeps line up automatically); within each matched pair,
    every shared throughput metric (``*per_s`` keys of the persisted
    result summaries) is compared B-vs-A.  A drop beyond ``tolerance`` is
    a ``REGRESSION`` (and fails the diff, exit 1 from the CLI), a gain
    beyond it is highlighted ``improved``, anything else is ``ok``.
    Cells present in only one directory, and cells whose artifact is an
    error, are listed but never compared.
    """
    if not 0.0 <= tolerance < 1.0:
        raise ValueError(f"tolerance must be in [0, 1), got {tolerance!r}")
    runs_a = {run["run_id"]: run for run in load_runs(dir_a)}
    runs_b = {run["run_id"]: run for run in load_runs(dir_b)}
    shared = sorted(set(runs_a) & set(runs_b))
    notes: List[str] = []
    for run_id in sorted(set(runs_a) - set(runs_b)):
        notes.append(f"only in A: {run_id}")
    for run_id in sorted(set(runs_b) - set(runs_a)):
        notes.append(f"only in B: {run_id}")

    def summary(run: Mapping[str, Any]) -> Optional[Mapping[str, Any]]:
        result = run.get("result")
        if not isinstance(result, Mapping) or result.get("status") != "ok":
            return None
        return result.get("summary") or {}

    rows: List[List[str]] = []
    for run_id in shared:
        summary_a = summary(runs_a[run_id])
        summary_b = summary(runs_b[run_id])
        if summary_a is None or summary_b is None:
            side = "A" if summary_a is None else "B"
            notes.append(f"not completed in {side}: {run_id}")
            continue
        rows += [
            [run_id] + row
            for row in _compare_throughput(summary_a, summary_b, tolerance)
        ]
    regressions = sum(row[-1] == "REGRESSION" for row in rows)
    improvements = sum(row[-1] == "improved" for row in rows)
    verdict = "FAIL" if regressions else "PASS"
    lines = [
        f"diff: {verdict} — {len(rows)} cells compared "
        f"(A={dir_a}, B={dir_b}, tolerance {tolerance * 100:.0f}%): "
        f"{regressions} regressions, {improvements} improvements",
    ]
    if rows:
        lines.append(
            _md_table(["cell", "metric", "A", "B", "change", "verdict"], rows)
        )
    else:
        lines.append("(no shared '*per_s' metrics to compare)")
    if notes:
        lines.append("")
        lines.extend(notes)
    return DiffReport(
        ok=not regressions,
        text="\n".join(lines),
        compared=len(rows),
        regressions=regressions,
        improvements=improvements,
    )
