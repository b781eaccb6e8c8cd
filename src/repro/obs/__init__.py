"""Unified telemetry: metrics registry, tracing spans, latency reports.

``repro.obs`` is the dependency-free observability layer under the whole
stack.  Its parts:

* :mod:`repro.obs.metrics` — a deterministic :class:`MetricsRegistry` of
  ``Counter``/``Gauge``/``Histogram`` families with Prometheus text and
  JSON export;
* :mod:`repro.obs.tracing` — a :class:`Tracer` producing nested
  :class:`Span` records (monotonic durations, explicit parent ids,
  key/value attrs) into a JSONL or in-memory sink;
* :mod:`repro.obs.report` — span-file aggregation into per-stage latency
  tables (p50/p95);
* :mod:`repro.obs.experiment` — declarative sweep runner (factors x
  levels x repetitions -> persisted per-run artifacts), joined
  metrics+span reports, and the trajectory regression gate;
* :mod:`repro.obs.benches` — the sweeps behind the ``BENCH_*.json``
  trajectories, shared by the gate and the ``benchmarks/`` scripts (not
  imported here: it is loaded only when a sweep runs).

The :class:`Telemetry` bundle below is what the execution layers carry:
one tracer + one registry + the parent span of the current scope.  It
plugs into :class:`repro.streaming.StreamConfig` and
:class:`repro.serve.SessionSpec` via their ``telemetry`` field and into
:class:`repro.serve.MiningService` via its constructor; absent (or with
the tracer disabled) every instrumented call site is a guarded no-op, so
results stay bit-identical and throughput untouched.

Layering rule: this package imports only the standard library *at import
time*, so every other ``repro`` subpackage may import it without cycles;
the execution-layer imports of the experiment runner and the bench
sweeps (``repro.serve``, ``repro.streaming``, ``repro.cluster``) are
deferred to call time.
"""

from __future__ import annotations

import logging
import sys
from typing import Any, Optional

from .collect import (
    cluster_collector,
    ingest_collector,
    pool_collector,
    service_collector,
)
from .experiment import (
    DiffReport,
    ExperimentConfig,
    GateReport,
    expand_run_table,
    load_experiment_config,
    load_runs,
    render_experiment_report,
    run_diff,
    run_experiment,
    run_gate,
)
from .metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    bucket_quantile,
    global_registry,
    snapshot_quantile,
)
from .tracing import (
    NULL_TRACER,
    JsonlSink,
    ListSink,
    NullSpan,
    NullTracer,
    Span,
    Tracer,
)

__all__ = [
    "Telemetry",
    "log_to_stderr",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "DEFAULT_BUCKETS",
    "bucket_quantile",
    "snapshot_quantile",
    "global_registry",
    "ExperimentConfig",
    "GateReport",
    "DiffReport",
    "load_experiment_config",
    "expand_run_table",
    "run_experiment",
    "load_runs",
    "render_experiment_report",
    "run_gate",
    "run_diff",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "Span",
    "NullSpan",
    "JsonlSink",
    "ListSink",
    "cluster_collector",
    "ingest_collector",
    "pool_collector",
    "service_collector",
]


class Telemetry:
    """One scope's telemetry context: tracer + metrics + parent span.

    ``tracer`` defaults to the shared disabled :data:`NULL_TRACER` (spans
    are free no-ops — "telemetry off"); ``metrics`` defaults to a fresh
    per-bundle :class:`MetricsRegistry` so counters always work.
    ``parent`` is the span new root-level spans of this scope should hang
    under; :meth:`child` re-scopes the bundle one level deeper, which is
    how a serving engine threads its ``drive`` span into the session it
    executes — each scope gets its own lightweight bundle sharing one
    tracer and one registry.
    """

    __slots__ = ("tracer", "metrics", "parent")

    def __init__(
        self,
        tracer: Optional[Any] = None,
        metrics: Optional[MetricsRegistry] = None,
        parent: Optional[Any] = None,
    ) -> None:
        self.tracer = NULL_TRACER if tracer is None else tracer
        self.metrics = MetricsRegistry() if metrics is None else metrics
        self.parent = parent

    @property
    def enabled(self) -> bool:
        """Whether spans are actually recorded (the tracer's switch)."""
        return self.tracer.enabled

    @classmethod
    def to_file(
        cls, trace_path: str, metrics: Optional[MetricsRegistry] = None
    ) -> "Telemetry":
        """A bundle whose spans append to ``trace_path`` as JSONL."""
        return cls(tracer=Tracer(JsonlSink(trace_path)), metrics=metrics)

    @classmethod
    def in_memory(cls) -> "Telemetry":
        """A bundle collecting spans in a :class:`ListSink` (tests)."""
        return cls(tracer=Tracer(ListSink()))

    @classmethod
    def disabled(cls) -> "Telemetry":
        """Telemetry *off*: counters work, spans are shared no-ops."""
        return cls()

    def span(self, name: str, **attrs: Any):
        """Open a span parented at this scope's level."""
        return self.tracer.span(name, parent=self.parent, **attrs)

    def child(self, parent: Any) -> "Telemetry":
        """The same tracer/registry, re-scoped under ``parent``."""
        scoped = Telemetry.__new__(Telemetry)
        scoped.tracer = self.tracer
        scoped.metrics = self.metrics
        scoped.parent = parent
        return scoped

    def close(self) -> None:
        """Flush and close the tracer's sink (idempotent)."""
        self.tracer.close()

    def __repr__(self) -> str:  # keep dataclass reprs holding one readable
        state = "on" if self.enabled else "off"
        return f"Telemetry({state})"


def log_to_stderr(level: int) -> None:
    """Point the ``repro.*`` logger hierarchy at stderr, at ``level``, as
    ``LEVEL logger: message`` lines: the CLI's output, and a process
    replica's at its parent's level."""
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    logger = logging.getLogger("repro")
    logger.handlers[:] = [handler]
    logger.setLevel(level)
    logger.propagate = False
