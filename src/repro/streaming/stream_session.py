"""Online counterpart of :func:`repro.core.session.run_sap_session`.

:func:`run_stream_session` drives one continuous privacy-preserving mining
run: records arrive from a :class:`~repro.streaming.sources.StreamSource`,
are **pushed through per-provider ingestion gates into per-shard window
buffers** (:class:`~repro.streaming.ingest.IngestPlane`), sealed by a
watermark in event order, normalized incrementally, perturbed per-party,
adapted into the negotiated target space, and mined by an incremental
classifier — while a drift detector watches for distribution shift.
Out-of-order arrivals (``config.skew``) are tolerated up to
``config.watermark_delay`` sequence numbers of lateness; later records
fall to ``config.late_policy`` (drop / readmit / upsert), with per-provider
counters reported on the result's ``ingest`` block.

Space (re-)negotiation reuses the multiparty machinery:

* every epoch's negotiation runs over a fresh :class:`repro.simnet` network
  — the coordinator draws the target perturbation and a new exchange plan,
  broadcasts ``TARGET_PARAMS`` / ``EXCHANGE_ASSIGNMENT``, and collects each
  provider's tagged ``SPACE_ADAPTOR`` — so message/byte costs are charged
  exactly like in the batch protocol;
* when drift fires (or a party's trust level changes — Li et al.'s
  multi-level-trust setting, mapped to a per-party noise level), the session
  re-negotiates and *migrates* the online model from the old target space to
  the new one with :func:`repro.core.adaptation.compute_adaptor` — raw data
  is never revisited, and the inherited noise is never removed;
* every epoch refreshes the privacy guarantee with the fast attack suite,
  evaluated on the current window in the new space's parameters.

Execution is **sharded** (:mod:`repro.sharding`): windows are grouped into
rounds of ``config.shards``, the per-window transform (one stacked matmul
into the target space plus per-party complementary noise) and the
prequential predictions fan out across a worker pool, and every per-shard
record batch travels a persistent :class:`~repro.sharding.engine.DataPlane`
network so message accounting stays complete.  Control decisions — window
order, normalizer merges, drift detection, trust schedules, negotiation,
model updates — stay on the driver in window order, which is why the
results are bit-identical for every ``(shards, backend, plan)`` choice;
``shards=1`` on the serial backend is simply the degenerate round size.

Rounds are **pipelined** (``config.overlap``, default on for pool
backends): the driver dispatches a round's transforms asynchronously
(:meth:`~repro.sharding.ShardBackend.submit_map`), runs the next round's
control plane while they execute, and gathers in strict round order — a
double-buffered pipeline where round ``N+1``'s transforms and round
``N``'s predictions occupy the pool while the driver ingests records.  A
round that re-negotiates the space first *drains* everything in flight,
so no dispatched task ever references a replaced epoch's invalidated
adaptor cache.  Overlap reorders execution, never gathering/merge order,
so results remain bit-identical to serial dispatch.

Accuracy is scored prequentially (test-then-train) against a baseline copy
of the same online learner fed the *un*-perturbed normalized records, so
the reported deviation isolates what perturbation costs — the streaming
analogue of the paper's Figures 5/6.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..checkpoint import (
    CheckpointError,
    Checkpointer,
    SessionEvicted,
    load_checkpoint,
    register,
)
from ..core.adaptation import AdaptorCache, SpaceAdaptor, compute_adaptor
from ..core.perturbation import GeometricPerturbation, sample_perturbation
from ..core.protocol import ExchangePlan, draw_exchange_plan
from ..mining.metrics import accuracy_deviation, accuracy_score
from ..sharding import (
    BACKENDS,
    SHARD_STRATEGIES,
    DataPlane,
    DataPlaneState,
    ShardBackend,
    ShardFutures,
    ShardPlan,
    ShardPool,
    predict_window,
    transform_window,
)
from ..obs import NULL_TRACER, Telemetry
from ..simnet.channel import Network
from ..simnet.messages import Message, MessageKind
from ..simnet.node import Node
from .drift import DETECTOR_KINDS, DriftReport, make_detector
from .ingest import LATE_POLICIES, IngestPlane, IngestState, IngestStats
from .normalizer import NORMALIZER_KINDS, make_normalizer
from .online_miner import ONLINE_CLASSIFIERS, make_online_classifier
from .sources import StreamSource, chunked, make_stream, skewed, skewed_chunks
from .windows import WINDOW_KINDS, Window

__all__ = [
    "TrustChange",
    "StreamConfig",
    "ReadaptationEvent",
    "StreamWindowStats",
    "StreamSessionResult",
    "STREAM_CHECKPOINT_FORMAT",
    "run_stream_session",
]

_LOG = logging.getLogger("repro.streaming.session")


@register
@dataclass(frozen=True)
class TrustChange:
    """A scheduled change of one party's trust level.

    Following the multi-level-trust model, ``trust`` in ``(0, 1]`` scales
    the noise the party must apply: a fully trusted party (1.0) uses the
    base ``noise_sigma``; lower trust doubles toward ``2 x noise_sigma``.
    A change always triggers a space re-negotiation at ``window``.
    """

    window: int
    party: int
    trust: float

    def __post_init__(self) -> None:
        if self.window < 0:
            raise ValueError("window must be >= 0")
        if not 0.0 < self.trust <= 1.0:
            raise ValueError("trust must be in (0, 1]")


@register
@dataclass(frozen=True)
class StreamConfig:
    """Knobs for one online SAP run.

    Attributes
    ----------
    k:
        Number of data providers (incoming records are attributed to
        providers round-robin; coordinator included, as in the batch
        protocol).
    window_size / window_kind / window_step:
        Windowing policy (see :mod:`repro.streaming.windows`).
    noise_sigma:
        Base common-noise level; per-party effective noise is scaled by
        trust (see :class:`TrustChange`).
    classifier:
        ``"knn"`` (reservoir) or ``"linear_svm"`` (SGD) — the incremental
        miners of :mod:`repro.streaming.online_miner`.
    normalizer:
        ``"minmax"`` or ``"zscore"`` incremental normalizer.
    detector / detector_params:
        Drift detector (``"meanvar"`` or ``"ks"``) and its thresholds.
    readapt_cooldown:
        Minimum number of windows between two *drift-triggered*
        re-adaptations (trust changes always fire); prevents thrash while a
        gradual drift crosses the threshold repeatedly.
    trust_changes:
        Scheduled :class:`TrustChange` events.
    compute_privacy:
        Refresh the fast-suite privacy guarantee at every negotiation
        (small cost per epoch; disable for pure throughput benchmarks).
    shards:
        Number of logical worker shards; windows are processed in rounds
        of this many, with transforms and predictions fanned out across
        the pool.  Results are bit-identical for every shard count.
    shard_backend:
        ``"serial"``, ``"thread"``, or ``"process"`` — see
        :mod:`repro.sharding.backends`.
    shard_plan:
        ``"round_robin"``, ``"hash"``, or ``"party"`` — see
        :class:`repro.sharding.ShardPlan`.  Affects placement and
        data-plane routing (the ``party`` strategy adds forward hops),
        never results.
    overlap:
        Pipeline rounds: dispatch round ``N+1``'s shard transforms while
        round ``N``'s predictions are still in flight, hiding driver
        control-plane latency behind the worker pool (double-buffered
        rounds).  ``None`` — the default — enables the pipeline whenever
        the executing backend can actually overlap work (thread/process
        pools); ``True``/``False`` force it.  On the serial backend the
        flag is ignored: dispatches run inline, so the pipeline
        degenerates to serial execution either way.  Results are
        bit-identical with and without overlap — execution may reorder,
        merge order never does.
    watermark_delay:
        How many sequence numbers the ingestion watermark trails the
        arrival frontier before a window seals (see
        :class:`repro.streaming.ingest.IngestPlane`).  ``0`` — the
        default, bit-identical to the pre-event-time pipeline on in-order
        streams — seals a window as soon as any later record arrives; a
        delay of ``s`` tolerates any arrival order with observed lateness
        ``<= s`` without a single late record.
    late_policy:
        What happens to a record that arrives after its window sealed:
        ``"drop"``, ``"readmit"``, or ``"upsert"`` (see
        :data:`repro.streaming.ingest.LATE_POLICIES`).
    skew:
        Bounded out-of-order transport simulation: ``skew > 0`` scrambles
        the source's arrival order with displacement (and therefore
        observed lateness) at most ``skew`` records, deterministically
        under the session seed (see :func:`repro.streaming.sources.skewed`).
        ``0`` leaves the arrival order untouched.
    seed:
        Master seed; all node and miner seeds derive from it.
    telemetry:
        Optional :class:`repro.obs.Telemetry` bundle.  When present, the
        driver emits round/stage tracing spans (if the bundle's tracer is
        enabled) and increments its counters; when ``None`` — the default
        — every instrumented site is a guarded no-op.  Excluded from
        equality, repr, the codec (checkpoints and replica frames), and
        :meth:`~repro.serve.SessionSpec.to_mapping`, and it can never
        affect results: telemetry reads session state, never draws
        randomness, and never reorders execution.
    """

    k: int = 3
    window_size: int = 64
    window_kind: str = "tumbling"
    window_step: Optional[int] = None
    noise_sigma: float = 0.05
    classifier: str = "knn"
    classifier_params: Tuple[Tuple[str, object], ...] = ()
    normalizer: str = "minmax"
    detector: str = "meanvar"
    detector_params: Tuple[Tuple[str, object], ...] = ()
    readapt_cooldown: int = 2
    trust_changes: Tuple[TrustChange, ...] = ()
    compute_privacy: bool = True
    shards: int = 1
    shard_backend: str = "serial"
    shard_plan: str = "round_robin"
    overlap: Optional[bool] = None
    watermark_delay: int = 0
    late_policy: str = "drop"
    skew: int = 0
    seed: int = 0
    telemetry: Optional[Telemetry] = field(
        default=None, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        if self.k < 2:
            raise ValueError("streaming SAP requires k >= 2 providers")
        if self.window_size < 2:
            raise ValueError("window_size must be >= 2")
        if self.window_kind not in WINDOW_KINDS:
            raise ValueError(
                f"unknown window kind {self.window_kind!r}; available: "
                f"{', '.join(WINDOW_KINDS)}"
            )
        if self.window_step is not None and self.window_step < 1:
            raise ValueError("window_step must be a positive integer when set")
        if self.classifier not in ONLINE_CLASSIFIERS:
            raise ValueError(
                f"unknown online classifier {self.classifier!r}; available: "
                f"{', '.join(ONLINE_CLASSIFIERS)}"
            )
        if self.normalizer not in NORMALIZER_KINDS:
            raise ValueError(
                f"unknown normalizer {self.normalizer!r}; available: "
                f"{', '.join(NORMALIZER_KINDS)}"
            )
        if self.detector not in DETECTOR_KINDS:
            raise ValueError(
                f"unknown drift detector {self.detector!r}; available: "
                f"{', '.join(DETECTOR_KINDS)}"
            )
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")
        if self.readapt_cooldown < 0:
            raise ValueError("readapt_cooldown must be >= 0")
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.shard_backend not in BACKENDS:
            raise ValueError(
                f"unknown shard backend {self.shard_backend!r}; available: "
                f"{', '.join(BACKENDS)}"
            )
        if self.shard_plan not in SHARD_STRATEGIES:
            raise ValueError(
                f"unknown shard plan {self.shard_plan!r}; available: "
                f"{', '.join(SHARD_STRATEGIES)}"
            )
        if self.overlap is not None and not isinstance(self.overlap, bool):
            raise ValueError(
                f"overlap must be True, False, or None (auto), got "
                f"{self.overlap!r}"
            )
        if (
            not isinstance(self.watermark_delay, int)
            or isinstance(self.watermark_delay, bool)
            or self.watermark_delay < 0
        ):
            raise ValueError(
                f"watermark_delay must be an integer >= 0, got "
                f"{self.watermark_delay!r}"
            )
        if self.late_policy not in LATE_POLICIES:
            raise ValueError(
                f"unknown late policy {self.late_policy!r}; available: "
                f"{', '.join(LATE_POLICIES)}"
            )
        if (
            not isinstance(self.skew, int)
            or isinstance(self.skew, bool)
            or self.skew < 0
        ):
            raise ValueError(f"skew must be an integer >= 0, got {self.skew!r}")
        if self.telemetry is not None and not isinstance(
            self.telemetry, Telemetry
        ):
            raise ValueError(
                f"telemetry must be a repro.obs.Telemetry bundle or None, "
                f"got {type(self.telemetry).__name__}"
            )

    def provider_name(self, index: int) -> str:
        """Node names, matching the batch convention (coordinator last)."""
        if index == self.k - 1:
            return "coordinator"
        return f"provider-{index}"


@register
@dataclass(frozen=True)
class ReadaptationEvent:
    """One space re-negotiation."""

    window: int
    reason: str  # "initial" | "drift" | "trust"
    statistic: float
    latency: float  # wall-clock seconds spent negotiating
    messages: int
    bytes: int
    virtual_duration: float
    privacy_guarantee: Optional[float] = None


@register
@dataclass(frozen=True)
class StreamWindowStats:
    """Prequential metrics for one window.

    ``n_records`` counts the window's *fresh* records — the ones scored
    and learned from exactly once (equal to the window size for tumbling
    windows, to the step for overlapping sliding windows).  ``revision``
    is 0 for a window's first emission and ``>= 1`` for an ``upsert``
    correction carrying that window's late arrivals.
    """

    index: int
    n_records: int
    accuracy_perturbed: float
    accuracy_baseline: float
    drift_statistic: float
    drift_kind: str
    readapted: bool
    revision: int = 0

    @property
    def deviation(self) -> float:
        """Per-window accuracy deviation in percentage points."""
        return accuracy_deviation(self.accuracy_perturbed, self.accuracy_baseline)


@register
@dataclass
class StreamSessionResult:
    """Everything measured over one streaming run."""

    config: StreamConfig
    source_name: str
    source_kind: str
    records_processed: int
    windows: List[StreamWindowStats]
    events: List[ReadaptationEvent]
    accuracy_perturbed: float
    accuracy_baseline: float
    wall_seconds: float
    messages_sent: int
    bytes_sent: int
    data_messages_sent: int = 0
    data_bytes_sent: int = 0
    shard_records: Tuple[int, ...] = ()
    ingest: Optional[IngestStats] = None
    provider_records: Tuple[int, ...] = ()
    #: whether the driver actually pipelined rounds (the *effective* value
    #: of ``config.overlap`` — false whenever the executing backend runs
    #: dispatches inline, whatever the config asked for)
    overlap: bool = False

    @property
    def deviation(self) -> float:
        """Cumulative prequential accuracy deviation (percentage points)."""
        return accuracy_deviation(self.accuracy_perturbed, self.accuracy_baseline)

    @property
    def readaptations(self) -> int:
        """Re-negotiations after the initial one (drift- or trust-triggered)."""
        return sum(1 for e in self.events if e.reason != "initial")

    @property
    def throughput(self) -> float:
        """Records per wall-clock second, end to end."""
        if self.wall_seconds <= 0:
            return float("inf")
        return self.records_processed / self.wall_seconds

    @property
    def mean_readapt_latency(self) -> float:
        """Mean wall-clock seconds per negotiation."""
        if not self.events:
            return 0.0
        return float(np.mean([e.latency for e in self.events]))

    def deviation_series(self) -> List[float]:
        """Per-window deviation trajectory (for reports and figures)."""
        return [w.deviation for w in self.windows]

    def summary(self) -> str:
        """Multi-line run report, mirroring ``SAPSessionResult.summary``."""
        guarantees = [
            e.privacy_guarantee for e in self.events if e.privacy_guarantee is not None
        ]
        lines = [
            f"stream            : {self.source_name} ({self.source_kind})",
            f"providers (k)     : {self.config.k}",
            f"classifier        : {self.config.classifier}",
            f"shards            : {self.config.shards} "
            f"({self.config.shard_backend} backend, {self.config.shard_plan} plan, "
            f"{'pipelined' if self.overlap else 'serial'} dispatch)",
            f"records / windows : {self.records_processed} / {len(self.windows)}",
            f"re-adaptations    : {self.readaptations}",
            f"baseline accuracy : {self.accuracy_baseline:.4f}",
            f"stream accuracy   : {self.accuracy_perturbed:.4f}",
            f"deviation         : {self.deviation:+.2f} points",
            f"throughput        : {self.throughput:,.0f} records/s",
            f"readapt latency   : {self.mean_readapt_latency * 1000:.1f} ms (mean)",
            f"messages / bytes  : {self.messages_sent} / {self.bytes_sent}",
            f"shard traffic     : {self.data_messages_sent} msgs / "
            f"{self.data_bytes_sent} bytes",
        ]
        if self.ingest is not None:
            lines.append(
                f"ingestion         : {self.ingest.late} late "
                f"({self.ingest.dropped} dropped / "
                f"{self.ingest.readmitted} readmitted / "
                f"{self.ingest.upserted} upserted), "
                f"max skew {self.ingest.max_skew}"
            )
        if guarantees:
            lines.append(
                f"privacy guarantee : {min(guarantees):.4f} (min over epochs)"
            )
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly view of the run (``repro stream --json``)."""
        return {
            "kind": "stream",
            "source": self.source_name,
            "stream_kind": self.source_kind,
            "k": self.config.k,
            "classifier": self.config.classifier,
            "seed": self.config.seed,
            "shards": self.config.shards,
            "overlap": self.overlap,
            "records_processed": self.records_processed,
            "n_windows": len(self.windows),
            "readaptations": self.readaptations,
            "accuracy_perturbed": self.accuracy_perturbed,
            "accuracy_baseline": self.accuracy_baseline,
            "deviation": self.deviation,
            "deviation_series": self.deviation_series(),
            "throughput": self.throughput,
            "wall_seconds": self.wall_seconds,
            "messages_sent": self.messages_sent,
            "bytes_sent": self.bytes_sent,
            "data_messages_sent": self.data_messages_sent,
            "data_bytes_sent": self.data_bytes_sent,
            "ingest": None if self.ingest is None else self.ingest.to_dict(),
            "provider_records": list(self.provider_records),
            "events": [
                {
                    "window": e.window,
                    "reason": e.reason,
                    "statistic": e.statistic,
                    "latency": e.latency,
                    "messages": e.messages,
                    "bytes": e.bytes,
                    "privacy_guarantee": e.privacy_guarantee,
                }
                for e in self.events
            ],
        }


# ----------------------------------------------------------------------
# negotiation roles (one fresh simnet network per epoch)
# ----------------------------------------------------------------------
class _NegotiationProvider(Node):
    """A provider's view of one negotiation epoch.

    Draws its local perturbation ``G_i`` up front; on receiving the target
    parameters it answers with its tagged space adaptor, exactly like the
    batch :class:`repro.parties.provider.DataProvider` — minus the dataset
    exchange, which the streaming session performs window by window.
    """

    def __init__(
        self,
        name: str,
        network: Network,
        dimension: int,
        noise_sigma: float,
        coordinator_name: str,
        seed: int = 0,
    ) -> None:
        super().__init__(name, network, seed=seed)
        self.coordinator_name = coordinator_name
        self.perturbation = sample_perturbation(
            dimension, self.rng, noise_sigma=noise_sigma
        )
        self.adaptor: Optional[SpaceAdaptor] = None
        self.tag: Optional[str] = None
        self.exchange_receiver: Optional[str] = None

    def on_exchange_assignment(self, message: Message) -> None:
        self.tag = message.payload["tag"]
        self.exchange_receiver = message.payload["receiver"]

    def on_target_params(self, message: Message) -> None:
        target = GeometricPerturbation(
            rotation=message.payload["rotation"],
            translation=message.payload["translation"],
            noise_sigma=0.0,
        )
        self.adaptor = compute_adaptor(self.perturbation, target)
        self.send(
            MessageKind.SPACE_ADAPTOR,
            self.coordinator_name,
            {
                "tag": self.tag if self.tag is not None else "",
                "rotation_adaptor": self.adaptor.rotation_adaptor,
                "translation_adaptor": self.adaptor.translation_adaptor,
            },
        )


class _NegotiationCoordinator(_NegotiationProvider):
    """The coordinating provider: draws the target + plan, collects adaptors."""

    def __init__(
        self,
        name: str,
        network: Network,
        dimension: int,
        noise_sigma: float,
        k: int,
        provider_names: Sequence[str],
        seed: int = 0,
    ) -> None:
        super().__init__(
            name, network, dimension, noise_sigma, coordinator_name=name, seed=seed
        )
        self.k = k
        self.provider_names = list(provider_names)
        self.target: Optional[GeometricPerturbation] = None
        self.plan: Optional[ExchangePlan] = None
        self.adaptors_received = 0

    def start(self) -> None:
        """Draw target + plan, then broadcast assignments and parameters."""
        d = self.perturbation.dimension
        self.target = sample_perturbation(d, self.rng, noise_sigma=0.0)
        self.plan = draw_exchange_plan(self.k, self.rng)
        for index, peer in enumerate(self.provider_names):
            receiver = self.provider_names[self.plan.receiver_of_source(index)]
            if peer == self.name:
                self.tag = self.plan.tag_of_source(index)
                self.exchange_receiver = receiver
                continue
            self.send(
                MessageKind.EXCHANGE_ASSIGNMENT,
                peer,
                {"tag": self.plan.tag_of_source(index), "receiver": receiver},
            )
            self.send(
                MessageKind.TARGET_PARAMS,
                peer,
                {
                    "rotation": self.target.rotation,
                    "translation": self.target.translation,
                },
            )
        # The coordinator adapts locally (no self-addressed message).
        self.adaptor = compute_adaptor(self.perturbation, self.target)
        self.adaptors_received += 1

    def on_space_adaptor(self, message: Message) -> None:
        self.adaptors_received += 1


@register
@dataclass
class _Epoch:
    """One negotiated space: target, plan, per-party perturbations, sigmas.

    ``sigmas`` are the per-party effective noise levels *at negotiation
    time*; a trust change always re-negotiates, so they stay accurate for
    the epoch's whole lifetime.  Adaptors are held in the session's
    :class:`~repro.core.adaptation.AdaptorCache`, keyed by ``epoch_id``.
    """

    epoch_id: int
    target: GeometricPerturbation
    plan: ExchangePlan
    perturbations: List[GeometricPerturbation]
    sigmas: Tuple[float, ...]


def _epoch_guarantee(
    epoch: _Epoch,
    X_normalized: np.ndarray,
    sigmas: Sequence[float],
    rng: np.random.Generator,
) -> float:
    """Fast-suite guarantee of the epoch's effective global perturbation.

    As in the batch session, the miner holds data in the target space with
    the inherited noise, so the effective perturbation is the target's
    rotation/translation at the worst (smallest) per-party noise level.
    """
    from ..attacks.resilience import fast_suite

    effective = GeometricPerturbation(
        rotation=epoch.target.rotation,
        translation=epoch.target.translation,
        noise_sigma=float(min(sigmas)),
    )
    return fast_suite().guarantee(effective, X_normalized.T, rng)


@dataclass
class _WindowWork:
    """Driver-side record of one window's control-plane decisions."""

    window: Window
    X_fresh: np.ndarray
    y_fresh: np.ndarray
    norm_a: np.ndarray
    norm_b: np.ndarray
    epoch: _Epoch
    migration: Optional[SpaceAdaptor]
    report: DriftReport
    readapted: bool
    # filled by the transform stage
    X_norm: Optional[np.ndarray] = field(default=None)
    X_target: Optional[np.ndarray] = field(default=None)


@dataclass(eq=False)
class _Round:
    """One round of windows moving through the (possibly pipelined) driver.

    A round is born in the *control* stage (window-ordered decisions,
    ``work`` and ``stale_epoch_ids`` filled), gets its transform tasks
    dispatched (``transforms`` set), is *settled* (transforms gathered,
    data plane charged, models updated, ``predictions`` dispatched), and
    finally *merged* (predictions gathered, stats folded in).  ``eq=False``
    keeps identity semantics — work items hold numpy arrays.

    ``round_id`` is the driver's running round counter and ``span`` the
    round's enclosing tracing span (``None`` when tracing is off); both
    exist so stage spans opened across different driver calls can share
    one parent and one ``round`` attribute.
    """

    work: List[_WindowWork]
    stale_epoch_ids: List[int]
    transforms: Optional[ShardFutures] = None
    predictions: Optional[ShardFutures] = None
    round_id: int = -1
    span: Optional[Any] = None


# ----------------------------------------------------------------------
# durable sessions: the run-state record
# ----------------------------------------------------------------------
# Everything a run mutates lives in one registered record, ``_RunState``,
# or in a component that snapshots itself (online miners, drift detector,
# ingest and data planes, adaptor cache); :meth:`_StreamRun.checkpoint`
# puts those snapshots and the master RNG's position into the record, and
# the record *is* the checkpoint's state (its layout is the schema,
# ``repro.checkpoint.SCHEMA_VERSION``).  A resume builds the components as
# a fresh run does (the master RNG re-draws the same derived seeds in the
# same order), restores each from its snapshot, adopts the record, and
# skips the already-ingested arrival prefix: sources and the skew shuffler
# re-derive their arrival order from their seeds, which is what makes
# resume bit-identical to never stopping.

#: the payload ``format`` tag of stream-session checkpoints
STREAM_CHECKPOINT_FORMAT = "repro.checkpoint/stream"

#: the source-identity fields a checkpoint records (``make_stream`` args)
_SOURCE_FIELDS = (
    "name", "kind", "n_records", "seed", "drift_at", "magnitude",
    "transition", "rate", "burst_factor",
)


def _source_mapping(source: StreamSource) -> Dict[str, Any]:
    """The source's identity: enough to rebuild it and to refuse mismatches."""
    mapping: Dict[str, Any] = {
        name: getattr(source, name)
        for name in _SOURCE_FIELDS
        if hasattr(source, name)
    }
    mapping["dimension"] = int(source.dimension)
    return mapping


def _source_from_mapping(mapping: Dict[str, Any]) -> StreamSource:
    """Rebuild the source a checkpoint recorded with :func:`_source_mapping`."""
    missing = [name for name in _SOURCE_FIELDS if name not in mapping]
    if missing:
        raise CheckpointError(f"checkpoint source lacks {', '.join(missing)}")
    return make_stream(
        mapping["name"], **{name: mapping[name] for name in _SOURCE_FIELDS[1:]}
    )


@register
@dataclass(eq=False)
class _RunState:
    """Everything mutable about one stream run: a checkpoint's ``state``.

    The run mutates the fields up to ``window_stats``; the rest are the
    snapshots :meth:`_StreamRun.checkpoint` takes.
    """

    trust: Dict[int, float]
    normalizer: Any
    shard_normalizers: List[Any]
    epoch: Optional[_Epoch] = None
    epoch_seq: int = 0
    round_seq: int = 0
    messages_total: int = 0
    bytes_total: int = 0
    correct_perturbed: int = 0
    correct_baseline: int = 0
    scored: int = 0
    records: int = 0
    last_readapt_window: int = -(10**9)
    events: List[ReadaptationEvent] = field(default_factory=list)
    window_stats: List[StreamWindowStats] = field(default_factory=list)
    master_rng: Optional[Dict[str, Any]] = None
    adaptors: List[Tuple[int, int, SpaceAdaptor]] = field(default_factory=list)
    detector_reference: Optional[np.ndarray] = None
    miner: Any = None
    baseline: Any = None
    ingest: Optional[IngestState] = None
    data_plane: Optional[DataPlaneState] = None


# ----------------------------------------------------------------------
# the session driver
# ----------------------------------------------------------------------
def run_stream_session(
    source: StreamSource,
    config: Optional[StreamConfig] = None,
    checkpointer: Optional[Checkpointer] = None,
    resume_from: Optional[str] = None,
) -> StreamSessionResult:
    """Mine a stream privately, re-adapting the space when the data drifts.

    A thin wrapper over the serving layer: the arguments are lifted into a
    :class:`repro.serve.SessionSpec` (under the seed-preserving
    ``"default"`` tenant) and executed inline — bit-identical to the
    pre-serving API for any fixed seed.

    Parameters
    ----------
    source:
        The record stream (see :func:`repro.streaming.sources.make_stream`).
    config:
        Streaming knobs; defaults to :class:`StreamConfig()`.
    checkpointer:
        Optional :class:`repro.checkpoint.Checkpointer`; the session saves
        durable checkpoints at its round boundaries (and honors eviction
        requests by raising :class:`repro.checkpoint.SessionEvicted`).
    resume_from:
        Path of a checkpoint file to restore before ingesting; the session
        replays from that boundary and its result is bit-identical to
        never having stopped.
    """
    # Imported here: repro.serve sits above this module in the layering.
    from ..serve.engine import execute_spec
    from ..serve.spec import SessionSpec

    config = config if config is not None else StreamConfig()
    spec = SessionSpec.from_stream(source, config)
    return execute_spec(
        spec, source=source, checkpointer=checkpointer, resume_from=resume_from
    )


def _execute_stream_session(
    source: StreamSource,
    config: StreamConfig,
    backend: Optional[ShardBackend] = None,
    checkpointer: Optional[Checkpointer] = None,
    resume_from: Optional[str] = None,
) -> StreamSessionResult:
    """The stream session internals (see :func:`run_stream_session`).

    ``backend`` optionally points the per-round shard fan-out at an
    externally owned worker pool (the serving engine's shared one); the
    choice cannot affect results because task content and merge order
    never depend on physical placement.
    """
    return _StreamRun(source, config, backend, checkpointer, resume_from).run()


class _StreamRun:
    """One stream session's driver: components, pipeline stages, state.

    Set-up builds the components and adopts a fresh :class:`_RunState` or
    a checkpoint's, so no stage knows whether the session was interrupted;
    :meth:`run` feeds the source's sealed rounds through the stages.
    """

    def __init__(
        self,
        source: StreamSource,
        config: StreamConfig,
        backend: Optional[ShardBackend] = None,
        checkpointer: Optional[Checkpointer] = None,
        resume_from: Optional[str] = None,
    ) -> None:
        self.source = source
        self.config = config
        self.checkpointer = checkpointer
        master = self.master = np.random.default_rng(config.seed)
        params = dict(config.classifier_params)
        miner_seed = int(master.integers(2**32))
        self.miner = make_online_classifier(config.classifier, seed=miner_seed, **params)
        self.baseline = make_online_classifier(
            config.classifier, seed=miner_seed, **params
        )
        # Noise is keyed by (root, window, party) rather than drawn from shared
        # sequential streams, so realizations are independent of sharding.
        self.noise_root = int(master.integers(2**32))
        self.plan = ShardPlan(
            config.shards,
            config.shard_plan,
            n_parties=config.k,
            salt=abs(int(config.seed)),
        )
        self.providers = [config.provider_name(i) for i in range(config.k)]
        self.data_plane = DataPlane(
            self.plan, self.providers, seed=int(master.integers(2**32))
        )
        self.detector = make_detector(config.detector, **dict(config.detector_params))
        self.adaptor_cache = AdaptorCache(maxsize=max(4 * config.k, 16))

        # Telemetry: counters are cheap and live whenever a bundle is present;
        # spans additionally require the tracer to be enabled.  Every call
        # site below guards on ``traced`` (or a ``None`` metric handle) so the
        # telemetry-absent hot path does no clock reads, no dict building, and
        # no formatting.
        tel = self.tel = config.telemetry
        self.tracer = tel.tracer if tel is not None else NULL_TRACER
        self.traced = self.tracer.enabled
        self.m_rounds = self.m_records = self.m_windows = self.m_negotiation = None
        if tel is not None:
            counter = tel.metrics.counter
            self.m_rounds = counter(
                "repro_stream_rounds_total", "Rounds merged by stream drivers."
            )
            self.m_records = counter(
                "repro_stream_records_total", "Records ingested by stream sessions."
            )
            self.m_windows = counter(
                "repro_stream_windows_total", "Windows merged into session stats."
            )
            self.m_negotiation = tel.metrics.histogram(
                "repro_stream_negotiation_seconds",
                "Wall-clock seconds per space negotiation.",
            )

        # The push-based ingestion surface: provider gates feed per-shard
        # window buffers and the watermark seals windows in index order.
        self.plane = IngestPlane(
            self.plan,
            window_kind=config.window_kind,
            window_size=config.window_size,
            window_step=config.window_step,
            providers=self.providers,
            watermark_delay=config.watermark_delay,
            late_policy=config.late_policy,
            telemetry=tel,
        )
        self.trust_by_window: Dict[int, List[TrustChange]] = {}
        for change in config.trust_changes:
            if not 0 <= change.party < config.k:
                raise ValueError(
                    f"trust change names party {change.party}, k={config.k}"
                )
            self.trust_by_window.setdefault(change.window, []).append(change)

        if resume_from is None:
            self.state = _RunState(
                trust={party: 1.0 for party in range(config.k)},
                normalizer=make_normalizer(config.normalizer),
                shard_normalizers=[
                    make_normalizer(config.normalizer) for _ in range(config.shards)
                ],
            )
        else:
            self.state = self._restore(resume_from)

        # The (double-buffered) round pipeline: ``inflight`` has its
        # transforms dispatched and awaits settling; ``scoring`` is settled
        # and awaits its prediction merge.  At steady state the pool holds
        # round N+1's transforms *and* round N's predictions while the
        # driver ingests records and runs round N+2's control plane — the
        # overlap that hides driver latency.  Gathering always happens in
        # strict round order, so merge order, the normalizer merge algebra,
        # noise keying, and re-negotiation points are untouched and results
        # stay bit-identical to serial dispatch.
        self.live_rounds: List[_Round] = []
        self.inflight: Optional[_Round] = None
        self.scoring: Optional[_Round] = None
        self.pool = ShardPool(
            self.plan, config.shard_backend if backend is None else backend
        )
        # Pipelined rounds: on by default whenever the executing backend can
        # actually overlap dispatches with driver work (thread/process pools,
        # including a serving engine's shared metered pool); ``overlap=False``
        # forces serial dispatch, and an inline/serial backend ignores the
        # flag because its dispatches complete at submit time anyway.
        self.overlap = self.pool.supports_overlap and config.overlap is not False

    # ------------------------------------------------------------------
    # durability
    # ------------------------------------------------------------------
    def _restore(self, path: str) -> _RunState:
        """Load ``path``'s run state and restore every component from it.

        A checkpoint of another format, configuration or source, or state
        that does not fit this session, raises a :class:`CheckpointError`
        naming the part — before any record is ingested.
        """
        config, dimension = self.config, self.source.dimension
        ckpt = load_checkpoint(path)
        saved_format = ckpt.payload.get("format")
        if saved_format != STREAM_CHECKPOINT_FORMAT:
            raise CheckpointError(
                f"checkpoint format {saved_format!r} is not a stream "
                f"session checkpoint"
            )
        # ``telemetry`` is compare=False: a runtime attachment, never part
        # of the workload.
        if ckpt.config != config:
            raise CheckpointError(
                "checkpoint was taken under a different configuration; "
                f"saved {ckpt.config!r}, resuming run has {config!r}"
            )
        saved_source, current_source = ckpt.source, _source_mapping(self.source)
        mismatched = sorted(
            name
            for name in current_source
            if name in saved_source and saved_source[name] != current_source[name]
        )
        if mismatched:
            raise CheckpointError(
                "checkpoint was taken over a different stream source "
                f"(mismatched: {', '.join(mismatched)})"
            )
        state = ckpt.state
        if not isinstance(state, _RunState):
            raise CheckpointError(
                f"checkpoint state is a {type(state).__name__}, not a stream "
                f"run state"
            )
        span = (
            self.tracer.span("restore", parent=self.tel.parent, path=path)
            if self.traced
            else None
        )
        kind = type(make_normalizer(config.normalizer))
        normalizers = [state.normalizer, *state.shard_normalizers]
        if len(normalizers) != config.shards + 1 or any(
            type(norm) is not kind for norm in normalizers
        ):
            raise CheckpointError(
                f"checkpoint normalizer states do not fit {config.shards} "
                f"shards of {config.normalizer} normalizers"
            )
        reference = state.detector_reference
        if reference is not None:
            if np.shape(reference)[1:] != (dimension,):
                raise CheckpointError(
                    f"checkpoint drift reference does not have {dimension} "
                    f"features"
                )
            self.detector.rebase(reference)
        self.miner.restore(state.miner, dimension)
        self.baseline.restore(state.baseline, dimension)
        self.plane.restore(state.ingest, dimension)
        self.data_plane.restore(state.data_plane)
        self.master.bit_generator.state = state.master_rng
        for target_id, party_id, adaptor in state.adaptors:
            self.adaptor_cache.put(target_id, party_id, adaptor)
        if self.tel is not None:
            self.tel.metrics.counter(
                "repro_checkpoints_total",
                "Checkpoint operations by outcome.",
                outcome="restored",
            ).inc()
        if span is not None:
            span.end(windows=len(state.window_stats), records=state.records)
        _LOG.info(
            "restored session from %s: %d windows, %d records",
            path, len(state.window_stats), state.records,
        )
        return state

    def checkpoint(self) -> Dict[str, Any]:
        """The checkpoint payload: identity, progress and the run state.

        Only valid at a round boundary after :meth:`drain` — with rounds
        in flight, part of the state would still be speculative.
        """
        state = self.state
        state.master_rng = self.master.bit_generator.state
        state.adaptors = self.adaptor_cache.snapshot()
        state.detector_reference = self.detector.reference
        state.miner = self.miner.snapshot()
        state.baseline = self.baseline.snapshot()
        state.ingest = self.plane.snapshot()
        state.data_plane = self.data_plane.snapshot()
        return {
            "format": STREAM_CHECKPOINT_FORMAT,
            "config": self.config,
            "source": _source_mapping(self.source),
            "progress": {
                "records": state.records,
                "windows": len(state.window_stats),
                "epochs": state.epoch_seq,
            },
            "state": state,
        }

    # ------------------------------------------------------------------
    # space negotiation
    # ------------------------------------------------------------------
    def negotiate(
        self,
        reason: str,
        window_index: int,
        statistic: float,
        X_normalized: Optional[np.ndarray],
    ) -> _Epoch:
        """Negotiate a new space over a fresh simnet network.

        The coordinator draws the target and exchange plan and collects
        every provider's adaptor; the adaptors are cached under the new
        epoch and the event (traffic, latency, guarantee) is recorded.
        """
        config, state, master = self.config, self.state, self.master
        span = (
            self.tracer.span(
                "renegotiate", parent=self.tel.parent, reason=reason,
                window=window_index,
            )
            if self.traced
            else None
        )
        began = time.perf_counter()
        levels = [config.noise_sigma * (2.0 - state.trust[p]) for p in range(config.k)]
        dimension = self.source.dimension
        network = Network(seed=int(master.integers(2**32)))
        names = self.providers
        providers = [
            _NegotiationProvider(
                names[index], network, dimension, float(levels[index]),
                coordinator_name=names[-1], seed=int(master.integers(2**32)),
            )
            for index in range(config.k - 1)
        ]
        coordinator = _NegotiationCoordinator(
            names[-1], network, dimension, float(levels[-1]), k=config.k,
            provider_names=names, seed=int(master.integers(2**32)),
        )
        providers.append(coordinator)
        network.simulator.schedule(0.0, coordinator.start)
        network.run()
        if coordinator.adaptors_received != config.k:
            raise RuntimeError(
                f"negotiation incomplete: {coordinator.adaptors_received}/"
                f"{config.k} adaptors"
            )
        latency = time.perf_counter() - began
        n_msgs, n_bytes = network.messages_sent, network.bytes_sent
        state.messages_total += n_msgs
        state.bytes_total += n_bytes
        state.epoch_seq += 1
        epoch = _Epoch(
            epoch_id=state.epoch_seq,
            target=coordinator.target,
            plan=coordinator.plan,
            perturbations=[p.perturbation for p in providers],
            sigmas=tuple(levels),
        )
        # The providers already derived their adaptors during the exchange;
        # cache them under the new epoch so every window (and shard task)
        # of the epoch reuses them instead of re-deriving.
        for party, provider in enumerate(providers):
            self.adaptor_cache.put(epoch.epoch_id, party, provider.adaptor)
        guarantee = None
        if config.compute_privacy and X_normalized is not None:
            guarantee = _epoch_guarantee(
                epoch,
                X_normalized,
                levels,
                np.random.default_rng(int(master.integers(2**32))),
            )
        state.events.append(
            ReadaptationEvent(
                window=window_index,
                reason=reason,
                statistic=statistic,
                latency=latency,
                messages=n_msgs,
                bytes=n_bytes,
                virtual_duration=network.simulator.now,
                privacy_guarantee=guarantee,
            )
        )
        if span is not None:
            span.end(
                epoch=state.epoch_seq, messages=n_msgs, bytes=n_bytes,
                latency=latency,
            )
        if self.m_negotiation is not None:
            self.m_negotiation.observe(latency)
            self.tel.metrics.counter(
                "repro_stream_renegotiations_total",
                "Space negotiations by trigger.",
                reason=reason,
            ).inc()
        _LOG.info(
            "negotiated space (%s) at window %d: %.1f ms, %d msgs / %d bytes",
            reason, window_index, latency * 1000.0, n_msgs, n_bytes,
        )
        return epoch

    def _adaptor_stack(self, epoch: _Epoch) -> np.ndarray:
        """Per-party ``R_t R_i^{-1}`` maps, stacked ``(k, d, d)``, via cache."""
        return np.stack(
            [
                self.adaptor_cache.get_or_compute(
                    epoch.epoch_id,
                    party,
                    lambda party=party: compute_adaptor(
                        epoch.perturbations[party], epoch.target
                    ),
                ).rotation_adaptor
                for party in range(self.config.k)
            ]
        )

    # ------------------------------------------------------------------
    # round stages
    # ------------------------------------------------------------------
    # Rounds move through four stages.  Control runs strictly in window
    # order on the driver; dispatch/settle/merge run strictly in *round*
    # order.  The pipelined driver interleaves stages of different rounds
    # (control N+1 before settle N), which is safe because the stages
    # touch disjoint session state: control owns the normalizers, drift
    # detector, trust levels, epoch, and master RNG; settle owns the data
    # plane and the two online models; merge owns the accuracy counters
    # and per-window stats.  Every stage's own sequence is identical to
    # unpipelined execution, so results are bit-identical.
    def control(self, round_windows: List[Window]) -> _Round:
        """Stage 1: per-window control-plane decisions, in window order."""
        config, state, detector = self.config, self.state, self.detector
        round_id = state.round_seq
        state.round_seq += 1
        if self.traced:
            round_span = self.tracer.span(
                "round", parent=self.tel.parent, round=round_id
            )
            stage = self.tracer.span("control", parent=round_span, round=round_id)
        else:
            round_span = stage = None

        work: List[_WindowWork] = []
        stale_epoch_ids: List[int] = []
        for window in round_windows:
            X_fresh = window.X[-window.fresh :]
            y_fresh = window.y[-window.fresh :]

            # Normalizer state flows through the merge algebra: the window's
            # moment contribution is folded into the owner shard's running
            # state and (in window order) into the global one, whose frozen
            # snapshot the transform task will use.
            contribution = make_normalizer(config.normalizer).update(X_fresh)
            shard = self.plan.shard_of_window(window.index)
            state.shard_normalizers[shard].merge(contribution)
            state.normalizer.merge(contribution)
            frozen = state.normalizer.to_batch()
            if config.normalizer == "minmax":
                norm_a, norm_b = frozen.minimums, frozen.maximums
            else:
                norm_a, norm_b = frozen.means, frozen.stds

            def privacy_view() -> Optional[np.ndarray]:
                if not config.compute_privacy:
                    return None
                return frozen.transform(X_fresh)

            migration: Optional[SpaceAdaptor] = None
            readapted = False
            report = DriftReport(fired=False, statistic=0.0, threshold=np.inf)
            # An ``upsert`` correction (``revision >= 1``) had its control
            # decisions (trust schedule, drift check, negotiation) taken when
            # revision 0 sealed; its late rows just flow through the current
            # epoch's transform and the miners.
            regular = window.revision == 0
            changes = self.trust_by_window.get(window.index, ()) if regular else ()
            for change in changes:
                state.trust[change.party] = change.trust
            # The detector's reference needs >= 2 rows; under skew a sealed
            # window can be degenerate (most of its rows arrived late and fell
            # to the late policy).  Skip the drift check for those — in-order
            # windows always carry the full window_size rows.
            checkable = regular and window.n_rows >= 2
            if state.epoch is None:
                # A trust change scheduled at the first window is folded into
                # the initial negotiation's noise levels.  Heavy skew can delay
                # every fresh row of the first windows past the watermark, so a
                # correction may be the first emission the driver sees; the
                # drift reference then waits for a regular window.
                state.epoch = self.negotiate(
                    "initial", window.index, 0.0, privacy_view()
                )
                state.last_readapt_window = window.index
                if checkable:
                    detector.observe(window.X)  # installs the reference
            elif regular:
                old_epoch = state.epoch
                if changes:
                    state.epoch = self.negotiate(
                        "trust", window.index, 0.0, privacy_view()
                    )
                    readapted = True
                if checkable:
                    report = detector.observe(window.X)
                cooled = (
                    window.index - state.last_readapt_window >= config.readapt_cooldown
                )
                if report.fired and cooled and not readapted:
                    state.epoch = self.negotiate(
                        "drift", window.index, report.statistic, privacy_view()
                    )
                    readapted = True
                if readapted:
                    # The online model migrates to the new space, and the old
                    # epoch's cached adaptors are invalidated at dispatch.
                    migration = compute_adaptor(
                        old_epoch.target, state.epoch.target
                    )
                    stale_epoch_ids.append(old_epoch.epoch_id)
                    state.last_readapt_window = window.index
                    if report.fired:
                        # Either re-negotiation makes this window the new reference.
                        detector.rebase(window.X)
            work.append(
                _WindowWork(
                    window=window,
                    X_fresh=X_fresh,
                    y_fresh=y_fresh,
                    norm_a=norm_a,
                    norm_b=norm_b,
                    epoch=state.epoch,
                    migration=migration,
                    report=report,
                    readapted=readapted,
                )
            )
        if stage is not None:
            stage.end(windows=len(work), renegotiations=len(stale_epoch_ids))
        return _Round(
            work=work,
            stale_epoch_ids=stale_epoch_ids,
            round_id=round_id,
            span=round_span,
        )

    def dispatch(self, current: _Round) -> None:
        """Stage 2: fan the round's transforms out across the pool."""
        stage = (
            self.tracer.span("dispatch", parent=current.span, round=current.round_id)
            if self.traced
            else None
        )
        work = current.work
        round_epochs = {item.epoch.epoch_id: item.epoch for item in work}
        stacks = {
            epoch_id: self._adaptor_stack(round_epoch)
            for epoch_id, round_epoch in round_epochs.items()
        }
        # Re-negotiation invalidation is deferred to here: windows earlier
        # in the round still belong to the replaced epoch, and their stack
        # must come from the cache, not a re-derivation.  The pipelined
        # driver drains in-flight rounds *before* this point (the drain
        # rule), so no dispatched transform ever references a stack built
        # against an epoch invalidated here.
        for epoch_id in current.stale_epoch_ids:
            self.adaptor_cache.invalidate(target_id=epoch_id)
        tasks = [
            {
                "X": item.X_fresh,
                "norm_kind": self.config.normalizer,
                "norm_a": item.norm_a,
                "norm_b": item.norm_b,
                "rotation": item.epoch.target.rotation,
                "translation": item.epoch.target.translation,
                "adaptor_rotations": stacks[item.epoch.epoch_id],
                "sigmas": np.asarray(item.epoch.sigmas),
                "noise_root": self.noise_root,
                "window_index": item.window.index,
                "revision": item.window.revision,
            }
            for item in work
        ]
        current.transforms = self.pool.submit_map(transform_window, tasks)
        self.live_rounds.append(current)
        if stage is not None:
            stage.end(tasks=len(tasks))

    def settle(self, current: _Round) -> None:
        """Stages 2b/3: gather transforms, charge the network, update models."""
        stage = (
            self.tracer.span("settle", parent=current.span, round=current.round_id)
            if self.traced
            else None
        )
        k, miner, baseline = self.config.k, self.miner, self.baseline
        work = current.work
        assert current.transforms is not None
        for item, result in zip(work, current.transforms.gather()):
            item.X_norm = result["X_norm"]
            item.X_target = result["X_target"]

        # ----- stage 2b: charge the data movement to the network ---------
        for item in work:
            parties = np.arange(item.X_fresh.shape[0]) % k
            slices = [item.X_target[parties == party] for party in range(k)]
            self.data_plane.route_window(item.window.index, slices, item.X_target)
        self.data_plane.flush()

        # ----- stage 3: sequential model bookkeeping + snapshots ---------
        predict_tasks = []
        for item in work:
            if item.migration is not None:
                miner.adapt_space(item.migration)
            predict_tasks.append(
                {"state": miner.export_predict_state(), "X": item.X_target}
            )
            predict_tasks.append(
                {"state": baseline.export_predict_state(), "X": item.X_norm}
            )
            miner.partial_fit(item.X_target, item.y_fresh)
            baseline.partial_fit(item.X_norm, item.y_fresh)

        # ----- stage 4: prequential predictions fan out ------------------
        current.predictions = self.pool.submit_map(predict_window, predict_tasks)
        if stage is not None:
            stage.end(windows=len(work))

    def merge(self, current: _Round) -> None:
        """Stage 5: gather predictions and merge stats, in window order."""
        state = self.state
        stage = (
            self.tracer.span("merge", parent=current.span, round=current.round_id)
            if self.traced
            else None
        )
        assert current.predictions is not None
        predictions = current.predictions.gather()
        self.live_rounds.remove(current)
        for index, item in enumerate(current.work):
            acc_perturbed = accuracy_score(item.y_fresh, predictions[2 * index])
            acc_baseline = accuracy_score(item.y_fresh, predictions[2 * index + 1])
            state.correct_perturbed += int(round(acc_perturbed * item.window.fresh))
            state.correct_baseline += int(round(acc_baseline * item.window.fresh))
            state.scored += item.window.fresh
            state.window_stats.append(
                StreamWindowStats(
                    index=item.window.index,
                    n_records=item.window.fresh,
                    accuracy_perturbed=acc_perturbed,
                    accuracy_baseline=acc_baseline,
                    drift_statistic=item.report.statistic,
                    drift_kind=item.report.kind,
                    readapted=item.readapted,
                    revision=item.window.revision,
                )
            )
        if stage is not None:
            stage.end(windows=len(current.work))
        if current.span is not None:
            current.span.end(windows=len(current.work))
        if self.m_rounds is not None:
            self.m_rounds.inc()
            self.m_windows.inc(len(current.work))

    # ------------------------------------------------------------------
    # the pipeline
    # ------------------------------------------------------------------
    def drain(self) -> None:
        """Finish every in-flight round, oldest first."""
        if self.scoring is None and self.inflight is None:
            return
        span = (
            self.tracer.span("drain", parent=self.tel.parent) if self.traced else None
        )
        drained = 0
        if self.scoring is not None:
            self.merge(self.scoring)
            self.scoring = None
            drained += 1
        if self.inflight is not None:
            self.settle(self.inflight)
            self.merge(self.inflight)
            self.inflight = None
            drained += 1
        if span is not None:
            span.end(rounds=drained)

    def feed(self, round_windows: List[Window]) -> None:
        """Push one sealed round of windows into the pipeline."""
        current = self.control(round_windows)
        if current.stale_epoch_ids:
            # The re-negotiation drain rule: a round that replaced the
            # epoch finishes everything still in flight *before* its
            # dispatch invalidates the stale epoch's cached adaptors —
            # no transform ever executes against a replaced space's
            # speculative state.
            self.drain()
        self.dispatch(current)
        if not self.overlap:
            self.settle(current)
            self.merge(current)
            return
        if self.scoring is not None:
            self.merge(self.scoring)
            self.scoring = None
        if self.inflight is not None:
            self.settle(self.inflight)
            self.scoring = self.inflight
        self.inflight = current

    def abort(self) -> None:
        """Cancel whatever is still in flight (no-op after a clean drain)."""
        for stale in list(self.live_rounds):
            for handle in (stale.transforms, stale.predictions):
                if handle is not None:
                    handle.cancel()
            self.live_rounds.remove(stale)

    def run(self) -> StreamSessionResult:
        """Ingest the source to its end, round by round, and report."""
        config, state, plane, checkpointer = (
            self.config, self.state, self.plane, self.checkpointer
        )
        start = time.perf_counter()
        try:
            pending: List[Window] = []
            # Providers push records through their gates; the driver no
            # longer pulls into a global buffer.  ``skew`` simulates an
            # out-of-order transport, deterministically under the seed.
            source = self.source
            if hasattr(source, "chunks"):
                arrivals = skewed_chunks(source.chunks(), config.skew, seed=config.seed)
            else:
                # Any iterable of records is a source; it travels packed.
                arrivals = chunked(
                    skewed(source, config.skew, seed=config.seed)
                    if config.skew
                    else source
                )
            # Resuming: the source (and the skew shuffler) regenerate the
            # same arrival order from their seeds, so skipping the already
            # ingested prefix replays the stream from the exact record the
            # checkpoint stopped at.
            skip = state.records
            # Checkpoint progress is measured in windows *fed* to the
            # pipeline (``window_stats`` lags while rounds are in flight);
            # after the pre-checkpoint drain the two counts coincide.
            windows_fed = len(state.window_stats)
            for chunk in arrivals:
                if skip >= len(chunk):
                    skip -= len(chunk)
                    continue
                chunk, skip = chunk[skip:], 0
                while len(chunk):
                    # The limit stops ingestion on the record a per-record
                    # driver would have fed a round after.
                    sealed, used = plane.push_chunk(
                        chunk, config.shards - len(pending)
                    )
                    state.records += used
                    chunk = chunk[used:]
                    pending.extend(sealed)
                    if len(pending) < config.shards:
                        continue
                    windows_fed += len(pending)
                    self.feed(pending)
                    pending = []
                    if checkpointer is not None and checkpointer.due(windows_fed):
                        # Draining first is what makes a checkpoint a clean
                        # round boundary; it only changes execution overlap,
                        # never merge order, so taking one cannot perturb
                        # the session fingerprint.
                        self.drain()
                        path = checkpointer.save(self.checkpoint())
                        if checkpointer.evict_requested:
                            raise SessionEvicted(
                                path, len(state.window_stats), state.records
                            )
            # The legacy driver never flushed its buffer, so a stream whose
            # length is not a multiple of the window size dropped the
            # partial remainder.  Keep that behavior (it is what the
            # pre-redesign fingerprints pin) — except rows *readmitted*
            # into the tail, which the readmit policy promises never to lose.
            pending.extend(plane.finish(emit_partial_tail=False))
            if pending:
                self.feed(pending)
            self.drain()
        finally:
            self.abort()
            self.pool.close()
        wall = time.perf_counter() - start
        if self.m_records is not None:
            self.m_records.inc(state.records)
        self._check_normalizer_merge()
        return StreamSessionResult(
            config=config,
            source_name=source.name,
            source_kind=source.kind,
            records_processed=state.records,
            windows=state.window_stats,
            events=state.events,
            accuracy_perturbed=(
                state.correct_perturbed / state.scored if state.scored else 0.0
            ),
            accuracy_baseline=(
                state.correct_baseline / state.scored if state.scored else 0.0
            ),
            wall_seconds=wall,
            messages_sent=state.messages_total,
            bytes_sent=state.bytes_total,
            data_messages_sent=self.data_plane.messages_sent,
            data_bytes_sent=self.data_plane.bytes_sent,
            shard_records=tuple(self.data_plane.shard_records),
            ingest=plane.stats(),
            provider_records=tuple(self.data_plane.provider_records),
            overlap=self.overlap,
        )

    def _check_normalizer_merge(self) -> None:
        """Invariant of the merge algebra.

        Folding the per-shard normalizer states together (fixed shard
        order) must reproduce the unsharded state — exactly for min/max
        bounds, to fp rounding for Welford moments (shard order vs window
        order merge).
        """
        normalizer = self.state.normalizer
        if not normalizer.n_seen:
            return
        merged = make_normalizer(self.config.normalizer)
        for shard_state in self.state.shard_normalizers:
            merged.merge(shard_state)
        consistent = merged.n_seen == normalizer.n_seen and (
            np.array_equal(merged.minimums, normalizer.minimums)
            and np.array_equal(merged.maximums, normalizer.maximums)
            if self.config.normalizer == "minmax"
            else np.allclose(merged.means, normalizer.means, rtol=1e-8, atol=1e-12)
        )
        if not consistent:
            raise RuntimeError(
                "per-shard normalizer states diverged from the unsharded state"
            )
