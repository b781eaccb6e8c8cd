"""Online privacy-preserving mining over data streams.

The batch pipeline (:mod:`repro.core.session`) perturbs once and mines
once.  This subsystem turns it into a continuously running one:

* :mod:`~repro.streaming.windows` — tumbling/sliding window buffers;
* :mod:`~repro.streaming.normalizer` — incremental normalizers that
  converge to their batch counterparts;
* :mod:`~repro.streaming.drift` — mean/variance and KS drift detectors
  that trigger space re-adaptation;
* :mod:`~repro.streaming.online_miner` — reservoir KNN and SGD linear SVM
  that survive a space migration;
* :mod:`~repro.streaming.sources` — synthetic stationary/drifting/bursty
  stream generators over the registry datasets, plus the bounded-skew
  out-of-order transport simulator :func:`~repro.streaming.sources.skewed`;
* :mod:`~repro.streaming.ingest` — the event-time ingestion plane:
  per-provider gates pushing records into per-shard window buffers,
  watermark-based window sealing, and drop/readmit/upsert late policies;
* :mod:`~repro.streaming.stream_session` — the online session driver,
  re-negotiating the perturbed space over :mod:`repro.simnet` whenever
  drift fires or a party's trust level changes.
"""

from .drift import (
    DETECTOR_KINDS,
    DriftDetector,
    DriftReport,
    KSDetector,
    MeanVarianceDetector,
    make_detector,
)
from .normalizer import (
    NORMALIZER_KINDS,
    RunningMinMaxNormalizer,
    RunningZScoreNormalizer,
    make_normalizer,
)
from .ingest import (
    LATE_POLICIES,
    IngestPlane,
    IngestStats,
    ProviderGate,
    ShardIngest,
)
from .online_miner import (
    ONLINE_CLASSIFIERS,
    OnlineClassifier,
    OnlineLinearSVM,
    ReservoirKNN,
    make_online_classifier,
)
from .sources import (
    STREAM_KINDS,
    RecordChunk,
    StreamRecord,
    StreamSource,
    chunked,
    make_stream,
    skewed,
    skewed_chunks,
)
from .stream_session import (
    ReadaptationEvent,
    StreamConfig,
    StreamSessionResult,
    StreamWindowStats,
    TrustChange,
    run_stream_session,
)
from .windows import (
    WINDOW_KINDS,
    EventWindowAssigner,
    SlidingWindow,
    TumblingWindow,
    Window,
    WindowBuffer,
    make_window_buffer,
)

__all__ = [
    # windows
    "Window",
    "WindowBuffer",
    "TumblingWindow",
    "SlidingWindow",
    "EventWindowAssigner",
    "make_window_buffer",
    "WINDOW_KINDS",
    # event-time ingestion
    "IngestPlane",
    "IngestStats",
    "ProviderGate",
    "ShardIngest",
    "LATE_POLICIES",
    # normalizers
    "RunningMinMaxNormalizer",
    "RunningZScoreNormalizer",
    "make_normalizer",
    "NORMALIZER_KINDS",
    # drift
    "DriftReport",
    "DriftDetector",
    "MeanVarianceDetector",
    "KSDetector",
    "make_detector",
    "DETECTOR_KINDS",
    # online miners
    "OnlineClassifier",
    "ReservoirKNN",
    "OnlineLinearSVM",
    "make_online_classifier",
    "ONLINE_CLASSIFIERS",
    # sources
    "StreamRecord",
    "RecordChunk",
    "StreamSource",
    "STREAM_KINDS",
    "make_stream",
    "chunked",
    "skewed",
    "skewed_chunks",
    # session
    "TrustChange",
    "StreamConfig",
    "ReadaptationEvent",
    "StreamWindowStats",
    "StreamSessionResult",
    "run_stream_session",
]
