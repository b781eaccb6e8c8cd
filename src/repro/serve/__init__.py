"""Unified Session API and multi-session serving engine.

The paper frames the Space Adaptation Protocol as a *service* many data
providers join; this package is that service's front door:

* :mod:`~repro.serve.spec` — :class:`SessionSpec`, one declarative
  description unifying batch protocol runs and stream sessions (dataset
  or stream scenario, protocol knobs, classifier, shard policy, tenant),
  JSON-round-trippable for workload files;
* :mod:`~repro.serve.engine` — :func:`execute_spec` (the single
  execution path the legacy one-shot wrappers also use) and
  :class:`MiningService` / :data:`Engine`, the long-lived serving engine
  that runs many concurrent sessions on its driver threads, their shard
  tasks inline or on one shared process pool, with admission control (:class:`AdmissionError`), per-tenant
  namespaced seeds and budgets (:class:`TenantPolicy`), per-session
  lifecycle handles (:class:`SessionHandle`), and aggregate service
  statistics (:class:`ServiceStats`).

Determinism carries through from the sharding layer: a session executed
by the service is bit-identical to running the same spec alone through
:func:`repro.run_sap_session` / :func:`repro.run_stream_session`.
"""

from .engine import (
    AdmissionError,
    Engine,
    MiningService,
    PoolStats,
    ServiceStats,
    SessionHandle,
    TenantPolicy,
    TenantStats,
    execute_spec,
)
from .spec import SESSION_KINDS, SessionSpec

__all__ = [
    "SESSION_KINDS",
    "SessionSpec",
    "execute_spec",
    "MiningService",
    "Engine",
    "SessionHandle",
    "TenantPolicy",
    "TenantStats",
    "PoolStats",
    "ServiceStats",
    "AdmissionError",
]
