"""High-level façade: run one complete SAP collaboration end to end.

:func:`run_sap_session` wires the whole stack together — normalization,
partitioning, the simulated network, the three protocol roles, mining, and
the risk accounting — and returns a :class:`SAPSessionResult` with
everything the paper's figures need:

* perturbed-pipeline accuracy vs. the unperturbed baseline on the *same*
  train/test rows (Figures 5/6 deviations);
* the ``(forwarder, source)`` pairs of the run (identifiability audits);
* optional per-party privacy/risk profiles (satisfaction, eq. (1)/(2)).

Since the serving redesign, :func:`run_sap_session` is a thin wrapper: it
lifts its arguments into a :class:`repro.serve.SessionSpec` and executes
it through :func:`repro.serve.execute_spec`, the same path a
:class:`repro.serve.MiningService` drives many concurrent sessions
through.  The protocol internals live in :func:`_execute_sap_session`,
which optionally fans its shard work out to an externally owned (shared)
worker backend.  Results are bit-identical either way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

import numpy as np

from ..checkpoint.codec import register
from ..datasets.partition import PartitionScheme, partition
from ..datasets.schema import Dataset
from ..mining.metrics import accuracy_deviation, accuracy_score
from ..parties.config import SAPConfig, make_classifier
from ..parties.coordinator import Coordinator
from ..parties.miner import MinerResult, ServiceProvider
from ..parties.provider import DataProvider
from ..sharding.backends import ShardBackend, ShardFutures
from ..sharding.engine import ShardPool
from ..sharding.plan import ShardPlan
from ..sharding.worker import party_risk_task
from ..simnet.channel import Network
from .normalization import MinMaxNormalizer
from .risk import PartyRiskProfile

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (attacks -> core)
    from ..attacks.resilience import AttackSuite

__all__ = ["SAPSessionResult", "run_sap_session", "stratified_test_mask"]


@register
@dataclass
class SAPSessionResult:
    """Everything measured in one protocol run."""

    config: SAPConfig
    scheme: PartitionScheme
    accuracy_perturbed: float
    accuracy_standard: float
    miner_result: MinerResult
    forwarder_source_pairs: List[Tuple[str, str]]
    messages_sent: int
    bytes_sent: int
    virtual_duration: float
    risk_profiles: List[PartyRiskProfile] = field(default_factory=list)
    # the simnet observation ledger: a local debugging attachment, not
    # part of the outcome, so it never crosses a process boundary
    network: Optional[Network] = field(default=None, compare=False)

    @property
    def deviation(self) -> float:
        """Accuracy deviation in percentage points (Figures 5/6)."""
        return accuracy_deviation(self.accuracy_perturbed, self.accuracy_standard)

    def summary(self) -> str:
        """Multi-line run report."""
        lines = [
            f"scheme            : {self.scheme.value}",
            f"providers (k)     : {self.config.k}",
            f"classifier        : {self.config.classifier.name}",
            f"standard accuracy : {self.accuracy_standard:.4f}",
            f"SAP accuracy      : {self.accuracy_perturbed:.4f}",
            f"deviation         : {self.deviation:+.2f} points",
            f"messages / bytes  : {self.messages_sent} / {self.bytes_sent}",
            f"virtual duration  : {self.virtual_duration * 1000:.1f} ms",
        ]
        for profile in self.risk_profiles:
            lines.append(profile.summary())
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly view of the run (``repro session --json``)."""
        return {
            "kind": "batch",
            "scheme": self.scheme.value,
            "k": self.config.k,
            "classifier": self.config.classifier.name,
            "noise_sigma": self.config.noise_sigma,
            "seed": self.config.seed,
            "accuracy_perturbed": self.accuracy_perturbed,
            "accuracy_standard": self.accuracy_standard,
            "deviation": self.deviation,
            "messages_sent": self.messages_sent,
            "bytes_sent": self.bytes_sent,
            "virtual_duration": self.virtual_duration,
            "forwarder_source_pairs": [list(p) for p in self.forwarder_source_pairs],
            "risk_profiles": [
                {
                    "party": p.party,
                    "rho_local": p.rho_local,
                    "rho_global": p.rho_global,
                    "b": p.b,
                    "satisfaction": p.satisfaction,
                    "breach_risk": p.breach_risk,
                    "overall_risk": p.overall_risk,
                }
                for p in self.risk_profiles
            ],
        }


def stratified_test_mask(
    y: np.ndarray, test_fraction: float, rng: np.random.Generator
) -> np.ndarray:
    """Boolean holdout mask keeping every class on both sides when possible."""
    y = np.asarray(y)
    mask = np.zeros(len(y), dtype=bool)
    for label in np.unique(y):
        members = np.flatnonzero(y == label)
        members = members[rng.permutation(len(members))]
        n_test = int(round(len(members) * test_fraction))
        if len(members) >= 2:
            n_test = min(max(n_test, 1), len(members) - 1)
        else:
            n_test = 0
        mask[members[:n_test]] = True
    return mask


def run_sap_session(
    dataset: Dataset,
    config: SAPConfig,
    scheme: PartitionScheme | str = PartitionScheme.UNIFORM,
    compute_privacy: bool = False,
    privacy_suite: Optional["AttackSuite"] = None,
    keep_network: bool = False,
) -> SAPSessionResult:
    """Run the full protocol on one dataset and measure the outcome.

    A thin wrapper over the serving layer: the arguments are lifted into a
    :class:`repro.serve.SessionSpec` (under the seed-preserving
    ``"default"`` tenant) and executed inline — bit-identical to the
    pre-serving API for any fixed seed.

    Parameters
    ----------
    dataset:
        The pooled table (synthetic UCI stand-in).  It is min-max
        normalized here — modelling the providers' agreed common domain
        bounds — then partitioned into ``config.k`` local tables.
    config:
        Protocol knobs (k, noise, classifier, seeds).
    scheme:
        ``uniform`` or ``class`` partition distribution.
    compute_privacy:
        When true, also evaluate per-party privacy guarantees and risk
        profiles (slower: runs the attack suite and a small optimizer per
        party to estimate the bound ``b``).
    privacy_suite:
        Attack suite for the privacy evaluation; defaults to the fast
        suite.
    keep_network:
        Attach the network (with its observation ledger) to the result for
        information-flow inspection.
    """
    # Imported here: repro.serve sits above this module in the layering.
    from ..serve.engine import execute_spec
    from ..serve.spec import SessionSpec

    spec = SessionSpec.from_batch(
        dataset, config, scheme=scheme, compute_privacy=compute_privacy
    )
    return execute_spec(
        spec, dataset=dataset, privacy_suite=privacy_suite, keep_network=keep_network
    )


def _execute_sap_session(
    dataset: Dataset,
    config: SAPConfig,
    scheme: PartitionScheme | str = PartitionScheme.UNIFORM,
    compute_privacy: bool = False,
    privacy_suite: Optional["AttackSuite"] = None,
    keep_network: bool = False,
    backend: Optional[ShardBackend] = None,
) -> SAPSessionResult:
    """The batch protocol internals (see :func:`run_sap_session`).

    ``backend`` optionally points the privacy-profiling fan-out at an
    externally owned backend (a serving engine's metered one) instead
    of building a fresh pool from ``config.shard_backend``; the choice
    cannot affect results.
    """
    scheme = PartitionScheme(scheme) if isinstance(scheme, str) else scheme
    master = np.random.default_rng(config.seed)

    # Common normalization: the providers' agreed domain bounds.
    normalizer = MinMaxNormalizer().fit(dataset.X)
    normalized = Dataset(
        name=dataset.name,
        X=normalizer.transform(dataset.X),
        y=dataset.y,
        feature_names=dataset.feature_names,
    )

    parts = partition(
        normalized, config.k, scheme, rng=np.random.default_rng(master.integers(2**32))
    )
    local_datasets = [
        normalized.subset(part, name=f"{dataset.name}/party{i}")
        for i, part in enumerate(parts)
    ]
    split_rng = np.random.default_rng(master.integers(2**32))
    test_masks = [
        stratified_test_mask(local.y, config.test_fraction, split_rng)
        for local in local_datasets
    ]

    # --- build the distributed system -------------------------------------
    network = Network(seed=int(master.integers(2**32)))
    providers: List[DataProvider] = []
    for index in range(config.k - 1):
        providers.append(
            DataProvider(
                name=config.provider_name(index),
                network=network,
                dataset=local_datasets[index],
                test_mask=test_masks[index],
                config=config,
                seed=int(master.integers(2**32)),
            )
        )
    coordinator = Coordinator(
        name=config.provider_name(config.k - 1),
        network=network,
        dataset=local_datasets[config.k - 1],
        test_mask=test_masks[config.k - 1],
        config=config,
        seed=int(master.integers(2**32)),
    )
    providers.append(coordinator)
    miner = ServiceProvider(
        name=config.miner_name,
        network=network,
        config=config,
        seed=int(master.integers(2**32)),
    )

    network.simulator.schedule(0.0, coordinator.start)
    network.run()

    if miner.result is None:
        raise RuntimeError("the protocol run did not complete")

    # --- optional privacy/risk profiles: dispatch early --------------------
    # The per-party attack-suite work is independent of the baseline fit
    # below, so it is submitted (not mapped) here and gathered after the
    # classifier exchange — the fan-out overlaps the blocking fit.  Seeds
    # are still drawn from ``master`` in provider order, so results are
    # bit-identical to the former blocking ``map``.
    profile_pool: Optional[ShardPool] = None
    profile_futures = None
    if compute_privacy:
        # ``privacy_suite=None`` is resolved to the fast suite inside the
        # shard workers, so the default never crosses a pickle boundary.
        profile_pool, profile_futures = _dispatch_privacy_profiles(
            providers, coordinator, config, privacy_suite, master, backend
        )

    try:
        # --- unperturbed baseline on the identical rows --------------------
        X_blocks = [local.X for local in local_datasets]
        y_blocks = [local.y for local in local_datasets]
        mask_blocks = list(test_masks)
        X_all = np.vstack(X_blocks)
        y_all = np.concatenate(y_blocks)
        mask_all = np.concatenate(mask_blocks)
        baseline_model = make_classifier(config.classifier)
        baseline_model.fit(X_all[~mask_all], y_all[~mask_all])
        accuracy_standard = accuracy_score(
            y_all[mask_all], baseline_model.predict(X_all[mask_all])
        )

        # --- identifiability bookkeeping -----------------------------------
        assert coordinator.plan is not None
        pairs: List[Tuple[str, str]] = []
        for source in range(config.k):
            forwarder = coordinator.plan.receiver_of_source(source)
            pairs.append(
                (config.provider_name(forwarder), config.provider_name(source))
            )

        # --- gather the overlapped privacy/risk profiles -------------------
        profiles: List[PartyRiskProfile] = []
        if profile_futures is not None:
            profiles = profile_futures.gather()
    finally:
        if profile_pool is not None:
            profile_pool.close()

    return SAPSessionResult(
        config=config,
        scheme=scheme,
        accuracy_perturbed=miner.result.accuracy,
        accuracy_standard=accuracy_standard,
        miner_result=miner.result,
        forwarder_source_pairs=pairs,
        messages_sent=network.messages_sent,
        bytes_sent=network.bytes_sent,
        virtual_duration=network.simulator.now,
        risk_profiles=profiles,
        network=network if keep_network else None,
    )


def _dispatch_privacy_profiles(
    providers: List[DataProvider],
    coordinator: Coordinator,
    config: SAPConfig,
    suite: Optional["AttackSuite"],
    master: np.random.Generator,
    backend: Optional[ShardBackend] = None,
) -> Tuple[ShardPool, "ShardFutures"]:
    """Fan the per-party risk estimation out without waiting for it.

    The per-party work — two attack-suite guarantees and a small optimizer
    run each — is independent across providers, so it is *submitted* to a
    :class:`~repro.sharding.engine.ShardPool` (``config.shards`` workers on
    ``config.shard_backend``) and runs while the caller fits the
    unperturbed baseline classifier.  Returns ``(pool, futures)``; the
    caller gathers the futures (ordered, one profile per provider) and
    closes the pool.  Seeds are pre-drawn from ``master`` in provider
    order and results are merged in the same order, so every backend —
    and the overlap itself — returns exactly the serial profiles.
    ``suite=None`` lets each worker build the default fast suite locally
    (nothing to pickle); a custom suite is shipped to the workers and must
    be picklable when the process backend is selected.
    """
    assert coordinator.target is not None
    tasks = []
    for provider in providers:
        tasks.append(
            {
                "party": provider.name,
                "X_cols": provider.dataset.columns(),
                "perturbation": provider.perturbation,
                # The miner holds the provider's table in the target space
                # with the inherited noise, so the effective global
                # perturbation is the target's rotation/translation at the
                # provider's noise level (applied in the worker).
                "target": coordinator.target,
                "noise_sigma": config.noise_sigma,
                "k": config.k,
                "optimizer_rounds": config.optimizer_rounds,
                "optimizer_local_steps": config.optimizer_local_steps,
                "rho_local_seed": int(master.integers(2**32)),
                "rho_global_seed": int(master.integers(2**32)),
                "optimizer_seed": int(master.integers(2**32)),
                "suite": suite,
            }
        )
    pool = ShardPool(
        ShardPlan(config.shards, n_parties=config.k),
        config.shard_backend if backend is None else backend,
    )
    try:
        futures = pool.submit_map(party_risk_task, tasks)
    except BaseException:
        pool.close()
        raise
    return pool, futures
