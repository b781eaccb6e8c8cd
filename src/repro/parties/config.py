"""Configuration shared by all SAP roles and the session driver."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from ..checkpoint.codec import register
from ..checks import require_bool, require_choice, require_int, require_real
from ..mining.base import Classifier
from ..mining.bayes import GaussianNaiveBayes
from ..mining.knn import KNNClassifier
from ..mining.lda import LinearDiscriminantAnalysis
from ..mining.linear import AveragedPerceptron, LinearSVMClassifier
from ..mining.multiclass import OneVsOneClassifier
from ..mining.svm import SVMClassifier
from ..mining.tree import DecisionTreeClassifier

__all__ = ["CLASSIFIER_NAMES", "ClassifierSpec", "SAPConfig", "make_classifier"]


@register
@dataclass(frozen=True)
class ClassifierSpec:
    """Name + keyword arguments identifying a classifier to train.

    ``name`` is one of ``"knn"``, ``"svm_rbf"``, ``"linear_svm"``,
    ``"perceptron"``, ``"lda"``, ``"naive_bayes"``, ``"decision_tree"``;
    ``params`` are forwarded to the constructor/factory.  The last two are
    *non-invariant* control learners (see :mod:`repro.mining.bayes` and
    :mod:`repro.mining.tree`).
    """

    name: str = "knn"
    params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.name not in _FACTORIES:
            raise ValueError(
                f"unknown classifier {self.name!r}; "
                f"available: {', '.join(sorted(_FACTORIES))}"
            )


def _make_knn(**params: Any) -> Classifier:
    return KNNClassifier(**params)


def _make_svm_rbf(**params: Any) -> Classifier:
    params.setdefault("kernel", "rbf")
    return SVMClassifier(**params)


def _make_linear_svm(**params: Any) -> Classifier:
    return LinearSVMClassifier(**params)


def _make_perceptron(**params: Any) -> Classifier:
    seed = params.pop("seed", 0)
    epochs = params.pop("epochs", 10)
    if params:
        raise TypeError(f"unexpected perceptron params: {sorted(params)}")
    return OneVsOneClassifier(
        lambda pair_seed: AveragedPerceptron(epochs=epochs, seed=pair_seed),
        seed=seed,
    )


def _make_naive_bayes(**params: Any) -> Classifier:
    return GaussianNaiveBayes(**params)


def _make_lda(**params: Any) -> Classifier:
    return LinearDiscriminantAnalysis(**params)


def _make_decision_tree(**params: Any) -> Classifier:
    return DecisionTreeClassifier(**params)


_FACTORIES = {
    "knn": _make_knn,
    "svm_rbf": _make_svm_rbf,
    "linear_svm": _make_linear_svm,
    "perceptron": _make_perceptron,
    # Invariance controls: NB and trees are the ICDM'05 paper's examples of
    # learners geometric perturbation is NOT suitable for; LDA is invariant.
    "naive_bayes": _make_naive_bayes,
    "lda": _make_lda,
    "decision_tree": _make_decision_tree,
}


#: names accepted by :class:`ClassifierSpec` / :func:`make_classifier`
CLASSIFIER_NAMES = tuple(sorted(_FACTORIES))


def make_classifier(spec: ClassifierSpec) -> Classifier:
    """Instantiate a fresh classifier from its spec."""
    return _FACTORIES[spec.name](**dict(spec.params))


@register
@dataclass(frozen=True)
class SAPConfig:
    """Knobs for one protocol run.

    Attributes
    ----------
    k:
        Number of data providers, coordinator included (``k >= 2``).
    noise_sigma:
        The protocol-wide common noise component's standard deviation
        (applied by every provider; the target space itself is noise-free).
    classifier:
        What the miner trains on the pooled target-space table.
    test_fraction:
        Per-provider stratified holdout used for the accuracy figures.
    optimize_locally:
        When ``True`` each provider runs the randomized perturbation
        optimizer to pick its ``G_i``; when ``False`` it samples a single
        random perturbation (faster; used by accuracy-only experiments,
        where the choice of ``G_i`` is irrelevant because adaptation maps
        everything to the same target space anyway).
    optimizer_rounds / optimizer_local_steps:
        Budget of the local optimizer when ``optimize_locally``.
    target_candidates:
        Extension over the paper's protocol: when greater than 1, the
        coordinator proposes this many candidate target perturbations and
        the providers vote with scalar satisfaction estimates before the
        target is fixed (the paper's Section 3 uses exactly one random
        target, i.e. ``target_candidates = 1``).  Each provider reveals
        only one float per candidate, so the extra leakage is negligible
        under the semi-honest model.
    round_timeout:
        Optional deadline in *virtual* seconds.  The published protocol has
        no liveness story (it assumes reliable links); with a timeout set,
        the coordinator watches for the miner's model report and broadcasts
        an ``abort`` to every principal when the run has not completed in
        time, so a lossy or partitioned deployment terminates cleanly
        instead of stalling forever.
    shards / shard_backend:
        Worker-shard count and executor backend (``"serial"`` and
        ``"thread"`` run inline on the calling thread, ``"process"`` on a
        pool of ``shards`` workers; see :mod:`repro.sharding`) used for
        the embarrassingly parallel tails of the session — currently the
        per-party privacy/risk profiling of ``compute_privacy`` runs.
        Results are identical for every choice; the default is the
        single-shard serial reference.
    seed:
        Master seed; all role seeds are derived from it.
    """

    k: int = 5
    noise_sigma: float = 0.05
    classifier: ClassifierSpec = field(default_factory=ClassifierSpec)
    test_fraction: float = 0.3
    optimize_locally: bool = False
    optimizer_rounds: int = 8
    optimizer_local_steps: int = 5
    target_candidates: int = 1
    round_timeout: Optional[float] = None
    shards: int = 1
    shard_backend: str = "serial"
    seed: int = 0

    def __post_init__(self) -> None:
        from ..sharding.backends import BACKENDS

        require_int("k", self.k, minimum=2)
        require_real("noise_sigma", self.noise_sigma)
        if self.noise_sigma < 0:
            raise ValueError(f"noise_sigma must be >= 0, got {self.noise_sigma!r}")
        if not isinstance(self.classifier, ClassifierSpec):
            raise ValueError(
                f"classifier must be a ClassifierSpec, got {self.classifier!r}"
            )
        require_real("test_fraction", self.test_fraction)
        if not 0.0 < self.test_fraction < 1.0:
            raise ValueError(
                f"test_fraction must be in (0, 1), got {self.test_fraction!r}"
            )
        require_bool("optimize_locally", self.optimize_locally)
        require_int("optimizer_rounds", self.optimizer_rounds)
        require_int("optimizer_local_steps", self.optimizer_local_steps)
        require_int("target_candidates", self.target_candidates)
        if self.round_timeout is not None:
            require_real("round_timeout", self.round_timeout)
            if self.round_timeout <= 0:
                raise ValueError("round_timeout must be positive when set")
        require_int("shards", self.shards)
        require_choice("shard backend", self.shard_backend, BACKENDS)

    def provider_name(self, index: int) -> str:
        """Canonical node name for provider ``index`` (coordinator is k-1)."""
        if index == self.k - 1:
            return "coordinator"
        return f"provider-{index}"

    @property
    def miner_name(self) -> str:
        """Canonical node name of the service provider."""
        return "miner"

    @property
    def provider_names(self) -> tuple[str, ...]:
        """All provider node names, index order (coordinator last)."""
        return tuple(self.provider_name(i) for i in range(self.k))
