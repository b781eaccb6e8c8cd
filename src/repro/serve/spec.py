"""The unified, declarative description of one mining session.

A :class:`SessionSpec` says *what* to run — batch protocol or stream,
which dataset or stream scenario, the protocol knobs, the classifier, and
the shard policy — without saying *how* or *where*.  The same spec can be

* executed inline (:func:`repro.serve.engine.execute_spec`), which is
  exactly what the legacy :func:`repro.run_sap_session` /
  :func:`repro.run_stream_session` wrappers do today;
* submitted to a :class:`repro.serve.engine.MiningService`, which runs
  many specs concurrently over one shared worker pool; or
* written down in a JSON workload file (``repro serve --workload``),
  round-tripping through :meth:`SessionSpec.from_mapping` /
  :meth:`SessionSpec.to_mapping`.

Multi-tenancy is part of the description: every spec names a ``tenant``,
and :meth:`SessionSpec.resolved_seed` namespaces the seed per tenant —
two tenants submitting byte-identical workloads draw disjoint randomness,
mirroring the per-trust-level perturbation copies of the multi-level-trust
line of work.  The ``"default"`` tenant resolves to the raw seed, which is
what keeps the legacy wrappers bit-identical to the pre-redesign API.

Every field is validated at construction with a friendly
:class:`ValueError` (no deep tracebacks at run time), and specs are frozen
— a submitted workload cannot be mutated behind the engine's back.  The
protocol and stream knobs are :class:`~repro.parties.SAPConfig`'s and
:class:`~repro.streaming.StreamConfig`'s fields under the same names, and
those configs are what check them: a spec builds both at construction.
"""

from __future__ import annotations

import hashlib
import numbers
from dataclasses import dataclass, field, fields, replace
from typing import Any, Dict, Mapping, Optional, Tuple, Union

import numpy as np

from ..checks import require_bool, require_choice, require_int
from ..datasets.partition import PartitionScheme
from ..datasets.registry import load_dataset
from ..obs import Telemetry
from ..datasets.schema import Dataset
from ..parties.config import CLASSIFIER_NAMES, ClassifierSpec, SAPConfig
from ..streaming.online_miner import ONLINE_CLASSIFIERS
from ..streaming.sources import STREAM_KINDS, StreamSource, make_stream
from ..streaming.stream_session import StreamConfig, TrustChange

__all__ = ["SESSION_KINDS", "SessionSpec"]

#: workload kinds a spec can describe
SESSION_KINDS = ("batch", "stream")

#: the tenant whose seeds are *not* namespaced (legacy-compatible)
DEFAULT_TENANT = "default"

#: both kinds' classifier when a spec names none
_DEFAULT_CLASSIFIER = "knn"

#: each kind's execution config, and the names of its fields — every one
#: of them is a :class:`SessionSpec` field of the same name
_CONFIGS = {"batch": SAPConfig, "stream": StreamConfig}
_CONFIG_FIELDS = {
    kind: tuple(f.name for f in fields(config)) for kind, config in _CONFIGS.items()
}

#: each kind's knobs that no config carries, and the knobs both kinds
#: read through the spec although only one config carries them
_SPEC_ONLY = {"batch": ("scheme",), "stream": ("stream", "windows", "n_records")}
_SHARED = ("classifier_params", "compute_privacy", "telemetry")

#: each kind's foreign knobs: those only the other kind uses, which a
#: spec of this kind refuses at any value but their default
_FOREIGN = {
    kind: frozenset(_CONFIG_FIELDS[other] + _SPEC_ONLY[other])
    - set(_CONFIG_FIELDS[kind] + _SHARED)
    for kind, other in zip(SESSION_KINDS, reversed(SESSION_KINDS))
}


def _is_registry_table(dataset: Dataset) -> bool:
    """Whether ``dataset`` is the table its name loads from the registry."""
    try:
        registry = load_dataset(dataset.name)
    except KeyError:
        return False
    return dataset.feature_names == registry.feature_names and all(
        mine.dtype == theirs.dtype and np.array_equal(mine, theirs)
        for mine, theirs in ((dataset.X, registry.X), (dataset.y, registry.y))
    )


@dataclass(frozen=True)
class SessionSpec:
    """One declarative mining-session description (batch or stream).

    Every field of :class:`~repro.parties.SAPConfig` and of
    :class:`~repro.streaming.StreamConfig` is a spec field of the same
    name, documented and checked there; both configs are built from the
    spec at construction, so a knob of the other kind is checked too, and
    then refused by name unless it keeps its default (a stream session
    never runs the batch protocol's local optimizer, for one).  Where the
    spec differs from the configs:

    kind:
        ``"batch"`` (one-shot Space Adaptation Protocol run) or
        ``"stream"`` (windowed online run with drift re-adaptation).
    dataset:
        Registry dataset name (see :data:`repro.datasets.DATASET_NAMES`),
        or an in-memory :class:`~repro.datasets.schema.Dataset` when the
        spec is built programmatically by the legacy wrappers.  Only a
        spec whose table the registry name loads can be written down
        (:meth:`to_mapping`), so only such a spec can checkpoint through
        an engine or run on a process replica.
    tenant:
        Namespace for seeds and service budgets; ``"default"`` keeps the
        raw seed (legacy behaviour).
    label:
        Optional display name for reports; defaults to
        ``"<tenant>/<kind>:<dataset>"``.
    seed:
        The raw master seed; the configs get :meth:`resolved_seed`.
    k / classifier / classifier_params / compute_privacy:
        ``None`` picks the kind's default: ``k`` 5 batch, 3 stream;
        ``classifier`` ``"knn"`` for both (a batch classifier name for
        ``kind="batch"``, an online one for ``kind="stream"``);
        ``compute_privacy`` ``False`` for batch
        (:func:`~repro.core.session.run_sap_session`'s default) and
        ``True`` for stream.  ``classifier_params`` become the batch
        :class:`~repro.parties.ClassifierSpec`'s params.
    scheme:
        Batch only: how the dataset is partitioned among the providers.
    stream / windows / n_records:
        Stream only: the synthetic source scenario and its length
        (``n_records``; defaults to ``windows x window_size``).
    shard_backend:
        Used when the spec runs standalone — a
        :class:`~repro.serve.engine.MiningService` substitutes its own
        backend, which is sound because results are
        backend-independent by construction.
    telemetry:
        Optional :class:`repro.obs.Telemetry` bundle carried into
        execution (spans + metrics).  Excluded from equality/repr and
        from :meth:`to_mapping` — telemetry is a runtime attachment, not
        part of the workload description — and it never affects results.
    """

    kind: str = "batch"
    dataset: Union[str, Dataset] = "iris"
    tenant: str = DEFAULT_TENANT
    label: Optional[str] = None
    seed: int = 0
    k: Optional[int] = None
    noise_sigma: float = 0.05
    classifier: Optional[str] = None
    classifier_params: Tuple[Tuple[str, Any], ...] = ()
    compute_privacy: Optional[bool] = None
    # batch-only
    scheme: str = "uniform"
    test_fraction: float = 0.3
    optimize_locally: bool = False
    optimizer_rounds: int = 8
    optimizer_local_steps: int = 5
    target_candidates: int = 1
    round_timeout: Optional[float] = None
    # stream-only
    stream: str = "stationary"
    windows: int = 8
    window_size: int = 64
    window_kind: str = "tumbling"
    window_step: Optional[int] = None
    normalizer: str = "minmax"
    detector: str = "meanvar"
    detector_params: Tuple[Tuple[str, Any], ...] = ()
    readapt_cooldown: int = 2
    trust_changes: Tuple[TrustChange, ...] = ()
    n_records: Optional[int] = None
    watermark_delay: int = 0
    late_policy: str = "drop"
    skew: int = 0
    # shard policy
    shards: int = 1
    shard_backend: str = "serial"
    shard_plan: str = "round_robin"
    overlap: Optional[bool] = None
    telemetry: Optional[Telemetry] = field(
        default=None, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        require_choice("session kind", self.kind, SESSION_KINDS)
        if not isinstance(self.tenant, str) or not self.tenant:
            raise ValueError(f"tenant must be a non-empty string, got {self.tenant!r}")
        if not isinstance(self.dataset, (str, Dataset)):
            raise ValueError(
                f"dataset must be a registry dataset name or a Dataset, got "
                f"{self.dataset!r}"
            )
        if not isinstance(self.seed, numbers.Integral) or isinstance(self.seed, bool):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        require_choice("partition scheme", self.scheme, [s.value for s in PartitionScheme])
        require_choice("stream kind", self.stream, STREAM_KINDS)
        require_int("windows", self.windows)
        if self.n_records is not None:
            require_int("n_records", self.n_records)
        names = CLASSIFIER_NAMES if self.kind == "batch" else ONLINE_CLASSIFIERS
        if self.classifier is not None:
            require_choice(f"{self.kind} classifier", self.classifier, names)
        if self.compute_privacy is not None:
            require_bool("compute_privacy", self.compute_privacy)
        # Normalize freely-given mappings/pair-sequences to hashable tuples.
        for name in ("classifier_params", "detector_params"):
            value = getattr(self, name)
            pairs = value.items() if isinstance(value, Mapping) else value
            try:
                normalized = tuple((key, item) for key, item in pairs)
                dict(normalized)  # the configs key them by name
            except (TypeError, ValueError):
                raise ValueError(
                    f"{name} must map parameter names to values, got {value!r}"
                ) from None
            object.__setattr__(self, name, normalized)
        changes = []
        try:
            for change in self.trust_changes:
                if isinstance(change, Mapping):
                    change = TrustChange(**change)
                elif not isinstance(change, TrustChange):
                    change = TrustChange(*change)  # (window, party, trust)
                changes.append(change)
        except (TypeError, ValueError) as exc:
            raise ValueError(
                f"trust_changes must list (window, party, trust) changes, got "
                f"{self.trust_changes!r}: {exc}"
            ) from None
        object.__setattr__(self, "trust_changes", tuple(changes))
        # Every other field is a config's: building both configs checks
        # it, whatever this spec's kind, so a bad value's own message wins
        # over the refusal of a knob this kind does not use.
        for kind in SESSION_KINDS:
            self._config(kind)
        foreign = [
            f.name for f in fields(self)
            if f.name in _FOREIGN[self.kind] and getattr(self, f.name) != f.default
        ]
        if foreign:
            raise ValueError(
                f"{self.kind} sessions do not use {', '.join(foreign)}; leave unset"
            )

    # ------------------------------------------------------------------
    # derived views
    # ------------------------------------------------------------------
    @property
    def dataset_name(self) -> str:
        """Name of the dataset, whether given by name or as an object."""
        return self.dataset if isinstance(self.dataset, str) else self.dataset.name

    @property
    def display_label(self) -> str:
        """Report label: the explicit one, or ``tenant/kind:dataset``."""
        if self.label:
            return self.label
        return f"{self.tenant}/{self.kind}:{self.dataset_name}"

    @property
    def effective_k(self) -> int:
        """Provider count with the kind's default applied (5 batch, 3 stream)."""
        if self.k is not None:
            return self.k
        return 5 if self.kind == "batch" else 3

    @property
    def effective_classifier(self) -> str:
        """Classifier name with the kind's default applied (``"knn"``)."""
        return self.classifier if self.classifier is not None else _DEFAULT_CLASSIFIER

    @property
    def effective_privacy(self) -> bool:
        """Privacy-evaluation flag with the kind's legacy default applied."""
        if self.compute_privacy is not None:
            return self.compute_privacy
        return self.kind == "stream"

    @property
    def effective_records(self) -> int:
        """Stream length: explicit ``n_records`` or ``windows x window_size``."""
        if self.n_records is not None:
            return self.n_records
        return self.windows * self.window_size

    def resolved_seed(self) -> int:
        """The per-tenant namespaced master seed.

        The ``"default"`` tenant keeps the raw seed, so specs built by the
        legacy wrappers reproduce the pre-redesign randomness exactly.
        Every other tenant folds its name into a SHA-256 digest with the
        seed, giving each tenant an independent, deterministic seed stream
        over the same workload.
        """
        if self.tenant == DEFAULT_TENANT:
            return self.seed
        digest = hashlib.sha256(
            f"repro.serve/{self.tenant}\x00{self.seed}".encode()
        ).digest()
        return int.from_bytes(digest[:8], "big") % (2**63)

    def for_tenant(self, tenant: str) -> "SessionSpec":
        """A copy of this spec namespaced under another tenant."""
        return replace(self, tenant=tenant)

    # ------------------------------------------------------------------
    # conversion to the execution-layer configs
    # ------------------------------------------------------------------
    def _config(self, kind: str) -> Union[SAPConfig, StreamConfig]:
        """``kind``'s config, each field copied from the spec field of its name.

        Only ``k``, ``seed``, the classifier and ``compute_privacy`` take
        the spec's effective values.  The other kind's config, built only
        to check the knobs, gets that kind's default classifier.
        """
        values = {name: getattr(self, name) for name in _CONFIG_FIELDS[kind]}
        values.update(k=self.effective_k, seed=self.resolved_seed())
        classifier, params = _DEFAULT_CLASSIFIER, ()
        if kind == self.kind:
            classifier, params = self.effective_classifier, self.classifier_params
        if kind == "batch":
            values["classifier"] = ClassifierSpec(classifier, dict(params))
        else:
            values.update(
                classifier=classifier,
                classifier_params=params,
                compute_privacy=self.effective_privacy,
            )
        return _CONFIGS[kind](**values)

    def _require_kind(self, kind: str) -> None:
        if self.kind != kind:
            raise ValueError(f"spec {self.display_label!r} is not a {kind} session")

    def to_sap_config(self) -> SAPConfig:
        """The batch :class:`~repro.parties.SAPConfig` this spec describes."""
        self._require_kind("batch")
        return self._config("batch")

    def to_stream_config(self) -> StreamConfig:
        """The :class:`~repro.streaming.StreamConfig` this spec describes."""
        self._require_kind("stream")
        return self._config("stream")

    def make_source(self) -> StreamSource:
        """Build the stream source this spec describes (stream kind only)."""
        self._require_kind("stream")
        return make_stream(
            self.dataset,
            kind=self.stream,
            n_records=self.effective_records,
            seed=self.resolved_seed() % (2**32),
        )

    # ------------------------------------------------------------------
    # construction from the legacy configs (the thin-wrapper path)
    # ------------------------------------------------------------------
    @classmethod
    def from_batch(
        cls,
        dataset: Union[str, Dataset],
        config: SAPConfig,
        scheme: Union[PartitionScheme, str] = PartitionScheme.UNIFORM,
        compute_privacy: bool = False,
        tenant: str = DEFAULT_TENANT,
    ) -> "SessionSpec":
        """Lift a legacy ``(dataset, SAPConfig)`` pair into a spec."""
        values = {name: getattr(config, name) for name in _CONFIG_FIELDS["batch"]}
        values.update(
            classifier=config.classifier.name,
            classifier_params=tuple(config.classifier.params.items()),
        )
        return cls(
            kind="batch",
            dataset=dataset,
            tenant=tenant,
            compute_privacy=compute_privacy,
            scheme=PartitionScheme(scheme).value,
            **values,
        )

    @classmethod
    def from_stream(
        cls,
        source: StreamSource,
        config: StreamConfig,
        tenant: str = DEFAULT_TENANT,
    ) -> "SessionSpec":
        """Lift a legacy ``(source, StreamConfig)`` pair into a spec.

        The session driver only requires ``name``/``kind``/``dimension``
        and iteration from a source, so duck-typed sources remain
        accepted: pool/record-count/scenario fields are read when present
        and fall back to descriptive defaults otherwise (the source object
        itself — not the spec — is what gets executed).
        """
        pool = getattr(source, "pool", None)
        kind = getattr(source, "kind", "stationary")
        return cls(
            kind="stream",
            dataset=pool if pool is not None else getattr(source, "name", "stream"),
            tenant=tenant,
            stream=kind if kind in STREAM_KINDS else "stationary",
            n_records=getattr(source, "n_records", None),
            **{name: getattr(config, name) for name in _CONFIG_FIELDS["stream"]},
        )

    # ------------------------------------------------------------------
    # JSON workload round trip
    # ------------------------------------------------------------------
    @classmethod
    def from_mapping(cls, mapping: Mapping[str, Any]) -> "SessionSpec":
        """Build a spec from a plain mapping (one workload-file entry).

        Unknown keys raise a friendly :class:`ValueError` naming the key,
        so a typo in a workload file fails loudly at load time rather than
        silently running defaults; so does an entry that is not a mapping.
        """
        if not isinstance(mapping, Mapping):
            raise ValueError(
                f"a session spec must be a mapping of spec fields, got "
                f"{mapping!r}"
            )
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(mapping) - known)
        if unknown:
            raise ValueError(
                f"unknown session spec field(s): {', '.join(unknown)}; "
                f"available: {', '.join(sorted(known))}"
            )
        # Mappings in *_params fields are normalized by __post_init__.
        return cls(**dict(mapping))

    def to_mapping(self) -> Dict[str, Any]:
        """The JSON-friendly inverse of :meth:`from_mapping`.

        Every field's raw value (``telemetry`` aside), so
        ``from_mapping(to_mapping(spec)) == spec``; only the dataset (its
        name), the ``*_params`` (dicts) and the trust changes (mappings)
        change form.  A mapping names its dataset, so an in-memory
        :class:`~repro.datasets.schema.Dataset` other than the registry
        table of its name raises a :class:`ValueError` naming it.
        """
        if isinstance(self.dataset, Dataset) and not _is_registry_table(self.dataset):
            raise ValueError(
                f"dataset {self.dataset_name!r} is an in-memory table that the "
                f"registry name does not load, so this spec cannot be written "
                f"down; run it inline or on an in-process engine without "
                f"checkpoints"
            )
        payload = {f.name: getattr(self, f.name) for f in fields(self) if f.compare}
        payload.update(
            dataset=self.dataset_name,
            classifier_params=dict(self.classifier_params),
            detector_params=dict(self.detector_params),
            trust_changes=[
                {"window": c.window, "party": c.party, "trust": c.trust}
                for c in self.trust_changes
            ],
        )
        return payload
