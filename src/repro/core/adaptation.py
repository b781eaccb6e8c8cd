"""Space adaptation: moving a perturbed table into the target space.

Section 3 of the paper.  Given a provider's perturbation
``G_i : (R_i, t_i)`` (with noise) and the protocol's target perturbation
``G_t : (R_t, t_t)`` (noise-free), the provider's perturbed table
``Y_i = R_i X_i + Psi_i + Delta_i`` can be re-expressed as

    Y_{i->t} = R_t R_i^{-1} Y_i + (Psi_t - R_t R_i^{-1} Psi_i)
               = R_t X_i + Psi_t + R_t R_i^{-1} Delta_i

The first factor is the **rotation adaptor** ``R_it = R_t R_i^{-1}``; the
second summand the **translation adaptor**
``Psi_it = Psi_t - R_t R_i^{-1} Psi_i`` (still rank-one, so it is stored as
a vector); the surviving term ``Delta_it = R_t R_i^{-1} Delta_i`` is the
**complementary noise** — inheriting the source-space noise is equivalent
to never removing it, which is the point: the adaptor alone cannot
de-noise anyone's data.

Crucially, the pair ``<R_it, Psi_it>`` reveals neither ``R_i`` nor ``R_t``
individually (it is their product plus a blinded translation), which is
why providers may hand adaptors to the coordinator.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..checkpoint.codec import register
from .perturbation import GeometricPerturbation
from .rotation import is_orthogonal

__all__ = [
    "SpaceAdaptor",
    "AdaptorCache",
    "compute_adaptor",
    "complementary_noise",
]


@register
@dataclass(frozen=True)
class SpaceAdaptor:
    """The pair ``<R_it, Psi_it>`` a provider submits to the coordinator."""

    rotation_adaptor: np.ndarray
    translation_adaptor: np.ndarray

    def __post_init__(self) -> None:
        rotation = np.asarray(self.rotation_adaptor, dtype=float)
        translation = np.asarray(self.translation_adaptor, dtype=float)
        object.__setattr__(self, "rotation_adaptor", rotation)
        object.__setattr__(self, "translation_adaptor", translation)
        if translation.ndim != 1:
            raise ValueError("translation adaptor must be a vector")
        d = translation.shape[0]
        if rotation.shape != (d, d):
            raise ValueError(
                f"rotation adaptor {rotation.shape} does not match translation "
                f"dimension {d}"
            )
        if not is_orthogonal(rotation):
            raise ValueError(
                "rotation adaptor must be orthogonal (product of orthogonal "
                "matrices)"
            )

    @property
    def dimension(self) -> int:
        """Data dimensionality ``d``."""
        return self.translation_adaptor.shape[0]

    def apply(self, Y: np.ndarray) -> np.ndarray:
        """Adapt a perturbed table (``d x N``) into the target space."""
        Y = np.asarray(Y, dtype=float)
        if Y.ndim != 2 or Y.shape[0] != self.dimension:
            raise ValueError(
                f"expected column-oriented data with {self.dimension} rows, "
                f"got {Y.shape}"
            )
        return self.rotation_adaptor @ Y + self.translation_adaptor[:, None]


def compute_adaptor(
    source: GeometricPerturbation, target: GeometricPerturbation
) -> SpaceAdaptor:
    """Build ``A_it = <R_t R_i^{-1}, t_t - R_t R_i^{-1} t_i>``.

    ``R^{-1} = R'`` for orthogonal matrices, so no linear solve is needed.
    The target's noise level is irrelevant here (SAP's target space is
    noise-free by construction); only its rotation/translation enter.
    """
    if source.dimension != target.dimension:
        raise ValueError(
            f"dimension mismatch: source d={source.dimension}, "
            f"target d={target.dimension}"
        )
    rotation_adaptor = target.rotation @ source.rotation.T
    translation_adaptor = target.translation - rotation_adaptor @ source.translation
    return SpaceAdaptor(
        rotation_adaptor=rotation_adaptor,
        translation_adaptor=translation_adaptor,
    )


class AdaptorCache:
    """LRU cache of negotiated :class:`SpaceAdaptor` objects.

    Keys are ``(target_id, party_id)``: an opaque identifier of the
    negotiated target space (the streaming session uses the epoch counter)
    and the adapting party's index.  Long-running sessions — the streaming
    engine consults the per-party adaptors every window, and every shard
    task needs the stacked adaptor rotations — hit the cache instead of
    re-deriving ``<R_t R_i^{-1}, Psi_it>`` from the perturbation parameters,
    which cuts repeat re-adaptation latency to a dictionary lookup.

    The cache is bounded (``maxsize`` entries, least-recently-used
    eviction) and thread-safe, so a thread-backend engine may probe it
    concurrently.  :meth:`invalidate` is the re-negotiation hook: when a
    target space is re-drawn, dropping its ``target_id`` evicts every
    stale adaptor at once.
    """

    def __init__(self, maxsize: int = 64) -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.maxsize = maxsize
        self._entries: "OrderedDict[Tuple[object, object], SpaceAdaptor]" = (
            OrderedDict()
        )
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        """Number of cached adaptors."""
        with self._lock:
            return len(self._entries)

    def get(self, target_id: object, party_id: object) -> Optional[SpaceAdaptor]:
        """Return the cached adaptor for ``(target_id, party_id)`` or ``None``."""
        key = (target_id, party_id)
        with self._lock:
            adaptor = self._entries.get(key)
            if adaptor is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return adaptor

    def put(self, target_id: object, party_id: object, adaptor: SpaceAdaptor) -> None:
        """Insert (or refresh) one adaptor, evicting the LRU entry if full."""
        key = (target_id, party_id)
        with self._lock:
            self._entries[key] = adaptor
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)

    def get_or_compute(
        self,
        target_id: object,
        party_id: object,
        factory: Callable[[], SpaceAdaptor],
    ) -> SpaceAdaptor:
        """Cached lookup with fallback to ``factory`` (result is cached)."""
        adaptor = self.get(target_id, party_id)
        if adaptor is None:
            adaptor = factory()
            self.put(target_id, party_id, adaptor)
        return adaptor

    def snapshot(self) -> List[Tuple[object, object, SpaceAdaptor]]:
        """Every cached entry as ``(target_id, party_id, adaptor)``, LRU first.

        The checkpoint hook: replaying the snapshot through :meth:`put`
        on a fresh cache reproduces both the contents and the eviction
        order.  Adaptors are immutable, so sharing them is safe.
        """
        with self._lock:
            return [
                (target_id, party_id, adaptor)
                for (target_id, party_id), adaptor in self._entries.items()
            ]

    def invalidate(
        self,
        target_id: Optional[object] = None,
        party_id: Optional[object] = None,
    ) -> int:
        """Drop matching entries; the re-negotiation hook.

        ``invalidate(target_id=e)`` evicts every party's adaptor for a
        stale target; ``invalidate(party_id=p)`` evicts one party across
        targets (e.g. after its trust level — and thus its effective
        perturbation — changes); no arguments clears the cache.  Returns
        the number of evicted entries.
        """
        with self._lock:
            keys = [
                key
                for key in self._entries
                if (target_id is None or key[0] == target_id)
                and (party_id is None or key[1] == party_id)
            ]
            for key in keys:
                del self._entries[key]
            return len(keys)

    @property
    def stats(self) -> Dict[str, int]:
        """Hit/miss/size counters (for reports and tests)."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "size": len(self._entries),
                "maxsize": self.maxsize,
            }


def complementary_noise(
    source: GeometricPerturbation,
    target: GeometricPerturbation,
    noise: np.ndarray,
) -> np.ndarray:
    """``Delta_it = R_t R_i^{-1} Delta_i`` — the noise the target space inherits.

    Provided for analysis/tests: verifies that adapting a noisy table equals
    perturbing the original with the target and adding this matrix.
    """
    noise = np.asarray(noise, dtype=float)
    if noise.shape[0] != source.dimension:
        raise ValueError("noise matrix does not match the data dimension")
    return (target.rotation @ source.rotation.T) @ noise
