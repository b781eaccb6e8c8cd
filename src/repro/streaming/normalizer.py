"""Incremental normalizers for streams.

The batch pipeline normalizes once, up front, because the providers agree
on common domain bounds before perturbing (:mod:`repro.core.normalization`).
A stream has no "up front": bounds and moments must be maintained as
records arrive.  Two incremental normalizers mirror the two batch ones:

* :class:`RunningMinMaxNormalizer` — running per-column min/max; after
  seeing the full stream its transform is *exactly* the batch
  :class:`~repro.core.normalization.MinMaxNormalizer` fitted on the same
  rows;
* :class:`RunningZScoreNormalizer` — Welford/Chan parallel updates of
  (count, mean, M2); converges to the batch
  :class:`~repro.core.normalization.ZScoreNormalizer` up to floating-point
  rounding regardless of how the stream was chunked.

Both expose ``to_batch()`` so downstream code (and the equivalence tests)
can hand the frozen state to the existing batch machinery, and ``merge()``
— the Welford/Chan and min/max merge algebra — so per-shard states built
by :mod:`repro.sharding` can be combined into exactly the state one
unsharded normalizer would hold.  Both are registered dataclasses of
their state alone, so a checkpoint carries them as they are.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..checkpoint.codec import register
from ..core.normalization import MinMaxNormalizer, ZScoreNormalizer

__all__ = [
    "NORMALIZER_KINDS",
    "RunningMinMaxNormalizer",
    "RunningZScoreNormalizer",
    "make_normalizer",
]

#: names accepted by :func:`make_normalizer`
NORMALIZER_KINDS = ("minmax", "zscore")


@register
@dataclass(eq=False)
class RunningMinMaxNormalizer:
    """Stream counterpart of :class:`MinMaxNormalizer`.

    ``update`` folds a batch of rows into the running bounds; ``transform``
    maps into ``[0, 1]`` under the *current* bounds (values beyond them
    extrapolate linearly, exactly like the batch normalizer).  Constant
    columns map to 0.5.
    """

    minimums: Optional[np.ndarray] = None
    maximums: Optional[np.ndarray] = None
    n_seen: int = 0

    def update(self, X: np.ndarray) -> "RunningMinMaxNormalizer":
        """Fold a ``(n, d)`` batch of new rows into the running bounds."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise ValueError("X must be 2-D")
        if X.shape[0] == 0:
            return self
        self._merge_bounds(X.min(axis=0), X.max(axis=0), X.shape[0])
        return self

    def merge(self, other: "RunningMinMaxNormalizer") -> "RunningMinMaxNormalizer":
        """Fold another running normalizer's state into this one.

        The min/max merge algebra is exact and order-insensitive: merging
        per-shard states (in any order) yields bit-identical bounds to one
        normalizer fed every row — the property the sharded engine's
        normalizer merge step relies on.
        """
        if other.minimums is None or other.maximums is None:
            return self
        self._merge_bounds(other.minimums, other.maximums, other.n_seen)
        return self

    def _merge_bounds(self, minimums: np.ndarray, maximums: np.ndarray, n: int) -> None:
        """Shared merge step for :meth:`update` and :meth:`merge`."""
        if self.minimums is None:
            self.minimums = np.array(minimums, dtype=float, copy=True)
            self.maximums = np.array(maximums, dtype=float, copy=True)
        else:
            if minimums.shape[0] != self.minimums.shape[0]:
                raise ValueError(
                    f"cannot fold {minimums.shape[0]} columns into a "
                    f"normalizer tracking {self.minimums.shape[0]}"
                )
            self.minimums = np.minimum(self.minimums, minimums)
            self.maximums = np.maximum(self.maximums, maximums)
        self.n_seen += int(n)

    def transform(self, X: np.ndarray) -> np.ndarray:
        """Scale rows into ``[0, 1]`` under the bounds seen so far."""
        return self.to_batch().transform(X)

    def update_transform(self, X: np.ndarray) -> np.ndarray:
        """Fold the batch in, then transform it (the per-window hot path)."""
        return self.update(X).transform(X)

    def to_batch(self) -> MinMaxNormalizer:
        """Freeze the running bounds into a fitted batch normalizer."""
        if self.minimums is None or self.maximums is None:
            raise RuntimeError("normalizer has seen no data")
        return MinMaxNormalizer(
            minimums=self.minimums.copy(), maximums=self.maximums.copy()
        )


@register
@dataclass(eq=False)
class RunningZScoreNormalizer:
    """Stream counterpart of :class:`ZScoreNormalizer` (Welford/Chan).

    Maintains per-column ``(n, mean, M2)`` — ``m2`` is the running sum of
    squared deviations — and merges whole batches at a time with Chan's
    parallel-update formula, which is numerically stable under any
    chunking of the stream.
    """

    means: Optional[np.ndarray] = None
    m2: Optional[np.ndarray] = None
    n_seen: int = 0

    def update(self, X: np.ndarray) -> "RunningZScoreNormalizer":
        """Merge a ``(n, d)`` batch into the running moments."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise ValueError("X must be 2-D")
        n_b = X.shape[0]
        if n_b == 0:
            return self
        mean_b = X.mean(axis=0)
        m2_b = ((X - mean_b) ** 2).sum(axis=0)
        self._merge_moments(n_b, mean_b, m2_b)
        return self

    def merge(self, other: "RunningZScoreNormalizer") -> "RunningZScoreNormalizer":
        """Fold another running normalizer's ``(n, mean, M2)`` into this one.

        Chan's parallel-update formula — the same step :meth:`update` takes
        for each batch, so merging a chain of per-shard states in stream
        order reproduces the unsharded state bit for bit, and merging them
        in *any* order agrees up to floating-point rounding.
        """
        if other.means is None or other.m2 is None:
            return self
        self._merge_moments(other.n_seen, other.means, other.m2)
        return self

    def _merge_moments(self, n_b: int, mean_b: np.ndarray, m2_b: np.ndarray) -> None:
        """Shared Chan merge for :meth:`update` and :meth:`merge`."""
        if self.means is None:
            self.means = np.array(mean_b, dtype=float, copy=True)
            self.m2 = np.array(m2_b, dtype=float, copy=True)
            self.n_seen = int(n_b)
            return
        if mean_b.shape[0] != self.means.shape[0]:
            raise ValueError(
                f"cannot fold {mean_b.shape[0]} columns into a "
                f"normalizer tracking {self.means.shape[0]}"
            )
        n_a = self.n_seen
        delta = mean_b - self.means
        total = n_a + n_b
        self.means = self.means + delta * (n_b / total)
        self.m2 = self.m2 + m2_b + delta**2 * (n_a * n_b / total)
        self.n_seen = int(total)

    @property
    def stds(self) -> np.ndarray:
        """Population standard deviations (``ddof=0``, matching the batch)."""
        if self.m2 is None:
            raise RuntimeError("normalizer has seen no data")
        return np.sqrt(self.m2 / self.n_seen)

    def transform(self, X: np.ndarray) -> np.ndarray:
        """Standardize rows under the moments seen so far."""
        return self.to_batch().transform(X)

    def update_transform(self, X: np.ndarray) -> np.ndarray:
        """Merge the batch in, then transform it (the per-window hot path)."""
        return self.update(X).transform(X)

    def to_batch(self) -> ZScoreNormalizer:
        """Freeze the running moments into a fitted batch normalizer."""
        if self.means is None:
            raise RuntimeError("normalizer has seen no data")
        return ZScoreNormalizer(means=self.means.copy(), stds=self.stds)


def make_normalizer(kind: str):
    """Factory keyed by the batch normalizer it mirrors."""
    if kind == "minmax":
        return RunningMinMaxNormalizer()
    if kind == "zscore":
        return RunningZScoreNormalizer()
    raise ValueError(f"unknown normalizer kind {kind!r}; use 'minmax' or 'zscore'")
