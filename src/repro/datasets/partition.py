"""Partitioning a pooled dataset into per-provider sub-datasets.

The paper's experiments split each dataset "into several randomly sized
sub-datasets, simulating the distributed datasets from the data providers"
and distinguish two partition distributions:

* **Uniform** — every local dataset is (approximately) a uniform random
  sample of the pooled data, so local class proportions match the global
  ones.
* **Class** (skewed) — local datasets are biased toward particular classes,
  modelling organizations whose populations differ (e.g. hospitals seeing
  different case mixes).  Implemented with a per-party Dirichlet draw over
  class proportions.

Both partitioners return disjoint row-index arrays covering the pool.
"""

from __future__ import annotations

import enum
from typing import List, Optional, Sequence

import numpy as np

from ..checkpoint.codec import register
from .schema import Dataset

__all__ = [
    "PartitionScheme",
    "partition_uniform",
    "partition_by_class",
    "partition",
    "random_sizes",
]


@register
class PartitionScheme(enum.Enum):
    """The two partition distributions studied in Figures 3, 5 and 6."""

    UNIFORM = "uniform"
    CLASS = "class"


def random_sizes(
    total: int,
    k: int,
    rng: np.random.Generator,
    min_size: int = 2,
    concentration: float = 5.0,
) -> np.ndarray:
    """Randomly sized but non-degenerate partition sizes summing to ``total``.

    Sizes follow a Dirichlet(``concentration``) draw (moderately uneven, as
    in "randomly sized sub-datasets"), then are adjusted so each part keeps
    at least ``min_size`` rows.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    if total < k * min_size:
        raise ValueError(
            f"cannot split {total} rows into {k} parts of >= {min_size} rows"
        )
    proportions = rng.dirichlet(np.full(k, concentration))
    sizes = np.maximum(np.rint(proportions * total).astype(int), min_size)
    # Repair rounding drift while respecting the minimum size.
    while sizes.sum() > total:
        candidates = np.flatnonzero(sizes > min_size)
        sizes[candidates[rng.integers(len(candidates))]] -= 1
    while sizes.sum() < total:
        sizes[rng.integers(k)] += 1
    return sizes


def partition_uniform(
    dataset: Dataset,
    k: int,
    rng: np.random.Generator,
    min_size: int = 2,
) -> List[np.ndarray]:
    """Split rows into ``k`` near-uniform random samples of random size."""
    sizes = random_sizes(dataset.n_rows, k, rng, min_size=min_size)
    order = rng.permutation(dataset.n_rows)
    parts: List[np.ndarray] = []
    start = 0
    for size in sizes:
        parts.append(np.sort(order[start : start + size]))
        start += size
    return parts


def partition_by_class(
    dataset: Dataset,
    k: int,
    rng: np.random.Generator,
    skew: float = 0.5,
    min_size: int = 2,
) -> List[np.ndarray]:
    """Split rows so each party's class mix is skewed.

    Parameters
    ----------
    skew:
        Dirichlet concentration for the per-party class-proportion draw.
        Smaller values give more extreme skew; ``0.5`` makes most parties
        dominated by one or two classes, matching the paper's "Class"
        partition distribution.

    Notes
    -----
    Every row is assigned to exactly one party.  Assignment is done class
    by class: the rows of each class are dealt to parties proportionally to
    the parties' (random) affinity for that class.  A final repair pass
    tops up parties that fell below ``min_size`` with rows taken from the
    largest parties, so downstream code can always rely on non-empty local
    datasets.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    if dataset.n_rows < k * min_size:
        raise ValueError(
            f"cannot split {dataset.n_rows} rows into {k} parts of >= {min_size}"
        )
    classes = dataset.classes
    # affinity[p, c] = party p's preference weight for class c
    affinity = rng.dirichlet(np.full(k, skew), size=len(classes)).T

    assignments: List[List[int]] = [[] for _ in range(k)]
    for c_index, label in enumerate(classes):
        members = np.flatnonzero(dataset.y == label)
        members = members[rng.permutation(len(members))]
        weights = affinity[:, c_index]
        weights = weights / weights.sum()
        counts = _apportion_counts(len(members), weights)
        start = 0
        for party, count in enumerate(counts):
            assignments[party].extend(members[start : start + count].tolist())
            start += count

    _repair_min_size(assignments, min_size, rng)
    return [np.array(sorted(rows), dtype=int) for rows in assignments]


def _apportion_counts(total: int, weights: np.ndarray) -> List[int]:
    raw = weights * total
    counts = np.floor(raw).astype(int)
    remainder = total - counts.sum()
    order = np.argsort(-(raw - counts))
    for i in order[:remainder]:
        counts[i] += 1
    return counts.tolist()


def _repair_min_size(
    assignments: List[List[int]], min_size: int, rng: np.random.Generator
) -> None:
    """Move rows from the largest parties into any party below ``min_size``."""
    for party, rows in enumerate(assignments):
        while len(rows) < min_size:
            donor = max(range(len(assignments)), key=lambda p: len(assignments[p]))
            if donor == party or len(assignments[donor]) <= min_size:
                raise ValueError("cannot satisfy min_size with this configuration")
            take = rng.integers(len(assignments[donor]))
            rows.append(assignments[donor].pop(int(take)))


def partition(
    dataset: Dataset,
    k: int,
    scheme: PartitionScheme | str,
    rng: Optional[np.random.Generator] = None,
    seed: Optional[int] = None,
    **kwargs,
) -> List[np.ndarray]:
    """Dispatch to the partitioner named by ``scheme``.

    Exactly one of ``rng`` and ``seed`` should be provided (``seed`` wins
    when both are given, for experiment-driver convenience).
    """
    if seed is not None:
        rng = np.random.default_rng(seed)
    if rng is None:
        raise ValueError("provide an rng or a seed")
    scheme = PartitionScheme(scheme) if isinstance(scheme, str) else scheme
    if scheme is PartitionScheme.UNIFORM:
        return partition_uniform(dataset, k, rng, **kwargs)
    return partition_by_class(dataset, k, rng, **kwargs)


def describe_partition(dataset: Dataset, parts: Sequence[np.ndarray]) -> str:
    """ASCII summary of a partition's sizes and class mixes (for reports)."""
    lines = []
    classes = dataset.classes
    for i, part in enumerate(parts):
        labels = dataset.y[part]
        mix = "/".join(str(int((labels == c).sum())) for c in classes)
        lines.append(f"party {i}: {len(part):>5} rows  class mix {mix}")
    return "\n".join(lines)
