"""Pure protocol logic for the Space Adaptation Protocol.

This module contains the *decisions* of SAP — the random exchange plan and
its bookkeeping — with no transport attached, so the logic can be tested
exhaustively and reused both by the in-process session driver and by the
message-passing roles in :mod:`repro.parties`.

The exchange plan (Section 3)
-----------------------------
With providers ``DP_0 .. DP_{k-1}`` (0-based here; the paper's coordinator
``DP_k`` is index ``k-1``):

1. the coordinator draws a uniform permutation ``tau`` of ``0..k-1``;
   receiver ``i`` is assigned the dataset of source ``tau(i)``;
2. the coordinator must not receive data (it later holds the adaptor
   sequence, which together with a dataset would let it undo a
   perturbation), so its slot ``tau(k-1)`` is redirected to a uniformly
   random receiver ``j != k-1``;
3. every provider forwards what it received to the miner, each forwarded
   table labelled with an opaque random tag so the miner can pair it with
   the right (anonymously routed) space adaptor.

The resulting attribution probability at the miner is ``1/(k-1)``
(:func:`repro.core.risk.source_identifiability`); tests verify this
empirically via :func:`repro.simnet.adversary.empirical_identifiability`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from ..checkpoint.codec import register

__all__ = ["ExchangePlan", "draw_exchange_plan"]


@register
@dataclass(frozen=True)
class ExchangePlan:
    """One realization of SAP's random-exchange routing.

    Attributes
    ----------
    k:
        Number of data providers (including the coordinator).
    coordinator:
        Index of the coordinating provider (always ``k-1`` in this
        reproduction, mirroring the paper's "without loss of generality,
        DP_k").
    tau:
        The permutation: ``tau[i]`` is the source whose dataset receiver
        ``i`` is assigned.  Entry ``tau[coordinator]`` exists but is
        *redirected* (the coordinator receives nothing).
    redirect_receiver:
        The provider ``j != coordinator`` that additionally receives the
        dataset of source ``tau[coordinator]``.
    tags:
        Per-source opaque hex tags; a tag travels with the dataset and with
        its adaptor so the miner can join them without learning the source.
    """

    k: int
    coordinator: int
    tau: Tuple[int, ...]
    redirect_receiver: int
    tags: Tuple[str, ...]

    def __post_init__(self) -> None:
        if self.k < 2:
            raise ValueError("SAP requires at least 2 providers")
        if sorted(self.tau) != list(range(self.k)):
            raise ValueError("tau must be a permutation of 0..k-1")
        if self.coordinator != self.k - 1:
            raise ValueError("the coordinator is the last provider by convention")
        if not (0 <= self.redirect_receiver < self.k - 1):
            raise ValueError("the redirect receiver must be a non-coordinator")
        if len(self.tags) != self.k or len(set(self.tags)) != self.k:
            raise ValueError("need one distinct tag per source")

    # ------------------------------------------------------------------
    # routing queries
    # ------------------------------------------------------------------
    def receiver_of_source(self, source: int) -> int:
        """Which provider receives (and then forwards) ``source``'s dataset."""
        slot = self.tau.index(source)
        if slot == self.coordinator:
            return self.redirect_receiver
        return slot

    def sources_received_by(self, receiver: int) -> List[int]:
        """The sources whose datasets land at ``receiver`` (0, 1 or 2)."""
        if receiver == self.coordinator:
            return []
        sources = [self.tau[receiver]]
        if receiver == self.redirect_receiver:
            sources.append(self.tau[self.coordinator])
        return sources

    def forwarding_assignments(self) -> Dict[int, int]:
        """``source -> receiver`` for every provider's dataset."""
        return {source: self.receiver_of_source(source) for source in range(self.k)}

    def tag_of_source(self, source: int) -> str:
        """The opaque tag attached to ``source``'s dataset and adaptor."""
        return self.tags[source]

    def source_of_tag(self, tag: str) -> int:
        """Inverse tag lookup (coordinator-side only; the miner never calls
        this — it has no access to the plan)."""
        return self.tags.index(tag)

    def validate(self) -> None:
        """Re-check the structural invariants (used by property tests)."""
        delivered = sorted(
            source
            for receiver in range(self.k)
            for source in self.sources_received_by(receiver)
        )
        if delivered != list(range(self.k)):
            raise ValueError("every dataset must be delivered exactly once")
        if self.sources_received_by(self.coordinator):
            raise ValueError("the coordinator must not receive any dataset")


def draw_exchange_plan(k: int, rng: np.random.Generator) -> ExchangePlan:
    """Sample the paper's randomized exchange plan for ``k`` providers."""
    if k < 2:
        raise ValueError("SAP requires at least 2 providers")
    coordinator = k - 1
    tau = tuple(int(x) for x in rng.permutation(k))
    if k == 2:
        redirect_receiver = 0
    else:
        redirect_receiver = int(rng.integers(k - 1))
    tags = tuple(rng.bytes(12).hex() for _ in range(k))
    plan = ExchangePlan(
        k=k,
        coordinator=coordinator,
        tau=tau,
        redirect_receiver=redirect_receiver,
        tags=tags,
    )
    plan.validate()
    return plan
