"""Semi-honest adversary views and identifiability auditing.

The SAP privacy argument is an *information-flow* claim: after the random
exchange, the service provider cannot attribute a dataset to its owner with
probability better than ``1/(k-1)``.  To check such claims empirically the
network records what every principal could observe:

* :meth:`ObservationLedger.record_wire` — what a passive eavesdropper on the
  encrypted link sees: endpoints, timing, message kind, ciphertext size.
* :meth:`ObservationLedger.record_endpoint` — what the *recipient* sees: the
  decrypted message, i.e. its full semi-honest view contribution.

:func:`posterior_over_sources` and :func:`empirical_identifiability` turn
Monte-Carlo protocol runs into the posterior ``Pr(source | forwarder)`` the
paper's ``pi_i`` quantifies.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from .messages import Message, MessageKind

__all__ = [
    "WireObservation",
    "EndpointObservation",
    "ObservationLedger",
    "posterior_over_sources",
    "empirical_identifiability",
]


@dataclass(frozen=True)
class WireObservation:
    """What a passive network eavesdropper sees for one transmission."""

    time: float
    sender: str
    recipient: str
    kind: MessageKind
    nbytes: int


@dataclass(frozen=True)
class EndpointObservation:
    """A decrypted message as observed by its recipient."""

    time: float
    observer: str
    kind: MessageKind
    sender: str
    payload_keys: Tuple[str, ...]
    message: Message


@dataclass
class ObservationLedger:
    """Accumulates per-principal views over a protocol run."""

    wire: List[WireObservation] = field(default_factory=list)
    endpoint: List[EndpointObservation] = field(default_factory=list)

    def record_wire(
        self, time: float, sender: str, recipient: str, kind: MessageKind, nbytes: int
    ) -> None:
        """Record the eavesdropper view of one transmission."""
        self.wire.append(WireObservation(time, sender, recipient, kind, nbytes))

    def record_endpoint(self, time: float, observer: str, message: Message) -> None:
        """Record the recipient view of one delivered message."""
        self.endpoint.append(
            EndpointObservation(
                time, observer, message.kind, message.sender,
                tuple(sorted(message.payload)), message,
            )
        )

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def view_of(self, principal: str) -> List[EndpointObservation]:
        """Every decrypted message ``principal`` received, in order."""
        return [obs for obs in self.endpoint if obs.observer == principal]

    def plaintexts_seen_by(self, principal: str, kind: MessageKind) -> List[Message]:
        """Messages of one kind in a principal's decrypted view."""
        return [obs.message for obs in self.view_of(principal) if obs.kind == kind]

    def wire_traffic(self, sender: str | None = None) -> List[WireObservation]:
        """Eavesdropper records, optionally filtered by sender."""
        if sender is None:
            return list(self.wire)
        return [obs for obs in self.wire if obs.sender == sender]

    def principals(self) -> Tuple[str, ...]:
        """All principals that received at least one message."""
        seen: Dict[str, None] = {}
        for obs in self.endpoint:
            seen.setdefault(obs.observer, None)
        return tuple(seen)


def posterior_over_sources(
    assignments: Iterable[Tuple[str, str]]
) -> Dict[str, Dict[str, float]]:
    """Empirical posterior ``Pr(source | forwarder)`` from Monte-Carlo runs.

    Parameters
    ----------
    assignments:
        ``(forwarder, true_source)`` pairs collected over many independent
        protocol executions.

    Returns
    -------
    dict
        ``posterior[forwarder][source]`` — the fraction of runs in which the
        dataset forwarded by ``forwarder`` originated at ``source``.
    """
    counts: Dict[str, Counter] = {}
    for forwarder, source in assignments:
        counts.setdefault(forwarder, Counter())[source] += 1
    posterior: Dict[str, Dict[str, float]] = {}
    for forwarder, counter in counts.items():
        total = sum(counter.values())
        posterior[forwarder] = {
            source: count / total for source, count in counter.items()
        }
    return posterior


def empirical_identifiability(
    assignments: Sequence[Tuple[str, str]]
) -> Dict[str, float]:
    """Worst-case attribution probability per *source*.

    For each data provider ``DP_i`` this is the adversary's best posterior
    probability of attributing some forwarded dataset to ``DP_i`` — the
    empirical counterpart of the paper's ``pi_i``.  Under a correct SAP run
    with ``k`` providers this converges to ``1/(k-1)``.
    """
    posterior = posterior_over_sources(assignments)
    sources = {source for _, source in assignments}
    result: Dict[str, float] = {}
    for source in sources:
        best = 0.0
        for per_forwarder in posterior.values():
            best = max(best, per_forwarder.get(source, 0.0))
        result[source] = best
    return result
