"""The simulated network: channels, latency/bandwidth model, encryption.

A :class:`Network` connects named :class:`~repro.simnet.node.Node` objects
over point-to-point channels.  Every transmission is:

1. serialized (:mod:`repro.simnet.messages`),
2. encrypted under the pairwise key of its endpoints
   (:mod:`repro.simnet.crypto`) — the paper assumes encrypted links,
3. charged a delivery delay ``latency + nbytes / bandwidth``,
4. recorded in the adversary ledgers (:mod:`repro.simnet.adversary`):
   the wire observer sees only ciphertext metadata, the recipient sees
   plaintext.

The default :class:`LatencyModel` draws per-message jitter from the
network's own generator, so runs remain reproducible under a fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Tuple

import numpy as np

from . import crypto
from .adversary import ObservationLedger
from .errors import DuplicateAddressError, TransportError, UnknownAddressError
from .kernel import Simulator
from .messages import Message, deserialize_payload, serialize_payload

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from .node import Node

__all__ = ["LatencyModel", "Network"]


@dataclass
class LatencyModel:
    """Delivery-delay model for a point-to-point transmission.

    ``delay = base_latency + nbytes / bandwidth + U[0, jitter)``

    Parameters
    ----------
    base_latency:
        Fixed propagation delay in seconds.
    bandwidth:
        Link throughput in bytes/second.
    jitter:
        Upper bound of the uniform random jitter term (seconds).
    """

    base_latency: float = 0.010
    bandwidth: float = 12_500_000.0  # 100 Mbit/s
    jitter: float = 0.002

    def delay(self, nbytes: int, rng: np.random.Generator) -> float:
        """Delivery delay for a message of ``nbytes`` serialized bytes.

        The jitter is ``self.jitter * rng.random()``, the value
        ``rng.uniform(0.0, self.jitter)`` computes from the same draw;
        an infinite bound raises ``OverflowError``, as ``uniform`` does.
        """
        jitter = self.jitter
        if jitter > 0:
            if jitter == math.inf:
                raise OverflowError(f"latency jitter must be finite, got {jitter!r}")
            jitter *= rng.random()
        else:
            jitter = 0.0
        return self.base_latency + nbytes / self.bandwidth + jitter


class Network:
    """A set of nodes plus the encrypted transport connecting them.

    Parameters
    ----------
    simulator:
        The event kernel driving delivery.  A fresh one is created when
        omitted.
    latency:
        Default latency model for all links; individual links can be
        overridden with :meth:`set_link_latency`.
    seed:
        Seed for the network's private generator (nonces, jitter).
    """

    def __init__(
        self,
        simulator: Optional[Simulator] = None,
        latency: Optional[LatencyModel] = None,
        seed: int = 0,
        drop_rate: float = 0.0,
    ) -> None:
        if not 0.0 <= drop_rate <= 1.0:
            raise ValueError("drop_rate must be a probability")
        self.simulator = simulator if simulator is not None else Simulator()
        self.default_latency = latency if latency is not None else LatencyModel()
        self.drop_rate = drop_rate
        self._link_latency: Dict[Tuple[str, str], LatencyModel] = {}
        self._blocked_links: set[Tuple[str, str]] = set()
        self._nodes: Dict[str, "Node"] = {}
        self._rng = np.random.default_rng(seed)
        self.ledger = ObservationLedger()
        #: messages and serialized payload bytes accepted for transmission,
        #: and transmissions lost to fault injection (drop rate / blocked
        #: links); public, so a restored session can set them
        self.messages_sent = 0
        self.bytes_sent = 0
        self.messages_dropped = 0

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register(self, node: "Node") -> None:
        """Attach a node; its :attr:`name` becomes its address."""
        if node.name in self._nodes:
            raise DuplicateAddressError(node.name)
        self._nodes[node.name] = node

    def node(self, name: str) -> "Node":
        """Look up a registered node by address."""
        try:
            return self._nodes[name]
        except KeyError:
            raise UnknownAddressError(name) from None

    @property
    def addresses(self) -> Tuple[str, ...]:
        """All registered addresses, in registration order."""
        return tuple(self._nodes)

    def set_link_latency(self, sender: str, recipient: str, model: LatencyModel) -> None:
        """Override the latency model for one directed link."""
        self._link_latency[(sender, recipient)] = model

    def block_link(self, sender: str, recipient: str) -> None:
        """Fault injection: silently drop everything on one directed link
        (models a partition or a crashed peer from the sender's view)."""
        self._blocked_links.add((sender, recipient))

    def unblock_link(self, sender: str, recipient: str) -> None:
        """Heal a previously blocked link."""
        self._blocked_links.discard((sender, recipient))

    # ------------------------------------------------------------------
    # transmission
    # ------------------------------------------------------------------
    def send(self, message: Message) -> None:
        """Encrypt, delay, and deliver ``message`` to its recipient.

        Raises
        ------
        UnknownAddressError
            If the recipient is not registered (checked at send time: the
            sender is simulated software that must know its peers).
        """
        if message.recipient not in self._nodes:
            raise UnknownAddressError(message.recipient)
        plaintext = serialize_payload(message.payload)
        key = crypto.derive_key(message.sender, message.recipient)
        ciphertext = crypto.encrypt(key, plaintext, self._rng)

        self.messages_sent += 1
        self.bytes_sent += len(plaintext)

        # A wire eavesdropper learns endpoints, timing, and size — not content.
        self.ledger.record_wire(
            time=self.simulator.now,
            sender=message.sender,
            recipient=message.recipient,
            kind=message.kind,
            nbytes=len(ciphertext),
        )

        # Fault injection: the transmission happened (the eavesdropper saw
        # it) but the recipient never gets it.
        if (message.sender, message.recipient) in self._blocked_links or (
            self.drop_rate > 0.0 and self._rng.random() < self.drop_rate
        ):
            self.messages_dropped += 1
            return

        model = self._link_latency.get(
            (message.sender, message.recipient), self.default_latency
        )
        delay = model.delay(len(plaintext), self._rng)

        def deliver() -> None:
            recovered = crypto.decrypt(key, ciphertext)
            payload = deserialize_payload(recovered)
            if payload.keys() != message.payload.keys():
                raise TransportError(
                    f"payload corrupted in transit for {message.describe()}"
                )
            delivered = Message(
                kind=message.kind,
                sender=message.sender,
                recipient=message.recipient,
                payload=payload,
                msg_id=message.msg_id,
            )
            self.ledger.record_endpoint(
                time=self.simulator.now,
                observer=message.recipient,
                message=delivered,
            )
            self._nodes[message.recipient].receive(delivered)

        self.simulator.schedule(delay, deliver)

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Convenience pass-through to :meth:`Simulator.run`."""
        return self.simulator.run(until=until, max_events=max_events)
