"""Node base class: an addressable protocol participant.

A :class:`Node` owns a private seeded generator, an outbound message
counter, and a dispatch table mapping :class:`MessageKind` values to
handler methods named ``on_<kind>`` (for example ``on_perturbed_dataset``).
Subclasses in :mod:`repro.parties` implement the SAP roles.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

import numpy as np

from .channel import Network
from .errors import ProtocolViolationError
from .messages import Message, MessageKind

__all__ = ["Node"]

#: the name of each message kind's handler method
_HANDLER_NAMES = {kind: f"on_{kind.value}" for kind in MessageKind}


class Node:
    """An addressable participant attached to a :class:`Network`.

    Parameters
    ----------
    name:
        Unique address on the network.
    network:
        The network to register with.
    seed:
        Seed for this node's private generator.  Every role derives all of
        its randomness (perturbation parameters, permutations, nonces) from
        this generator so a run is reproducible end to end.
    """

    def __init__(self, name: str, network: Network, seed: int = 0) -> None:
        self.name = name
        self.network = network
        self.rng = np.random.default_rng(seed)
        self.inbox: List[Message] = []
        self._next_msg_id = 0
        network.register(self)

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------
    def send(
        self,
        kind: MessageKind,
        recipient: str,
        payload: Optional[Dict[str, Any]] = None,
    ) -> Message:
        """Build a message, stamp it with a per-sender id, and transmit it."""
        message = Message(
            kind=kind,
            sender=self.name,
            recipient=recipient,
            payload=dict(payload or {}),
            msg_id=self._next_msg_id,
        )
        self._next_msg_id += 1
        self.network.send(message)
        return message

    # ------------------------------------------------------------------
    # receiving
    # ------------------------------------------------------------------
    def receive(self, message: Message) -> None:
        """Entry point called by the network on delivery.

        Appends to :attr:`inbox` then dispatches to ``on_<kind>`` if the
        subclass defines it; otherwise raises — silently dropped protocol
        messages hide bugs.
        """
        self.inbox.append(message)
        handler = self._handler_for(message.kind)
        if handler is None:
            raise ProtocolViolationError(
                f"{type(self).__name__} {self.name!r} has no handler for "
                f"{message.describe()}"
            )
        handler(message)

    def _handler_for(self, kind: MessageKind) -> Optional[Callable[[Message], None]]:
        return getattr(self, _HANDLER_NAMES[kind], None)

    # ------------------------------------------------------------------
    # conveniences for subclasses and tests
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time."""
        return self.network.simulator.now

    def received(self, kind: MessageKind) -> List[Message]:
        """All inbox messages of one kind, in arrival order."""
        return [msg for msg in self.inbox if msg.kind == kind]

    def expect_exactly(self, kind: MessageKind, count: int) -> List[Message]:
        """Assert the inbox holds exactly ``count`` messages of ``kind``."""
        messages = self.received(kind)
        if len(messages) != count:
            raise ProtocolViolationError(
                f"{self.name!r} expected {count} {kind.value} message(s), "
                f"has {len(messages)}"
            )
        return messages

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r} inbox={len(self.inbox)}>"
