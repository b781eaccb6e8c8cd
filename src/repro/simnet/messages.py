"""Typed message envelopes exchanged by the SAP roles.

Every protocol interaction is a :class:`Message` with a ``kind`` drawn from
:class:`MessageKind` and a ``payload`` dictionary.  Payloads may contain
numpy arrays; :func:`serialize_payload` / :func:`deserialize_payload` give a
compact self-describing byte encoding so messages can be encrypted on the
wire and so the channel can charge a realistic size to the bandwidth model.

The encoding is the :data:`~repro.checkpoint.codec.PAYLOADS` byte layout
of the repo's one value codec, :mod:`repro.checkpoint.codec`.  It carries
only the value types the protocol needs (``None``, bool, int, float, str,
bytes, lists/tuples, dicts with string keys, numpy arrays, and numpy
numbers as Python ones) and rejects anything else loudly — an
unserializable payload is a protocol bug, not something to paper over with
pickle.  The two functions here add only simnet's error type: every
refusal, on either side, is a :class:`TransportError`, and a payload must
be a dict at its top level.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict

from ..checkpoint.codec import PAYLOADS, CodecError, decode, encode
from .errors import TransportError

__all__ = [
    "MessageKind",
    "Message",
    "serialize_payload",
    "deserialize_payload",
    "payload_nbytes",
]


class MessageKind(enum.Enum):
    """Every message type appearing in the Space Adaptation Protocol."""

    # session management
    SESSION_ANNOUNCE = "session_announce"
    SESSION_ACK = "session_ack"
    # target-space establishment (coordinator -> providers)
    TARGET_PARAMS = "target_params"
    # optional satisfaction-aware target selection (extension)
    TARGET_PROPOSALS = "target_proposals"
    TARGET_VOTE = "target_vote"
    # random-exchange phase (provider -> provider)
    EXCHANGE_ASSIGNMENT = "exchange_assignment"
    PERTURBED_DATASET = "perturbed_dataset"
    # submission phase (provider -> miner)
    FORWARDED_DATASET = "forwarded_dataset"
    # adaptor phase (provider -> coordinator -> miner)
    SPACE_ADAPTOR = "space_adaptor"
    ADAPTOR_SEQUENCE = "adaptor_sequence"
    # results (miner -> providers)
    MODEL_REPORT = "model_report"
    # model service: classify new records in the unified space
    CLASSIFY_REQUEST = "classify_request"
    CLASSIFY_RESPONSE = "classify_response"
    # sharded execution: per-window party batches routed to worker shards
    SHARD_BATCH = "shard_batch"
    SHARD_FORWARD = "shard_forward"
    SHARD_RESULT = "shard_result"
    # generic control
    ABORT = "abort"


@dataclass
class Message:
    """A protocol message between two named principals.

    Attributes
    ----------
    kind:
        The protocol step this message implements.
    sender / recipient:
        Addresses of the endpoints (node names).
    payload:
        Step-specific data; see :mod:`repro.parties` for the schema each
        role produces and expects.
    msg_id:
        Sequence number assigned by the sending node (unique per sender).
    """

    kind: MessageKind
    sender: str
    recipient: str
    payload: Dict[str, Any] = field(default_factory=dict)
    msg_id: int = -1

    def describe(self) -> str:
        """One-line human-readable summary (used in traces and errors)."""
        return (
            f"{self.kind.value} #{self.msg_id} "
            f"{self.sender} -> {self.recipient} ({payload_nbytes(self.payload)} bytes)"
        )


def serialize_payload(payload: Dict[str, Any]) -> bytes:
    """Encode a payload dictionary to bytes (see module docstring)."""
    try:
        return encode(payload, PAYLOADS)
    except CodecError as exc:
        raise TransportError(f"cannot serialize payload: {exc}") from exc


def deserialize_payload(data: bytes) -> Dict[str, Any]:
    """Inverse of :func:`serialize_payload`.

    Malformed bytes raise :class:`TransportError`, never another type.
    """
    try:
        value = decode(data, PAYLOADS)
    except CodecError as exc:
        raise TransportError(f"malformed payload: {exc}") from exc
    if not isinstance(value, dict):
        raise TransportError("top-level payload must be a dict")
    return value


def payload_nbytes(payload: Dict[str, Any]) -> int:
    """Size of the serialized payload; used by the channel bandwidth model."""
    return len(serialize_payload(payload))
