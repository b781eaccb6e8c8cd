"""Typed message envelopes exchanged by the SAP roles.

Every protocol interaction is a :class:`Message` with a ``kind`` drawn from
:class:`MessageKind` and a ``payload`` dictionary.  Payloads may contain
numpy arrays; :func:`serialize_payload` / :func:`deserialize_payload` give a
compact self-describing byte encoding so messages can be encrypted on the
wire and so the channel can charge a realistic size to the bandwidth model.

The serializer intentionally supports only the value types the protocol
needs (``None``, bool, int, float, str, bytes, lists/tuples, dicts with
string keys, and numpy arrays) and rejects anything else loudly — an
unserializable payload is a protocol bug, not something to paper over with
pickle.
"""

from __future__ import annotations

import enum
import io
import struct
from dataclasses import dataclass, field
from typing import Any, Dict

import numpy as np

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


# ----------------------------------------------------------------------
# payload serialization
# ----------------------------------------------------------------------
_TAG_NONE = b"N"
_TAG_BOOL = b"B"
_TAG_INT = b"I"
_TAG_FLOAT = b"F"
_TAG_STR = b"S"
_TAG_BYTES = b"Y"
_TAG_LIST = b"L"
_TAG_DICT = b"D"
_TAG_ARRAY = b"A"


def _write_value(out: io.BytesIO, value: Any) -> None:
    if value is None:
        out.write(_TAG_NONE)
    elif isinstance(value, bool):  # must precede int: bool is an int subclass
        out.write(_TAG_BOOL)
        out.write(b"\x01" if value else b"\x00")
    elif isinstance(value, (int, np.integer)):
        out.write(_TAG_INT)
        out.write(struct.pack(">q", int(value)))
    elif isinstance(value, (float, np.floating)):
        out.write(_TAG_FLOAT)
        out.write(struct.pack(">d", float(value)))
    elif isinstance(value, str):
        encoded = value.encode("utf-8")
        out.write(_TAG_STR)
        out.write(struct.pack(">I", len(encoded)))
        out.write(encoded)
    elif isinstance(value, bytes):
        out.write(_TAG_BYTES)
        out.write(struct.pack(">I", len(value)))
        out.write(value)
    elif isinstance(value, (list, tuple)):
        out.write(_TAG_LIST)
        out.write(struct.pack(">I", len(value)))
        for item in value:
            _write_value(out, item)
    elif isinstance(value, dict):
        out.write(_TAG_DICT)
        out.write(struct.pack(">I", len(value)))
        for key in sorted(value):
            if not isinstance(key, str):
                raise TransportError(
                    f"payload dict keys must be str, got {type(key).__name__}"
                )
            _write_value(out, key)
            _write_value(out, value[key])
    elif isinstance(value, np.ndarray):
        data = np.ascontiguousarray(value)
        dtype_name = data.dtype.str.encode("ascii")
        out.write(_TAG_ARRAY)
        out.write(struct.pack(">I", len(dtype_name)))
        out.write(dtype_name)
        out.write(struct.pack(">I", data.ndim))
        for dim in data.shape:
            out.write(struct.pack(">q", dim))
        raw = data.tobytes()
        out.write(struct.pack(">Q", len(raw)))
        out.write(raw)
    else:
        raise TransportError(
            f"payload value of type {type(value).__name__} is not serializable"
        )


def _read_exact(buf: io.BytesIO, count: int) -> bytes:
    data = buf.read(count)
    if len(data) != count:
        raise TransportError("truncated payload")
    return data


def _read_value(buf: io.BytesIO) -> Any:
    tag = _read_exact(buf, 1)
    if tag == _TAG_NONE:
        return None
    if tag == _TAG_BOOL:
        return _read_exact(buf, 1) == b"\x01"
    if tag == _TAG_INT:
        return struct.unpack(">q", _read_exact(buf, 8))[0]
    if tag == _TAG_FLOAT:
        return struct.unpack(">d", _read_exact(buf, 8))[0]
    if tag == _TAG_STR:
        (length,) = struct.unpack(">I", _read_exact(buf, 4))
        return _read_exact(buf, length).decode("utf-8")
    if tag == _TAG_BYTES:
        (length,) = struct.unpack(">I", _read_exact(buf, 4))
        return _read_exact(buf, length)
    if tag == _TAG_LIST:
        (count,) = struct.unpack(">I", _read_exact(buf, 4))
        return [_read_value(buf) for _ in range(count)]
    if tag == _TAG_DICT:
        (count,) = struct.unpack(">I", _read_exact(buf, 4))
        result = {}
        for _ in range(count):
            key = _read_value(buf)
            result[key] = _read_value(buf)
        return result
    if tag == _TAG_ARRAY:
        (dtype_len,) = struct.unpack(">I", _read_exact(buf, 4))
        dtype = np.dtype(_read_exact(buf, dtype_len).decode("ascii"))
        (ndim,) = struct.unpack(">I", _read_exact(buf, 4))
        shape = tuple(
            struct.unpack(">q", _read_exact(buf, 8))[0] for _ in range(ndim)
        )
        (nbytes,) = struct.unpack(">Q", _read_exact(buf, 8))
        raw = _read_exact(buf, nbytes)
        return np.frombuffer(raw, dtype=dtype).reshape(shape).copy()
    raise TransportError(f"unknown payload tag {tag!r}")


def serialize_payload(payload: Dict[str, Any]) -> bytes:
    """Encode a payload dictionary to bytes (see module docstring)."""
    out = io.BytesIO()
    _write_value(out, payload)
    return out.getvalue()


def deserialize_payload(data: bytes) -> Dict[str, Any]:
    """Inverse of :func:`serialize_payload`.

    Malformed bytes raise :class:`TransportError`, never another type.
    """
    buf = io.BytesIO(data)
    try:
        value = _read_value(buf)
    except (
        TypeError, ValueError, SyntaxError, OverflowError, RecursionError
    ) as exc:
        # Caught once here rather than per value: hostile bytes reach
        # numpy, ``str.decode``, ``dict`` and ``read`` with values they
        # refuse (an unparsable dtype, a buffer that does not fit its
        # shape, invalid UTF-8, an unhashable key, a length past the
        # index range) or nest past the interpreter stack.
        raise TransportError(f"malformed payload: {exc}") from exc
    if buf.read(1):
        raise TransportError("trailing bytes after payload")
    if not isinstance(value, dict):
        raise TransportError("top-level payload must be a dict")
    return value


def payload_nbytes(payload: Dict[str, Any]) -> int:
    """Size of the serialized payload; used by the channel bandwidth model."""
    return len(serialize_payload(payload))
