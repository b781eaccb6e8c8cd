"""The replica wire protocol: length-prefixed frames of codec payloads.

One frame is a 4-byte big-endian unsigned length followed by exactly that
many bytes of :mod:`repro.checkpoint.codec` data encoding a single dict —
the same pickle-free tagged format the checkpoint files use, so numpy
arrays, big integers, insertion-ordered mappings, and registered
dataclasses (session results, service stats) cross the process boundary
exactly.  On top of frames sit two message shapes:

* a **request** ``{"op": <str>, ...}`` — one operation of the narrow
  replica surface (submit / poll / result / cancel / evict / resume /
  stats / ping / close / shutdown);
* a **response** ``{"ok": True, "value": ...}`` or ``{"ok": False,
  "error": <message>, "error_type": <name>}`` — errors are re-raised on
  the calling side as the closest local exception type, so admission
  refusals and checkpoint damage keep their distinct classes across the
  wire.

Every malformed input is a :class:`TransportError` with a distinct,
friendly message — a truncated length prefix, a truncated body, an
implausibly huge frame (corrupt prefix), an undecodable payload, a
non-mapping payload.  Reads never block past the bytes the peer actually
sent mid-frame; a clean EOF *between* frames reads as ``None`` (the peer
closed), never as an error.  The frame functions work against anything
with ``recv``/``sendall`` (sockets) or ``read``/``write`` (pipes,
``io.BytesIO``) — which is what makes the fuzz tests cheap.
"""

from __future__ import annotations

import struct
from typing import Any, Dict, Optional

from ..checkpoint import CheckpointError, CodecError, decode, encode
from ..serve.engine import AdmissionError

__all__ = [
    "MAX_FRAME_BYTES",
    "TransportError",
    "read_frame",
    "write_frame",
    "ok_response",
    "error_response",
    "unwrap_response",
]

_LENGTH = struct.Struct(">I")

#: refuse frames claiming more than this many payload bytes — a corrupt
#: or adversarial length prefix must fail fast, not allocate gigabytes
MAX_FRAME_BYTES = 256 * 1024 * 1024


class TransportError(ValueError):
    """A malformed frame or a replica connection in a broken state."""


def _read_exact(stream: Any, n: int) -> bytes:
    """Read exactly ``n`` bytes; returns what arrived before EOF."""
    chunks = []
    remaining = n
    receiver = getattr(stream, "recv", None)
    while remaining > 0:
        if receiver is not None:
            chunk = receiver(remaining)
        else:
            chunk = stream.read(remaining)
        if not chunk:
            break
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def _write_all(stream: Any, data: bytes) -> None:
    sender = getattr(stream, "sendall", None)
    if sender is not None:
        sender(data)
        return
    stream.write(data)
    flush = getattr(stream, "flush", None)
    if flush is not None:
        flush()


def write_frame(stream: Any, payload: Dict[str, Any]) -> int:
    """Encode one mapping and send it as a frame; returns bytes written."""
    if not isinstance(payload, dict):
        raise TransportError(
            f"a frame payload must be a mapping, got {type(payload).__name__}"
        )
    try:
        body = encode(payload)
    except CodecError as exc:
        raise TransportError(f"cannot encode frame payload: {exc}") from exc
    frame = _LENGTH.pack(len(body)) + body
    _write_all(stream, frame)
    return len(frame)


def read_frame(stream: Any) -> Optional[Dict[str, Any]]:
    """Read one frame; ``None`` on a clean EOF before any prefix byte.

    Raises :class:`TransportError` for every damaged shape: a length
    prefix cut short, a body shorter than its prefix promised, a prefix
    claiming more than :data:`MAX_FRAME_BYTES`, bytes the codec cannot
    decode, or a decoded payload that is not a mapping.
    """
    prefix = _read_exact(stream, _LENGTH.size)
    if not prefix:
        return None
    if len(prefix) < _LENGTH.size:
        raise TransportError(
            f"truncated frame: got {len(prefix)} of {_LENGTH.size} length "
            f"prefix bytes before EOF"
        )
    (length,) = _LENGTH.unpack(prefix)
    if length > MAX_FRAME_BYTES:
        raise TransportError(
            f"frame claims {length} bytes (limit {MAX_FRAME_BYTES}); "
            f"refusing a corrupt or hostile length prefix"
        )
    body = _read_exact(stream, length)
    if len(body) < length:
        raise TransportError(
            f"truncated frame: got {len(body)} of {length} payload bytes "
            f"before EOF"
        )
    try:
        payload = decode(body)
    except CodecError as exc:
        raise TransportError(f"cannot decode frame payload: {exc}") from exc
    if not isinstance(payload, dict):
        raise TransportError(
            f"frame payload must be a mapping, got {type(payload).__name__}"
        )
    return payload


# ----------------------------------------------------------------------
# request/response envelopes
# ----------------------------------------------------------------------
#: exception classes that keep their identity across the wire; anything
#: else degrades to RuntimeError carrying the original type's name
_ERROR_TYPES = {
    "AdmissionError": AdmissionError,
    "CheckpointError": CheckpointError,
    "CodecError": CodecError,
    "TransportError": TransportError,
    "ValueError": ValueError,
    "KeyError": KeyError,
    "TypeError": TypeError,
    "RuntimeError": RuntimeError,
}


def ok_response(value: Any = None) -> Dict[str, Any]:
    """The success envelope for one replica operation."""
    return {"ok": True, "value": value}


def error_response(exc: BaseException) -> Dict[str, Any]:
    """The failure envelope: message plus the exception's type name."""
    return {"ok": False, "error": str(exc), "error_type": type(exc).__name__}


def unwrap_response(response: Optional[Dict[str, Any]]) -> Any:
    """Return a response's value, re-raising a carried error locally.

    The error type is mapped back to the closest local class (admission
    refusals stay :class:`AdmissionError`, checkpoint damage stays
    :class:`CheckpointError`, ...); unknown types surface as
    :class:`RuntimeError` prefixed with the remote type's name.
    """
    if response is None:
        raise TransportError("replica closed the connection mid-request")
    if response.get("ok"):
        return response.get("value")
    message = str(response.get("error", "unknown replica error"))
    type_name = str(response.get("error_type", "RuntimeError"))
    error_type = _ERROR_TYPES.get(type_name)
    if error_type is None:
        raise RuntimeError(f"{type_name}: {message}")
    raise error_type(message)
