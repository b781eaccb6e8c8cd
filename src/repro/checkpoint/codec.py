"""A tiny self-describing binary codec for checkpoint payloads.

Checkpoints must round-trip *exactly* — a restored session has to replay
bit-identically — and they must never execute code on load, which rules
out ``pickle``.  JSON cannot carry numpy arrays, numpy scalar types
(reservoir labels are ``np.int64``; coercing them to Python ints would
change downstream ``repr``/dtype behaviour), arbitrary-precision RNG
state integers, or non-string dictionary keys.  So the payload format is
a small tagged, length-prefixed encoding of exactly the value shapes a
:class:`~repro.checkpoint.SessionCheckpoint` contains:

``None`` / ``bool`` / ``int`` (arbitrary precision — PCG64 state words
are 128-bit) / ``float`` / ``str`` / ``bytes`` / ``list`` / ``tuple`` /
``dict`` (any encodable keys, insertion order preserved) /
``numpy.ndarray`` (dtype + shape + C-order buffer) / numpy scalars
(dtype-preserving).

Anything else — including object or structured arrays and containers
nested deeper than :data:`MAX_DEPTH` — is a programming error and raises
:class:`CodecError` at *encode* time, so a checkpoint that was written can
always be read back.  :func:`decode` applies the same limits to bytes from
outside (replica frames, checkpoint files) and raises :class:`CodecError`
for every malformed input, never another exception type.
"""

from __future__ import annotations

import struct
from typing import Any

import numpy as np

__all__ = ["CodecError", "MAX_DEPTH", "encode", "decode"]

#: deepest container nesting either direction accepts; real checkpoint
#: payloads nest about 8 deep, and the bound keeps hostile bytes from
#: exhausting the interpreter stack
MAX_DEPTH = 64


class CodecError(ValueError):
    """An unencodable value or a malformed/truncated byte stream."""


_TAG_NONE = b"N"
_TAG_TRUE = b"T"
_TAG_FALSE = b"F"
_TAG_INT = b"i"
_TAG_FLOAT = b"f"
_TAG_STR = b"s"
_TAG_BYTES = b"b"
_TAG_LIST = b"l"
_TAG_TUPLE = b"t"
_TAG_DICT = b"d"
_TAG_ARRAY = b"a"
_TAG_NPSCALAR = b"x"

_U32 = struct.Struct(">I")
_F64 = struct.Struct(">d")


def _pack_bytes(out: list, raw: bytes) -> None:
    out.append(_U32.pack(len(raw)))
    out.append(raw)


def _checked_dtype(dtype: np.dtype) -> np.dtype:
    # Subarray dtypes only arrive from outside: numpy never gives an
    # array or scalar one, so ``encode`` cannot have written it.
    if (
        dtype.hasobject
        or dtype.names is not None
        or dtype.subdtype is not None
    ):
        raise CodecError(f"arrays of dtype {dtype!r} are not supported")
    return dtype


def _check_depth(depth: int) -> None:
    if depth > MAX_DEPTH:
        raise CodecError(f"containers nested deeper than {MAX_DEPTH}")


def _encode_into(value: Any, out: list, depth: int) -> None:
    # ``bool`` before ``int``: bool is an int subclass.
    if value is None:
        out.append(_TAG_NONE)
    elif value is True:
        out.append(_TAG_TRUE)
    elif value is False:
        out.append(_TAG_FALSE)
    elif isinstance(value, int):
        out.append(_TAG_INT)
        # Signed, minimal-length big-endian: covers counters and the
        # 128-bit PCG64 state words alike.
        length = (value.bit_length() + 8) // 8 or 1
        _pack_bytes(out, value.to_bytes(length, "big", signed=True))
    elif isinstance(value, float):
        out.append(_TAG_FLOAT)
        out.append(_F64.pack(value))
    elif isinstance(value, str):
        out.append(_TAG_STR)
        _pack_bytes(out, value.encode("utf-8"))
    elif isinstance(value, bytes):
        out.append(_TAG_BYTES)
        _pack_bytes(out, value)
    elif isinstance(value, (list, tuple)):
        _check_depth(depth)
        out.append(_TAG_LIST if isinstance(value, list) else _TAG_TUPLE)
        out.append(_U32.pack(len(value)))
        for item in value:
            _encode_into(item, out, depth + 1)
    elif isinstance(value, dict):
        _check_depth(depth)
        out.append(_TAG_DICT)
        out.append(_U32.pack(len(value)))
        for key, item in value.items():
            _encode_into(key, out, depth + 1)
            _encode_into(item, out, depth + 1)
    elif isinstance(value, np.ndarray):
        _checked_dtype(value.dtype)
        out.append(_TAG_ARRAY)
        _pack_bytes(out, value.dtype.str.encode("ascii"))
        out.append(_U32.pack(value.ndim))
        for extent in value.shape:
            out.append(_U32.pack(extent))
        _pack_bytes(out, np.ascontiguousarray(value).tobytes())
    elif isinstance(value, np.generic):
        out.append(_TAG_NPSCALAR)
        arr = np.asarray(value)
        _pack_bytes(out, arr.dtype.str.encode("ascii"))
        _pack_bytes(out, arr.tobytes())
    else:
        raise CodecError(
            f"cannot encode a {type(value).__name__} into a checkpoint"
        )


def encode(value: Any) -> bytes:
    """Serialize ``value`` into the tagged binary payload format."""
    out: list = []
    _encode_into(value, out, 1)
    return b"".join(out)


class _Reader:
    __slots__ = ("data", "pos")

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        end = self.pos + n
        if end > len(self.data):
            raise CodecError("truncated checkpoint payload")
        chunk = self.data[self.pos:end]
        self.pos = end
        return chunk

    def take_sized(self) -> bytes:
        (length,) = _U32.unpack(self.take(4))
        return self.take(length)

    def take_dtype(self) -> np.dtype:
        text = self.take_sized()
        try:
            dtype = np.dtype(text.decode("ascii"))
        except (TypeError, ValueError, SyntaxError) as exc:
            # numpy hands comma-separated specs to Python's own parser
            raise CodecError(f"unreadable array dtype {text!r}") from exc
        return _checked_dtype(dtype)


def _decode_from(reader: _Reader, depth: int) -> Any:
    tag = reader.take(1)
    if tag == _TAG_NONE:
        return None
    if tag == _TAG_TRUE:
        return True
    if tag == _TAG_FALSE:
        return False
    if tag == _TAG_INT:
        return int.from_bytes(reader.take_sized(), "big", signed=True)
    if tag == _TAG_FLOAT:
        return _F64.unpack(reader.take(8))[0]
    if tag == _TAG_STR:
        return reader.take_sized().decode("utf-8")
    if tag == _TAG_BYTES:
        return reader.take_sized()
    if tag in (_TAG_LIST, _TAG_TUPLE):
        _check_depth(depth)
        (count,) = _U32.unpack(reader.take(4))
        items = [_decode_from(reader, depth + 1) for _ in range(count)]
        return items if tag == _TAG_LIST else tuple(items)
    if tag == _TAG_DICT:
        _check_depth(depth)
        (count,) = _U32.unpack(reader.take(4))
        result = {}
        for _ in range(count):
            key = _decode_from(reader, depth + 1)
            result[key] = _decode_from(reader, depth + 1)
        return result
    if tag == _TAG_ARRAY:
        dtype = reader.take_dtype()
        (ndim,) = _U32.unpack(reader.take(4))
        shape = tuple(
            _U32.unpack(reader.take(4))[0] for _ in range(ndim)
        )
        raw = reader.take_sized()
        arr = np.frombuffer(raw, dtype=dtype)
        if arr.size != int(np.prod(shape, dtype=np.int64)):
            raise CodecError("array extent does not match its buffer")
        # ``frombuffer`` views are read-only; restored state is mutated.
        return arr.reshape(shape).copy()
    if tag == _TAG_NPSCALAR:
        dtype = reader.take_dtype()
        raw = reader.take_sized()
        arr = np.frombuffer(raw, dtype=dtype)
        if arr.size != 1:
            raise CodecError("numpy scalar buffer is not a single element")
        return arr[0]
    raise CodecError(f"unknown payload tag {tag!r}")


def decode(data: bytes) -> Any:
    """Inverse of :func:`encode`; raises :class:`CodecError` on damage."""
    reader = _Reader(data)
    try:
        value = _decode_from(reader, 1)
    except CodecError:
        raise
    except (TypeError, ValueError) as exc:
        # Hostile bytes reach numpy, ``str.decode`` and ``dict`` with
        # values they refuse: a buffer that does not fit its dtype or
        # shape, invalid UTF-8, an unhashable key.
        raise CodecError(f"malformed checkpoint payload: {exc}") from exc
    if reader.pos != len(data):
        raise CodecError(
            f"{len(data) - reader.pos} trailing bytes after checkpoint payload"
        )
    return value
