"""A tiny self-describing binary codec for checkpoint payloads and frames.

Checkpoints must round-trip *exactly* — a restored session has to replay
bit-identically — and they must never execute code on load, which rules
out ``pickle``.  JSON cannot carry numpy arrays, numpy scalar types
(reservoir labels are ``np.int64``; coercing them to Python ints would
change downstream ``repr``/dtype behaviour), arbitrary-precision RNG
state integers, or non-string dictionary keys.  So the payload format is
a small tagged, length-prefixed encoding of exactly these value shapes:

``None`` / ``bool`` / ``int`` (arbitrary precision — PCG64 state words
are 128-bit) / ``float`` / ``str`` / ``bytes`` / ``list`` / ``tuple`` /
``dict`` (any encodable keys, insertion order preserved) /
``numpy.ndarray`` (dtype + shape + C-order buffer) / numpy scalars
(dtype-preserving) / instances of **registered** dataclasses and enums.

The registered tag carries results, stats, configs and session state
without a hand-written mapper per class.  Each defining module calls
:func:`register` on its classes: an explicit allowlist keyed by
``__qualname__`` that refuses a second class under a taken name.  An
instance is written as its registered name, then each field's name and
value (an enum member has one field, ``value``).  ``compare=False``
fields are runtime attachments — telemetry, network ledgers, fitted
models — so they are skipped and come back as their defaults.  Decoding
requires exactly the registered field names and builds the object
through its constructor, so the class's own validation runs.  Bytes can
name nothing outside the allowlist, so there is still no pickle.

Anything else — an unregistered class, object or structured arrays,
containers nested deeper than :data:`MAX_DEPTH` — is a programming error
and raises :class:`CodecError` at *encode* time, so a checkpoint that was
written can always be read back.  :func:`decode` applies the same limits
to bytes from outside (replica frames, checkpoint files) and raises
:class:`CodecError` for every malformed input, never another exception
type.
"""

from __future__ import annotations

import dataclasses
import enum
import struct
from typing import Any, Dict, Tuple

import numpy as np

__all__ = ["CodecError", "MAX_DEPTH", "register", "encode", "decode"]

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
_TAG_RECORD = b"r"

_U32 = struct.Struct(">I")
_F64 = struct.Struct(">d")


#: the allowlist: registered name -> class
_REGISTRY: Dict[str, type] = {}
#: registered class -> the names of the fields its records carry
_FIELDS: Dict[type, Tuple[str, ...]] = {}


def register(cls: type) -> type:
    """Let instances of ``cls`` (a dataclass or an enum) through the codec.

    Usable as a class decorator; returns ``cls``.  Refuses a second class
    under a registered ``__qualname__``.
    """
    name = cls.__qualname__
    if name in _REGISTRY:
        raise TypeError(f"a class named {name!r} is already registered")
    if issubclass(cls, enum.Enum):
        names: Tuple[str, ...] = ("value",)
    elif dataclasses.is_dataclass(cls):
        names = tuple(f.name for f in dataclasses.fields(cls) if f.compare)
    else:
        raise TypeError(f"{name} is neither a dataclass nor an enum")
    _REGISTRY[name] = cls
    _FIELDS[cls] = names
    return cls


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
        cls = type(value)
        names = _FIELDS.get(cls)
        if names is None:
            raise CodecError(
                f"cannot encode a {cls.__name__} into a checkpoint"
            )
        _check_depth(depth)
        out.append(_TAG_RECORD)
        _pack_bytes(out, cls.__qualname__.encode("utf-8"))
        out.append(_U32.pack(len(names)))
        for name in names:
            _pack_bytes(out, name.encode("utf-8"))
            _encode_into(getattr(value, name), out, depth + 1)


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
    if tag == _TAG_RECORD:
        _check_depth(depth)
        name = reader.take_sized().decode("utf-8")
        cls = _REGISTRY.get(name)
        if cls is None:
            raise CodecError(f"{name!r} is not a registered class")
        (count,) = _U32.unpack(reader.take(4))
        fields = {}
        for _ in range(count):
            key = reader.take_sized().decode("utf-8")
            fields[key] = _decode_from(reader, depth + 1)
        expected = _FIELDS[cls]
        if len(fields) != count or fields.keys() != set(expected):
            raise CodecError(
                f"{name} record carries fields {sorted(fields)}; this "
                f"build expects {sorted(expected)}"
            )
        # The constructor is the class's own validation, and arbitrary
        # code: every way it refuses outside bytes becomes a CodecError.
        try:
            return cls(**fields)
        except Exception as exc:
            raise CodecError(f"cannot rebuild a {name}: {exc}") from exc
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
