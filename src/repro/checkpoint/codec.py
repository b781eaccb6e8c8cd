"""The one value codec: a tagged, length-prefixed walker in two byte layouts.

Checkpoint files, replica frames and simnet message payloads all carry
nested values as bytes, and all of them go through one walker:
:func:`encode` writes a value as a list of byte chunks and :func:`decode`
reads it back by offset.  The value shapes are ``None`` / ``bool`` /
``int`` / ``float`` / ``str`` / ``bytes`` / ``list`` / ``tuple`` /
``dict`` / ``numpy.ndarray`` (dtype + shape + C-order buffer) / numpy
scalars / instances of **registered** dataclasses and enums.  What differs
between the callers is a frozen :class:`Layout` record, which the walker
reads field by field.  There are two:

* :data:`RECORDS` — checkpoint files and replica frames.  They must
  round-trip *exactly*, since a restored session has to replay
  bit-identically, and they must never execute code on load, which rules
  out ``pickle``.  JSON cannot carry numpy arrays, numpy scalar types
  (reservoir labels are ``np.int64``; coercing them to Python ints would
  change downstream ``repr``/dtype behaviour), arbitrary-precision RNG
  state integers, or non-string dictionary keys.  So in this layout ints
  are arbitrary precision (PCG64 state words are 128-bit), dicts keep
  any encodable keys in insertion order, and tuples, numpy scalars and
  registered records keep their types.
* :data:`PAYLOADS` — simnet message payloads
  (:mod:`repro.simnet.messages`).  The network charges each message its
  encoded length (traffic counters and the latency model's delay), so
  this layout's bytes are part of every session's result.  Ints are
  ``>q``, array extents ``>q`` and buffer lengths ``>Q``, dict keys must
  be ``str`` and are written sorted, tuples come back as lists and numpy
  scalars as the Python numbers they hold, and records are refused.

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
and raises :class:`CodecError` at *encode* time, so bytes that were
written can always be read back.  :func:`decode` applies the same limits
to bytes from outside (checkpoint files, replica frames, simnet
deliveries) and raises :class:`CodecError` for every malformed or
truncated input, never another exception type.
"""

from __future__ import annotations

import dataclasses
import enum
import math
import struct
from typing import Any, Dict, Optional, Tuple

import numpy as np

__all__ = [
    "CodecError", "MAX_DEPTH", "Layout", "RECORDS", "PAYLOADS", "register",
    "encode", "decode",
]

#: deepest container nesting either direction accepts; real checkpoint
#: payloads nest about 8 deep, and the bound keeps hostile bytes from
#: exhausting the interpreter stack
MAX_DEPTH = 64


class CodecError(ValueError):
    """An unencodable value or a malformed/truncated byte stream."""


@dataclasses.dataclass(frozen=True)
class Layout:
    """Everything that differs between two byte layouts of one walker.

    ``none``, ``true`` and ``false`` are the whole encodings of those
    values; the ``*_tag`` fields are the bytes written before a value of
    each kind.  A ``tuple_tag`` equal to ``list_tag`` writes tuples as
    lists.  Without a ``scalar_tag`` a numpy integer or floating scalar
    is written as the Python number it holds, and without a
    ``record_tag`` registered records are refused.  ``int_format`` is
    the fixed width of ints, or ``None`` for arbitrary precision (a
    length, then minimal signed big-endian bytes).  ``extent`` and
    ``buffer_length`` are the widths of an array's extents and of its
    buffer's length.  ``str_keys`` requires ``str`` dict keys and writes
    them sorted; otherwise any keys go in insertion order.  Every other
    length and count is ``>I`` and floats are ``>d`` in both layouts.
    """

    none: bytes
    true: bytes
    false: bytes
    int_tag: bytes
    float_tag: bytes
    str_tag: bytes
    bytes_tag: bytes
    list_tag: bytes
    tuple_tag: bytes
    dict_tag: bytes
    array_tag: bytes
    scalar_tag: Optional[bytes]
    record_tag: Optional[bytes]
    int_format: Optional[struct.Struct]
    extent: struct.Struct
    buffer_length: struct.Struct
    str_keys: bool


_U32 = struct.Struct(">I")
_F64 = struct.Struct(">d")

#: numpy's own limit on array dimensions (32 before numpy 2)
_MAX_DIMS = 64

#: checkpoint files and replica frames
RECORDS = Layout(
    none=b"N", true=b"T", false=b"F", int_tag=b"i", float_tag=b"f",
    str_tag=b"s", bytes_tag=b"b", list_tag=b"l", tuple_tag=b"t",
    dict_tag=b"d", array_tag=b"a", scalar_tag=b"x", record_tag=b"r",
    int_format=None, extent=_U32, buffer_length=_U32, str_keys=False,
)

#: simnet message payloads
PAYLOADS = Layout(
    none=b"N", true=b"B\x01", false=b"B\x00", int_tag=b"I", float_tag=b"F",
    str_tag=b"S", bytes_tag=b"Y", list_tag=b"L", tuple_tag=b"L",
    dict_tag=b"D", array_tag=b"A", scalar_tag=None, record_tag=None,
    int_format=struct.Struct(">q"), extent=struct.Struct(">q"),
    buffer_length=struct.Struct(">Q"), str_keys=True,
)


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


def _pack_sized(out: list, raw: bytes) -> None:
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


def _encode_into(value: Any, out: list, depth: int, layout: Layout) -> None:
    # ``True``/``False`` before ``int``: bool is an int subclass.
    if value is None:
        out.append(layout.none)
    elif value is True:
        out.append(layout.true)
    elif value is False:
        out.append(layout.false)
    elif isinstance(value, int):
        out.append(layout.int_tag)
        if layout.int_format is None:
            length = (value.bit_length() + 8) // 8
            _pack_sized(out, value.to_bytes(length, "big", signed=True))
        else:
            out.append(layout.int_format.pack(value))
    elif isinstance(value, float):
        out.append(layout.float_tag)
        out.append(_F64.pack(value))
    elif isinstance(value, str):
        out.append(layout.str_tag)
        _pack_sized(out, value.encode("utf-8"))
    elif isinstance(value, bytes):
        out.append(layout.bytes_tag)
        _pack_sized(out, value)
    elif isinstance(value, dict):
        _check_depth(depth)
        out.append(layout.dict_tag)
        out.append(_U32.pack(len(value)))
        keys = value
        if layout.str_keys:
            for key in value:
                if not isinstance(key, str):
                    raise CodecError(
                        f"dict keys must be str, got {type(key).__name__}"
                    )
            keys = sorted(value)
        for key in keys:
            _encode_into(key, out, depth + 1, layout)
            _encode_into(value[key], out, depth + 1, layout)
    elif isinstance(value, (list, tuple)):
        _check_depth(depth)
        out.append(
            layout.list_tag if isinstance(value, list) else layout.tuple_tag
        )
        out.append(_U32.pack(len(value)))
        for item in value:
            _encode_into(item, out, depth + 1, layout)
    elif isinstance(value, np.ndarray):
        out.append(layout.array_tag)
        _pack_sized(out, _checked_dtype(value.dtype).str.encode("ascii"))
        out.append(_U32.pack(value.ndim))
        out.extend(map(layout.extent.pack, value.shape))
        raw = value.tobytes()
        out.append(layout.buffer_length.pack(len(raw)))
        out.append(raw)
    elif isinstance(value, np.generic):
        if layout.scalar_tag is not None:
            out.append(layout.scalar_tag)
            _pack_sized(out, _checked_dtype(value.dtype).str.encode("ascii"))
            _pack_sized(out, value.tobytes())
        elif isinstance(value, np.integer):
            _encode_into(int(value), out, depth, layout)
        elif isinstance(value, np.floating):
            _encode_into(float(value), out, depth, layout)
        else:
            raise CodecError(f"cannot encode a {type(value).__name__}")
    else:
        cls = type(value)
        names = _FIELDS.get(cls)
        if names is None or layout.record_tag is None:
            raise CodecError(f"cannot encode a {cls.__name__}")
        _check_depth(depth)
        out.append(layout.record_tag)
        _pack_sized(out, cls.__qualname__.encode("utf-8"))
        out.append(_U32.pack(len(names)))
        for name in names:
            _pack_sized(out, name.encode("utf-8"))
            _encode_into(getattr(value, name), out, depth + 1, layout)


def encode(value: Any, layout: Layout = RECORDS) -> bytes:
    """Serialize ``value`` in ``layout`` (see the module docstring)."""
    out: list = []
    try:
        _encode_into(value, out, 1, layout)
    except (struct.error, UnicodeError) as exc:
        # a number or length past its layout's width; a lone surrogate
        raise CodecError(f"cannot encode: {exc}") from exc
    return b"".join(out)


def _truncated() -> CodecError:
    return CodecError("truncated payload")


def _sized(data: bytes, pos: int) -> Tuple[bytes, int]:
    (length,) = _U32.unpack_from(data, pos)
    pos += 4
    end = pos + length
    if end > len(data):
        raise _truncated()
    return data[pos:end], end


def _dtype(data: bytes, pos: int) -> Tuple[np.dtype, int]:
    text, pos = _sized(data, pos)
    try:
        dtype = np.dtype(text.decode("ascii"))
    except (TypeError, ValueError, SyntaxError) as exc:
        # numpy hands comma-separated specs to Python's own parser
        raise CodecError(f"unreadable array dtype {text!r}") from exc
    return _checked_dtype(dtype), pos


def _decode_from(
    data: bytes, pos: int, depth: int, layout: Layout
) -> Tuple[Any, int]:
    """The value whose tag is at ``pos``, and the offset just past it."""
    tag = data[pos:pos + 1]
    if tag == layout.dict_tag:
        _check_depth(depth)
        (count,) = _U32.unpack_from(data, pos + 1)
        pos += 5
        depth += 1
        result = {}
        for _ in range(count):
            key, pos = _decode_from(data, pos, depth, layout)
            result[key], pos = _decode_from(data, pos, depth, layout)
        return result, pos
    if tag == layout.str_tag:
        raw, pos = _sized(data, pos + 1)
        return raw.decode("utf-8"), pos
    if tag == layout.array_tag:
        dtype, pos = _dtype(data, pos + 1)
        (ndim,) = _U32.unpack_from(data, pos)
        if ndim > _MAX_DIMS:
            raise CodecError(f"arrays of {ndim} dimensions are not supported")
        pos += 4
        extent = layout.extent
        shape = []
        for _ in range(ndim):
            shape.append(extent.unpack_from(data, pos)[0])
            pos += extent.size
        (nbytes,) = layout.buffer_length.unpack_from(data, pos)
        pos += layout.buffer_length.size
        end = pos + nbytes
        if end > len(data):
            raise _truncated()
        arr = np.frombuffer(data[pos:end], dtype=dtype)
        if arr.size != math.prod(shape):
            raise CodecError("array extent does not match its buffer")
        # ``frombuffer`` views are read-only; restored state is mutated.
        return arr.reshape(shape).copy(), end
    if tag == layout.int_tag:
        if layout.int_format is None:
            raw, pos = _sized(data, pos + 1)
            return int.from_bytes(raw, "big", signed=True), pos
        return (
            layout.int_format.unpack_from(data, pos + 1)[0],
            pos + 1 + layout.int_format.size,
        )
    if tag == layout.float_tag:
        return _F64.unpack_from(data, pos + 1)[0], pos + 9
    if tag == layout.list_tag or tag == layout.tuple_tag:
        _check_depth(depth)
        (count,) = _U32.unpack_from(data, pos + 1)
        pos += 5
        items = []
        for _ in range(count):
            item, pos = _decode_from(data, pos, depth + 1, layout)
            items.append(item)
        return (items if tag == layout.list_tag else tuple(items)), pos
    if tag == layout.record_tag:
        _check_depth(depth)
        raw, pos = _sized(data, pos + 1)
        name = raw.decode("utf-8")
        cls = _REGISTRY.get(name)
        if cls is None:
            raise CodecError(f"{name!r} is not a registered class")
        (count,) = _U32.unpack_from(data, pos)
        pos += 4
        fields = {}
        for _ in range(count):
            key, pos = _sized(data, pos)
            fields[key.decode("utf-8")], pos = _decode_from(
                data, pos, depth + 1, layout
            )
        expected = _FIELDS[cls]
        if len(fields) != count or fields.keys() != set(expected):
            raise CodecError(
                f"{name} record carries fields {sorted(fields)}; this "
                f"build expects {sorted(expected)}"
            )
        # The constructor is the class's own validation, and arbitrary
        # code: every way it refuses outside bytes becomes a CodecError.
        try:
            return cls(**fields), pos
        except Exception as exc:
            raise CodecError(f"cannot rebuild a {name}: {exc}") from exc
    if tag == layout.scalar_tag:
        dtype, pos = _dtype(data, pos + 1)
        raw, pos = _sized(data, pos)
        arr = np.frombuffer(raw, dtype=dtype)
        if arr.size != 1:
            raise CodecError("numpy scalar buffer is not a single element")
        return arr[0], pos
    if tag == layout.bytes_tag:
        return _sized(data, pos + 1)
    if tag == layout.none:
        return None, pos + 1
    if data.startswith(layout.true, pos):
        return True, pos + len(layout.true)
    if data.startswith(layout.false, pos):
        return False, pos + len(layout.false)
    if not tag:
        raise _truncated()
    raise CodecError(f"unknown value tag {tag!r} at byte {pos}")


def decode(data: bytes, layout: Layout = RECORDS) -> Any:
    """Inverse of :func:`encode`; raises :class:`CodecError` on damage."""
    try:
        value, pos = _decode_from(data, 0, 1, layout)
    except CodecError:
        raise
    except struct.error as exc:
        # ``unpack_from`` refuses a fixed-width field past the end
        raise _truncated() from exc
    except (TypeError, ValueError) as exc:
        # Hostile bytes reach numpy, ``str.decode`` and ``dict`` with
        # values they refuse: a buffer that does not fit its dtype or
        # shape, invalid UTF-8, an unhashable key.
        raise CodecError(f"malformed payload: {exc}") from exc
    if pos != len(data):
        raise CodecError(f"{len(data) - pos} trailing bytes after payload")
    return value
