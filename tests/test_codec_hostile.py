"""Hostile bytes through the checkpoint codec and the layers that use it.

``codec.decode`` reads checkpoint files and replica frames, and both
callers catch :class:`CodecError` only, so every malformed payload must
surface as that type: ``loads_checkpoint`` then refuses it as a
:class:`CheckpointError` even when the file's digest is valid, and
``read_frame`` as a :class:`TransportError`.  That includes registered
records whose class, field names or values the build refuses.
"""

import dataclasses
import hashlib
import io
import struct

import numpy as np
import pytest

from repro.checkpoint import (
    SCHEMA_VERSION,
    CheckpointError,
    CodecError,
    decode,
    encode,
    loads_checkpoint,
)
from repro.checkpoint.checkpoint import _HEADER, MAGIC
from repro.checkpoint.codec import MAX_DEPTH
from repro.cluster import TransportError, read_frame
from repro.streaming import StreamConfig


def _u32(value):
    return struct.pack(">I", value)


def _sized(raw):
    return _u32(len(raw)) + raw


def _array(dtype, shape, raw):
    return (
        b"a" + _sized(dtype) + _u32(len(shape))
        + b"".join(_u32(extent) for extent in shape) + _sized(raw)
    )


def _record(name, **fields):
    return b"r" + _sized(name.encode()) + _u32(len(fields)) + b"".join(
        _sized(key.encode()) + encode(value) for key, value in fields.items()
    )


_CONFIG = {
    f.name: getattr(StreamConfig(), f.name)
    for f in dataclasses.fields(StreamConfig)
    if f.compare
}


HOSTILE = {
    "deep-nesting": (b"l" + _u32(1)) * 5000 + b"N",
    "junk-dtype": _array(b"zzz", (1,), bytes(8)),
    "unparsable-dtype": _array(b"f8,(", (1,), bytes(8)),
    "subarray-dtype": _array(b"(2,)<f8", (2,), bytes(16)),
    "object-dtype": _array(b"|O", (1,), bytes(8)),
    "structured-dtype": _array(b"i4,f8", (1,), bytes(12)),
    "object-scalar": b"x" + _sized(b"|O") + _sized(bytes(8)),
    "invalid-utf8": b"s" + _sized(b"\xff\xfe"),
    "list-dict-key": b"d" + _u32(1) + b"l" + _u32(0) + b"N",
    "ragged-buffer": _array(b"<f8", (1,), bytes(7)),
    # any extents match an empty buffer of a zero-itemsize dtype
    "zero-itemsize-dtype": _array(b"|S0", (2**32 - 1,) * 3, b""),
    "too-many-dims": _array(b"<f8", (1,) * 65, bytes(8)),
    "unknown-class": _record("Pickle", window=0),
    "missing-field": _record("TrustChange", window=0, party=1),
    "extra-field": _record("TrustChange", window=0, party=1, trust=0.5, x=1),
    "renamed-field": _record("TrustChange", window=0, party=1, trusts=0.5),
    "constructor-refuses": _record("StreamConfig", **dict(_CONFIG, k=1)),
    "0d-translation": _record(
        "GeometricPerturbation",
        rotation=np.eye(1),
        translation=np.asarray(1.0),
        noise_sigma=0.0,
    ),
    "unknown-enum-value": _record("PartitionScheme", value="nope"),
}


@pytest.mark.parametrize("body", HOSTILE.values(), ids=HOSTILE.keys())
def test_decode_raises_only_codec_error(body):
    with pytest.raises(CodecError):
        decode(body)


@pytest.mark.parametrize("body", HOSTILE.values(), ids=HOSTILE.keys())
def test_loads_checkpoint_refuses_digest_valid_hostile_payload(body):
    header = _HEADER.pack(
        MAGIC, SCHEMA_VERSION, hashlib.sha256(body).digest(), len(body)
    )
    with pytest.raises(CheckpointError, match="does not decode"):
        loads_checkpoint(header + body)


@pytest.mark.parametrize("body", HOSTILE.values(), ids=HOSTILE.keys())
def test_read_frame_refuses_hostile_payload(body):
    with pytest.raises(TransportError, match="cannot decode"):
        read_frame(io.BytesIO(_u32(len(body)) + body))


def _nested(depth):
    value = None
    for _ in range(depth):
        value = [value]
    return value


def test_depth_limit_is_the_same_both_ways():
    deepest = _nested(MAX_DEPTH)
    assert decode(encode(deepest)) == deepest
    with pytest.raises(CodecError, match="nested deeper"):
        encode(_nested(MAX_DEPTH + 1))
    with pytest.raises(CodecError, match="nested deeper"):
        decode(b"l" + _u32(1) + encode(deepest))
