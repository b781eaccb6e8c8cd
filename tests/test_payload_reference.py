"""The simnet payload codec before it became a layout of the shared walker.

:func:`reference_write` and :func:`reference_read` are the ``BytesIO``
encoder and decoder ``repro.simnet.messages`` carried before payloads
became the :data:`~repro.checkpoint.codec.PAYLOADS` layout of
:mod:`repro.checkpoint.codec`.  The network charges every message its
encoded length, so the bytes are part of each session's result: for every
payload the seed-1 sessions of the repo benchmark's four decks send, and
for generated JSON-like payloads, :func:`serialize_payload` must write
the reference's bytes exactly, and :func:`deserialize_payload` must read
back the reference's values.
"""

import contextlib
import importlib.util
import io
import os
import struct
import sys
from typing import Any

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.simnet import channel
from repro.simnet.errors import TransportError
from repro.simnet.messages import deserialize_payload, serialize_payload
from tests.test_properties import FAST, json_like

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DECKS = ("service-mix", "stream-long", "cluster-migrate", "privacy-batch")

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


def reference_write(payload: Any) -> bytes:
    out = io.BytesIO()
    _write_value(out, payload)
    return out.getvalue()


def reference_read(data: bytes) -> Any:
    buf = io.BytesIO(data)
    value = _read_value(buf)
    assert not buf.read(1)
    return value


def _same(a: Any, b: Any) -> bool:
    """Equal values of equal types, arrays and floats compared bit for bit."""
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return list(a) == list(b) and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, np.ndarray):
        return (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
    if isinstance(a, float):
        return struct.pack(">d", a) == struct.pack(">d", b)
    return a == b


def _perfbench_workloads():
    path = os.path.join(ROOT, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve the module's string annotations through sys.modules
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


@contextlib.contextmanager
def capturing(record):
    """Call ``record(payload, data)`` for every payload the network sends."""
    original = channel.serialize_payload

    def capture(payload):
        data = original(payload)
        record(payload, data)
        return data

    channel.serialize_payload = capture
    try:
        yield
    finally:
        channel.serialize_payload = original


@pytest.fixture(scope="module")
def deck_payloads():
    """``(sent bytes, reference bytes)`` of every payload the seed-1
    sessions of the four decks send, the reference written at send time."""
    from repro.serve import execute_spec

    workloads = _perfbench_workloads()
    captured = []

    def record(payload, data):
        captured.append((data, reference_write(payload)))

    with capturing(record):
        for name in DECKS:
            for spec in workloads.WORKLOADS[name].deck(1):
                execute_spec(spec)
    return captured


def test_deck_payloads_are_the_reference_bytes(deck_payloads):
    assert len(deck_payloads) > 2000
    for data, reference in deck_payloads:
        assert data == reference


def test_deck_payloads_decode_to_the_reference_values(deck_payloads):
    for data, _ in deck_payloads:
        assert _same(deserialize_payload(data), reference_read(data))


@FAST
@given(payload=st.dictionaries(st.text(max_size=8), json_like, max_size=5))
def test_generated_payloads_match_the_reference(payload):
    data = serialize_payload(payload)
    assert data == reference_write(payload)
    assert _same(deserialize_payload(data), reference_read(data))
