"""Tests for message payload serialization."""

import struct

import numpy as np
import pytest

from repro.checkpoint.codec import MAX_DEPTH, PAYLOADS, encode
from repro.simnet.errors import TransportError
from repro.simnet.messages import (
    Message,
    MessageKind,
    deserialize_payload,
    payload_nbytes,
    serialize_payload,
)


def roundtrip(payload):
    return deserialize_payload(serialize_payload(payload))


def test_scalar_types_roundtrip():
    payload = {
        "none": None,
        "flag": True,
        "other_flag": False,
        "count": 42,
        "negative": -7,
        "value": 3.5,
        "text": "hello wörld",
        "blob": b"\x00\x01\x02",
    }
    assert roundtrip(payload) == payload


def test_bool_is_not_confused_with_int():
    result = roundtrip({"flag": True, "one": 1})
    assert result["flag"] is True
    assert isinstance(result["one"], int) and result["one"] == 1


def test_nested_structures_roundtrip():
    payload = {"outer": {"inner": [1, 2, {"deep": "yes"}], "empty": []}}
    assert roundtrip(payload) == payload


def test_tuple_becomes_list():
    assert roundtrip({"t": (1, 2, 3)}) == {"t": [1, 2, 3]}


def test_float_array_roundtrip():
    array = np.linspace(0, 1, 12).reshape(3, 4)
    result = roundtrip({"a": array})
    np.testing.assert_array_equal(result["a"], array)
    assert result["a"].dtype == array.dtype


def test_int_array_roundtrip():
    array = np.arange(10, dtype=np.int64)
    result = roundtrip({"a": array})
    np.testing.assert_array_equal(result["a"], array)


def test_bool_array_roundtrip():
    array = np.array([True, False, True])
    result = roundtrip({"a": array})
    np.testing.assert_array_equal(result["a"], array)


def test_empty_array_roundtrip():
    array = np.empty((4, 0))
    result = roundtrip({"a": array})
    assert result["a"].shape == (4, 0)


def test_non_contiguous_array_roundtrip():
    array = np.arange(24).reshape(4, 6)[:, ::2]
    result = roundtrip({"a": array})
    np.testing.assert_array_equal(result["a"], array)


def test_zero_dim_array_keeps_its_shape():
    result = roundtrip({"a": np.asarray(2.5)})
    assert result["a"].shape == () and result["a"] == 2.5


def test_numpy_scalars_roundtrip_as_python_scalars():
    result = roundtrip({"i": np.int32(5), "f": np.float64(2.5)})
    assert result == {"i": 5, "f": 2.5}


def test_unserializable_value_rejected():
    with pytest.raises(TransportError):
        serialize_payload({"bad": object()})


def test_non_string_dict_key_rejected():
    with pytest.raises(TransportError):
        serialize_payload({"outer": {1: "x"}})


def test_truncated_payload_rejected():
    data = serialize_payload({"x": 1})
    with pytest.raises(TransportError):
        deserialize_payload(data[:-1])


def test_trailing_bytes_rejected():
    data = serialize_payload({"x": 1})
    with pytest.raises(TransportError):
        deserialize_payload(data + b"!")


def test_top_level_must_be_dict():
    with pytest.raises(TransportError):
        deserialize_payload(encode([1, 2], PAYLOADS))


def test_payload_nbytes_matches_serialized_length():
    payload = {"a": np.zeros((5, 5)), "b": "text"}
    assert payload_nbytes(payload) == len(serialize_payload(payload))


def test_message_describe_mentions_kind_and_endpoints():
    message = Message(
        kind=MessageKind.SPACE_ADAPTOR,
        sender="provider-1",
        recipient="coordinator",
        payload={"tag": "abc"},
        msg_id=3,
    )
    text = message.describe()
    assert "space_adaptor" in text
    assert "provider-1" in text and "coordinator" in text


def test_dict_key_order_does_not_change_encoding():
    a = serialize_payload({"x": 1, "y": 2})
    b = serialize_payload({"y": 2, "x": 1})
    assert a == b


def _key(name):
    return b"S" + struct.pack(">I", len(name)) + name


def _array(dtype, shape, raw):
    dims = b"".join(struct.pack(">q", extent) for extent in shape)
    return (
        b"A" + struct.pack(">I", len(dtype)) + dtype
        + struct.pack(">I", len(shape)) + dims
        + struct.pack(">Q", len(raw)) + raw
    )


def _one_entry(key, value):
    return b"D" + struct.pack(">I", 1) + key + value


HOSTILE = {
    "junk-dtype": _one_entry(_key(b"a"), _array(b"zzz", (1,), bytes(8))),
    "object-dtype": _one_entry(_key(b"a"), _array(b"|O", (1,), bytes(8))),
    "unparsable-dtype": _one_entry(
        _key(b"a"), _array(b"f8,(", (1,), bytes(8))
    ),
    "utf8-key": _one_entry(_key(b"\xff\xfe"), b"N"),
    "list-key": _one_entry(b"L" + struct.pack(">I", 0), b"N"),
    "shape-mismatch": _one_entry(_key(b"a"), _array(b"<f8", (3,), bytes(8))),
    "deep-nesting": _one_entry(
        _key(b"a"), (b"L" + struct.pack(">I", 1)) * 20000 + b"N"
    ),
    # an empty array whose 8-byte buffer length is replaced by 2**64 - 1
    "huge-length": _one_entry(
        _key(b"a"),
        _array(b"<f8", (1,), b"")[:-8] + struct.pack(">Q", 2**64 - 1),
    ),
}


@pytest.mark.parametrize("data", HOSTILE.values(), ids=HOSTILE.keys())
def test_hostile_payload_raises_transport_error(data):
    with pytest.raises(TransportError):
        deserialize_payload(data)


def _nested(depth):
    value = None
    for _ in range(depth):
        value = [value]
    return value


def test_depth_limit_is_the_same_both_ways():
    # the top-level dict is one level of the limit
    deepest = {"a": _nested(MAX_DEPTH - 1)}
    assert roundtrip(deepest) == deepest
    with pytest.raises(TransportError, match="nested deeper"):
        serialize_payload({"a": _nested(MAX_DEPTH)})
    too_deep = b"L" + struct.pack(">I", 1) + encode(deepest["a"], PAYLOADS)
    with pytest.raises(TransportError, match="nested deeper"):
        deserialize_payload(_one_entry(_key(b"a"), too_deep))
