"""The codec's registered-dataclass tag: allowlist, round trips, refusals.

Results, service stats, stream configs and epoch state cross replica
frames and land in checkpoints as registered dataclasses.  A round trip
must give back every field exactly — array dtypes and bytes, numpy scalar
types, tuples versus lists — apart from the ``compare=False`` runtime
attachments, which come back as their defaults.
"""

import dataclasses
import enum
import struct

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import repro
from repro.checkpoint import (
    Checkpointer,
    CodecError,
    SessionEvicted,
    codec,
    decode,
    dumps_checkpoint,
    encode,
    load_checkpoint,
    register,
)
from repro.obs import Telemetry
from repro.serve import MiningService, SessionSpec
from repro.streaming import StreamConfig, TrustChange
from tests.test_payload_reference import (
    SUBCLASS_EXAMPLE, Level, Name, with_subclasses,
)
from tests.test_properties import FAST


def assert_identical(left, right, where="value"):
    """Field-by-field equality that also pins types, dtypes and bytes."""
    assert type(left) is type(right), f"{where}: {type(left)} != {type(right)}"
    if dataclasses.is_dataclass(left):
        for f in dataclasses.fields(left):
            if f.compare:
                assert_identical(
                    getattr(left, f.name), getattr(right, f.name),
                    f"{where}.{f.name}",
                )
    elif isinstance(left, np.ndarray):
        assert left.dtype == right.dtype, where
        assert left.shape == right.shape, where
        assert left.tobytes() == right.tobytes(), where
    elif isinstance(left, np.generic):
        assert left.tobytes() == right.tobytes(), where
    elif isinstance(left, dict):
        assert list(left) == list(right), where
        for key in left:
            assert_identical(left[key], right[key], f"{where}[{key!r}]")
    elif isinstance(left, (list, tuple)):
        assert len(left) == len(right), where
        for index, (a, b) in enumerate(zip(left, right)):
            assert_identical(a, b, f"{where}[{index}]")
    elif isinstance(left, float):
        assert repr(left) == repr(right), where
    else:
        assert left == right, where


def _round_trip(value):
    decoded = decode(encode(value))
    assert_identical(value, decoded)
    return decoded


def _sized(raw):
    return struct.pack(">I", len(raw)) + raw


def reference_records(value):
    """The ``RECORDS`` bytes of a record-free value from an ``isinstance``
    chain alone (``bool`` before ``int``, ``float`` before numpy
    scalars): subclass values write as the types they extend."""
    if value is None:
        return b"N"
    if value is True or value is False:
        return b"T" if value else b"F"
    if isinstance(value, int):
        length = (value.bit_length() + 8) // 8
        return b"i" + _sized(value.to_bytes(length, "big", signed=True))
    if isinstance(value, float):
        return b"f" + struct.pack(">d", value)
    if isinstance(value, str):
        return b"s" + _sized(value.encode("utf-8"))
    if isinstance(value, bytes):
        return b"b" + _sized(value)
    if isinstance(value, dict):
        return b"d" + struct.pack(">I", len(value)) + b"".join(
            reference_records(key) + reference_records(item)
            for key, item in value.items()
        )
    if isinstance(value, (list, tuple)):
        tag = b"l" if isinstance(value, list) else b"t"
        return tag + struct.pack(">I", len(value)) + b"".join(
            map(reference_records, value)
        )
    if isinstance(value, np.ndarray):
        return (
            b"a" + _sized(value.dtype.str.encode("ascii"))
            + struct.pack(">I", value.ndim)
            + b"".join(struct.pack(">I", extent) for extent in value.shape)
            + _sized(value.tobytes())
        )
    assert isinstance(value, np.generic), type(value)
    return b"x" + _sized(value.dtype.str.encode("ascii")) + _sized(value.tobytes())


_RECORD_KEYS = st.one_of(
    st.text(max_size=8), st.text(max_size=8).map(Name),
    st.integers(-5, 5), st.sampled_from(Level),
)

_ARRAYS = st.builds(
    lambda seed, shape, dtype: np.random.default_rng(seed)
    .integers(0, 200, size=shape).astype(dtype),
    st.integers(0, 1000),
    st.lists(st.integers(0, 3), max_size=3).map(tuple),
    st.sampled_from(["<f8", "<f4", "<i8", "|u1"]),
)


@FAST
@given(
    value=st.one_of(
        with_subclasses(_RECORD_KEYS),
        st.lists(st.one_of(_ARRAYS, st.builds(np.float32, st.floats(-1, 1)))),
    )
)
@example(value=SUBCLASS_EXAMPLE + [{Level.LOW: np.float32(1.5)}])
def test_subclass_values_write_the_reference_records(value):
    data = encode(value)
    assert data == reference_records(value)
    assert encode(decode(data)) == data


def test_registered_names_are_pinned():
    # Widening the allowlist is a visible decision: update this set.
    assert set(codec._REGISTRY) == {
        "ClassifierSpec", "DataPlaneState", "ExchangePlan",
        "GeometricPerturbation", "IngestState", "IngestStats",
        "LinearSVMState", "MinerResult", "PartitionScheme",
        "PartyRiskProfile", "PoolStats", "ProviderGate", "ReadaptationEvent",
        "ReservoirKNNState", "RunningMinMaxNormalizer",
        "RunningZScoreNormalizer", "SAPConfig", "SAPSessionResult",
        "ServiceStats", "SpaceAdaptor", "StreamConfig", "StreamSessionResult",
        "StreamWindowStats", "TenantStats", "TrustChange", "_Epoch",
        "_RunState",
    }


def test_encode_refuses_an_unregistered_dataclass():
    @dataclasses.dataclass
    class Unlisted:
        value: int = 1

    with pytest.raises(CodecError, match="cannot encode a Unlisted"):
        encode({"nested": [Unlisted()]})


def test_register_refuses_a_taken_name_and_non_records():
    with pytest.raises(TypeError, match="already registered"):
        register(type("TrustChange", (), {}))
    with pytest.raises(TypeError, match="neither a dataclass nor an enum"):
        register(type("Plain", (), {}))
    assert "Plain" not in codec._REGISTRY


def test_enum_members_round_trip_by_value():
    scheme = repro.PartitionScheme.CLASS
    assert decode(encode([scheme])) == [scheme]

    class Local(enum.Enum):
        A = 1

    with pytest.raises(CodecError, match="cannot encode a Local"):
        encode(Local.A)


def test_batch_result_round_trips_without_runtime_attachments():
    result = repro.run_sap_session(
        repro.load_dataset("iris"),
        repro.SAPConfig(k=3, seed=2),
        compute_privacy=True,
        keep_network=True,
    )
    assert result.network is not None and result.risk_profiles
    assert result.miner_result.pooled_features is not None
    decoded = _round_trip(result)
    assert decoded.network is None
    assert decoded.miner_result.model is None
    assert decoded.scheme is repro.PartitionScheme.UNIFORM


def _trust_stream_config(**knobs):
    return StreamConfig(
        k=3, window_size=32, seed=4,
        trust_changes=(TrustChange(window=3, party=1, trust=0.5),),
        **knobs,
    )


def test_stream_result_with_trust_renegotiation_round_trips():
    source = repro.make_stream("wine", kind="abrupt", n_records=320, seed=4)
    result = repro.run_stream_session(
        source, _trust_stream_config(telemetry=Telemetry())
    )
    assert "trust" in [event.reason for event in result.events]
    assert result.ingest is not None
    decoded = _round_trip(result)
    assert decoded.config.telemetry is None
    assert decoded.deviation_series() == result.deviation_series()


def test_service_stats_round_trip():
    spec = SessionSpec(
        kind="stream", dataset="wine", k=3, windows=4, window_size=32,
        compute_privacy=False, seed=1, tenant="acme",
    )
    with MiningService(max_inflight=1) as service:
        service.run([spec])
        stats = service.stats()
    assert [t.tenant for t in stats.tenants] == ["acme"]
    assert _round_trip(stats) == stats


def test_mid_stream_checkpoint_payload_round_trips_to_the_same_bytes(tmp_path):
    source = repro.make_stream("wine", kind="abrupt", n_records=320, seed=4)
    checkpointer = Checkpointer(directory=str(tmp_path), stop_after=5)
    with pytest.raises(SessionEvicted) as evicted:
        repro.run_stream_session(
            source, _trust_stream_config(), checkpointer=checkpointer
        )
    path = evicted.value.path
    payload = load_checkpoint(path).payload
    state = payload["state"]
    assert isinstance(payload["config"], StreamConfig)
    assert state.epoch.epoch_id == 2  # initial + the trust change
    assert state.adaptors and state.events and state.window_stats
    _round_trip(payload)
    with open(path, "rb") as handle:
        assert dumps_checkpoint(payload) == handle.read()
