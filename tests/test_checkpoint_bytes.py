"""The bytes-level checkpoint API: dumps/loads as the wire counterpart.

``dumps_checkpoint`` bytes *are* a checkpoint file — the cluster's
process backend ships them between replicas verbatim — so the byte-level
loader must apply exactly the validation the file loader does, with
every damage mode a distinct, attributable :class:`CheckpointError`:
truncated header, foreign magic, schema version mismatch, length
mismatch, digest mismatch, undecodable payload, payload without session
state.  A corrupted migration payload must be *refused*, never silently
resumed.
"""

import hashlib
import os
import struct

import pytest

from repro.checkpoint import (
    CheckpointError,
    SCHEMA_VERSION,
    dumps_checkpoint,
    load_checkpoint,
    loads_checkpoint,
    save_checkpoint,
)
from repro.checkpoint.checkpoint import _HEADER, MAGIC


def _payload():
    return {
        "state": {"rng": [1, 2, 3], "epoch": 4},
        "config": {"k": 3, "seed": 7},
        "source": {"name": "wine", "kind": "replay"},
        "progress": {"records": 96, "windows": 3, "epochs": 1},
    }


def test_dumps_loads_round_trip_bit_exact():
    raw = dumps_checkpoint(_payload())
    checkpoint = loads_checkpoint(raw)
    assert checkpoint.payload == _payload()
    assert checkpoint.schema_version == SCHEMA_VERSION
    # The fingerprint names the encoded payload, not the header.
    assert checkpoint.fingerprint == hashlib.sha256(
        raw[_HEADER.size:]
    ).hexdigest()
    # Serialization is deterministic: same payload, same bytes.
    assert dumps_checkpoint(_payload()) == raw


def test_bytes_and_file_loaders_agree(tmp_path):
    raw = dumps_checkpoint(_payload())
    path = tmp_path / "session.ckpt"
    path.write_bytes(raw)
    from_file = load_checkpoint(str(path))
    from_bytes = loads_checkpoint(raw)
    assert from_file.fingerprint == from_bytes.fingerprint
    assert from_file.payload == from_bytes.payload
    # And save_checkpoint writes exactly the dumps bytes.
    saved = tmp_path / "saved.ckpt"
    save_checkpoint(str(saved), _payload())
    assert saved.read_bytes() == raw
    assert not os.path.exists(str(saved) + ".tmp")  # atomic: no droppings


def test_truncated_header_refused():
    raw = dumps_checkpoint(_payload())
    with pytest.raises(CheckpointError, match="truncated"):
        loads_checkpoint(raw[: _HEADER.size - 1])


def test_foreign_magic_refused():
    raw = dumps_checkpoint(_payload())
    with pytest.raises(CheckpointError, match="not a repro checkpoint"):
        loads_checkpoint(b"WHAT" + raw[4:])


def test_schema_version_mismatch_refused():
    raw = dumps_checkpoint(_payload())
    _, _, digest, length = _HEADER.unpack_from(raw)
    bumped = _HEADER.pack(MAGIC, SCHEMA_VERSION + 1, digest, length)
    with pytest.raises(CheckpointError, match="schema version"):
        loads_checkpoint(bumped + raw[_HEADER.size:])


def test_schema_2_checkpoint_refused():
    # Version 2 kept the session state as a driver-built mapping; version
    # 3 keeps one run-state record, and there is no migration.
    assert SCHEMA_VERSION == 3
    raw = dumps_checkpoint(_payload())
    _, _, digest, length = _HEADER.unpack_from(raw)
    old = _HEADER.pack(MAGIC, 2, digest, length)
    with pytest.raises(CheckpointError, match="schema version 2"):
        loads_checkpoint(old + raw[_HEADER.size:])


def test_length_mismatch_refused():
    raw = dumps_checkpoint(_payload())
    with pytest.raises(CheckpointError, match="promises"):
        loads_checkpoint(raw[:-1])


def test_digest_mismatch_refused():
    raw = bytearray(dumps_checkpoint(_payload()))
    raw[-1] ^= 0x01  # one flipped bit of payload
    with pytest.raises(CheckpointError, match="digest mismatch"):
        loads_checkpoint(bytes(raw))


def test_undecodable_payload_refused():
    body = b"\xff\xfe garbage that is not codec output"
    header = _HEADER.pack(
        MAGIC, SCHEMA_VERSION, hashlib.sha256(body).digest(), len(body)
    )
    with pytest.raises(CheckpointError, match="does not decode"):
        loads_checkpoint(header + body)


def test_payload_without_session_state_refused():
    raw = dumps_checkpoint({"config": {"k": 3}})
    with pytest.raises(CheckpointError, match="session state"):
        loads_checkpoint(raw)


def test_origin_names_the_source_in_every_message():
    raw = dumps_checkpoint(_payload())
    with pytest.raises(CheckpointError, match="replica 3"):
        loads_checkpoint(raw[:-1], origin="replica 3")
    with pytest.raises(CheckpointError, match="replica 3"):
        loads_checkpoint(raw[: _HEADER.size - 1], origin="replica 3")


def test_unrelated_file_is_not_a_checkpoint(tmp_path):
    path = tmp_path / "notes.txt"
    path.write_bytes(b"just some text, definitely long enough to have a header span")
    with pytest.raises(CheckpointError, match="not a repro checkpoint"):
        load_checkpoint(str(path))
