"""Durable sessions: kill/restore must never change a single bit.

The contract under test: a session killed at *any* round boundary and
resumed from its checkpoint reproduces the uninterrupted run's
fingerprint exactly, across backends, shard counts, plans,
skew/late-policy settings, and mid-stream trust re-negotiations.  The
file format must also refuse — with a distinct, friendly error — every
damage mode: truncation, foreign bytes, schema mismatch, and bit rot.
"""

import os
import struct

import numpy as np
import pytest

from repro.checkpoint import (
    SCHEMA_VERSION,
    CheckpointError,
    Checkpointer,
    SessionEvicted,
    decode,
    encode,
    load_checkpoint,
    save_checkpoint,
)
from repro.cli import main
from repro.serve import MiningService, SessionSpec
from repro.streaming import (
    IngestPlane,
    OnlineLinearSVM,
    RunningZScoreNormalizer,
    StreamConfig,
    TrustChange,
    make_stream,
    run_stream_session,
)


def _fingerprint(result):
    """Everything deterministic a stream result reports."""
    return {
        "records": result.records_processed,
        "windows": [
            (w.index, w.revision, w.n_records, w.accuracy_perturbed,
             w.accuracy_baseline, w.drift_statistic, w.readapted)
            for w in result.windows
        ],
        "events": [
            (e.window, e.reason, e.statistic, e.messages, e.bytes,
             e.virtual_duration, e.privacy_guarantee)
            for e in result.events
        ],
        "accuracy": (result.accuracy_perturbed, result.accuracy_baseline),
        "traffic": (result.messages_sent, result.bytes_sent,
                    result.data_messages_sent, result.data_bytes_sent),
        "provider_records": result.provider_records,
        "ingest": None if result.ingest is None else result.ingest.to_dict(),
    }


def _run(source_seed=3, checkpointer=None, resume_from=None, **knobs):
    source = make_stream(
        "iris", kind=knobs.pop("stream", "abrupt"), n_records=6 * 32,
        seed=source_seed,
    )
    config = StreamConfig(
        k=3, window_size=32, compute_privacy=False, seed=7, **knobs
    )
    return run_stream_session(
        source, config, checkpointer=checkpointer, resume_from=resume_from
    )


def _kill_and_resume(directory, stop_after=3, **knobs):
    """Evict at a round boundary, then restore from the written file."""
    checkpointer = Checkpointer(directory=str(directory), stop_after=stop_after)
    with pytest.raises(SessionEvicted) as excinfo:
        _run(checkpointer=checkpointer, **knobs)
    return _run(resume_from=excinfo.value.path, **knobs)


# ----------------------------------------------------------------------
# the bit-identity property, swept
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", ["serial", "thread"])
@pytest.mark.parametrize("shards", [1, 4])
def test_restore_bit_identical_across_backends_and_shards(
    tmp_path, backend, shards
):
    knobs = dict(shards=shards, shard_backend=backend)
    unbroken = _fingerprint(_run(**knobs))
    resumed = _kill_and_resume(tmp_path, **knobs)
    assert _fingerprint(resumed) == unbroken


@pytest.mark.parametrize("stop_after", [1, 2, 4])
def test_restore_bit_identical_at_any_kill_round(tmp_path, stop_after):
    knobs = dict(shards=2, shard_backend="thread")
    unbroken = _fingerprint(_run(**knobs))
    resumed = _kill_and_resume(tmp_path, stop_after=stop_after, **knobs)
    assert _fingerprint(resumed) == unbroken


@pytest.mark.parametrize("plan", ["hash", "party"])
def test_restore_bit_identical_across_plans(tmp_path, plan):
    knobs = dict(shards=4, shard_backend="thread", shard_plan=plan)
    unbroken = _fingerprint(_run(**knobs))
    resumed = _kill_and_resume(tmp_path, **knobs)
    assert _fingerprint(resumed) == unbroken


@pytest.mark.parametrize("late_policy", ["drop", "readmit", "upsert"])
def test_restore_bit_identical_under_skew(tmp_path, late_policy):
    """Out-of-order arrivals: gates, pending buffers, and watermarks all
    cross the checkpoint and must land back exactly."""
    knobs = dict(
        shards=4, shard_backend="thread", skew=8, watermark_delay=1,
        late_policy=late_policy,
    )
    unbroken = _run(**knobs)
    assert unbroken.ingest.late > 0  # the sweep actually exercised lateness
    resumed = _kill_and_resume(tmp_path, **knobs)
    assert _fingerprint(resumed) == _fingerprint(unbroken)


def test_restore_bit_identical_across_renegotiations(tmp_path):
    """Kill between two trust changes: epoch state, adaptor cache, and the
    remaining re-negotiation schedule must all survive the restore."""
    changes = (TrustChange(window=1, party=0, trust=0.5),
               TrustChange(window=3, party=1, trust=0.25))
    knobs = dict(
        stream="gradual", shards=2, shard_backend="thread",
        trust_changes=changes, readapt_cooldown=1,
    )
    unbroken = _run(**knobs)
    assert len(unbroken.events) >= 3  # initial + both trust renegotiations
    resumed = _kill_and_resume(tmp_path, stop_after=2, **knobs)
    assert _fingerprint(resumed) == _fingerprint(unbroken)


def test_periodic_checkpointing_does_not_perturb_result(tmp_path):
    """Saving every boundary (without ever evicting) must be invisible:
    the drain it forces changes execution overlap, never merge order."""
    knobs = dict(shards=2, shard_backend="thread")
    unbroken = _fingerprint(_run(**knobs))
    checkpointer = Checkpointer(directory=str(tmp_path), every=1)
    checked = _run(checkpointer=checkpointer, **knobs)
    assert _fingerprint(checked) == unbroken
    assert len(checkpointer.saved_paths) >= 2


# ----------------------------------------------------------------------
# resume refuses foreign workloads
# ----------------------------------------------------------------------
def test_resume_refuses_different_config(tmp_path):
    checkpointer = Checkpointer(directory=str(tmp_path), stop_after=2)
    with pytest.raises(SessionEvicted) as excinfo:
        _run(checkpointer=checkpointer, shards=2)
    with pytest.raises(CheckpointError, match="different configuration"):
        _run(resume_from=excinfo.value.path, shards=4)


def test_resume_refuses_different_source(tmp_path):
    checkpointer = Checkpointer(directory=str(tmp_path), stop_after=2)
    with pytest.raises(SessionEvicted) as excinfo:
        _run(checkpointer=checkpointer, shards=2)
    with pytest.raises(CheckpointError, match="different stream source"):
        _run(resume_from=excinfo.value.path, shards=2, source_seed=4)


# ----------------------------------------------------------------------
# resume refuses a digest-valid checkpoint whose state does not fit
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def evicted_wine(tmp_path_factory):
    """A wine 12x32 stream on 2 shards, evicted at window 6."""
    checkpointer = Checkpointer(
        directory=str(tmp_path_factory.mktemp("wine")), stop_after=6
    )
    source = make_stream("wine", kind="abrupt", n_records=12 * 32, seed=3)
    config = StreamConfig(k=3, window_size=32, shards=2, seed=7)
    with pytest.raises(SessionEvicted) as excinfo:
        run_stream_session(source, config, checkpointer=checkpointer)
    return excinfo.value.path


def _cut_gates(payload):
    payload["state"].ingest.gates = payload["state"].ingest.gates[:1]


def _cut_provider_records(payload):
    data_plane = payload["state"].data_plane
    data_plane.provider_records = data_plane.provider_records[:2]


def _svm_miner(payload):
    payload["state"].miner = OnlineLinearSVM().snapshot()


def _state_list(payload):
    payload["state"] = [1]


def _state_without_miner(payload):
    state = vars(payload["state"])
    payload["state"] = {name: state[name] for name in state if name != "miner"}


def _no_miner(payload):
    payload["state"].miner = None


def _cut_shard_normalizer(payload):
    payload["state"].shard_normalizers.pop()


def _swap_normalizer(payload):
    payload["state"].normalizer = RunningZScoreNormalizer()


def _narrow_reservoir(payload):
    payload["state"].miner.rows = payload["state"].miner.rows[:, :5]


@pytest.mark.parametrize(
    "damage, part",
    [
        (_cut_gates, "ingest state"),
        (_cut_provider_records, "data-plane state"),
        (_svm_miner, "miner state"),
        (_state_list, "state is a list"),
        (_state_without_miner, "state is a dict"),
        (_no_miner, "miner state"),
        (_cut_shard_normalizer, "normalizer states"),
        (_swap_normalizer, "normalizer states"),
        (_narrow_reservoir, "miner state"),
    ],
)
def test_resume_refuses_damaged_state_before_ingesting(
    evicted_wine, tmp_path, monkeypatch, capsys, damage, part
):
    payload = load_checkpoint(evicted_wine).payload
    damage(payload)
    path = str(tmp_path / "damaged.ckpt")
    save_checkpoint(path, payload)  # a valid digest over damaged state

    def never(*args, **kwargs):
        raise AssertionError("a record was ingested before the refusal")

    monkeypatch.setattr(IngestPlane, "push_chunk", never)
    code = main(["stream", "--resume-from", path])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: checkpoint ") and err.count("\n") == 1
    assert part in err


def test_undamaged_wine_checkpoint_resumes(evicted_wine, capsys):
    assert main(["stream", "--resume-from", evicted_wine, "--json"]) == 0
    assert '"records_processed": 384' in capsys.readouterr().out


# ----------------------------------------------------------------------
# file format: every damage mode is a distinct, friendly refusal
# ----------------------------------------------------------------------
def _valid_file(tmp_path):
    path = str(tmp_path / "valid.ckpt")
    save_checkpoint(path, {"state": {"a": 1}, "progress": {"windows": 2}})
    return path


def test_load_round_trips_fingerprint(tmp_path):
    path = _valid_file(tmp_path)
    first = load_checkpoint(path)
    second = load_checkpoint(path)
    assert first.schema_version == SCHEMA_VERSION
    assert first.fingerprint == second.fingerprint
    assert first.payload == second.payload


def test_load_rejects_truncated_header(tmp_path):
    path = str(tmp_path / "stub.ckpt")
    with open(path, "wb") as handle:
        handle.write(b"RP")
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path)


def test_load_rejects_foreign_magic(tmp_path):
    path = _valid_file(tmp_path)
    raw = bytearray(open(path, "rb").read())
    raw[:4] = b"ELF\x7f"
    open(path, "wb").write(bytes(raw))
    with pytest.raises(CheckpointError, match="not a repro checkpoint"):
        load_checkpoint(path)


def test_load_rejects_schema_version_mismatch(tmp_path):
    # a newer build's files and the previous version's (v1) are refused
    for version in (SCHEMA_VERSION + 1, SCHEMA_VERSION - 1):
        path = _valid_file(tmp_path)
        with open(path, "rb") as handle:
            raw = bytearray(handle.read())
        raw[4:6] = struct.pack(">H", version)
        with open(path, "wb") as handle:
            handle.write(bytes(raw))
        with pytest.raises(CheckpointError, match="schema version"):
            load_checkpoint(path)


def test_load_rejects_truncated_payload(tmp_path):
    path = _valid_file(tmp_path)
    raw = open(path, "rb").read()
    open(path, "wb").write(raw[:-3])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path)


def test_load_rejects_payload_bit_rot(tmp_path):
    path = _valid_file(tmp_path)
    raw = bytearray(open(path, "rb").read())
    raw[-1] ^= 0xFF
    open(path, "wb").write(bytes(raw))
    with pytest.raises(CheckpointError, match="digest mismatch"):
        load_checkpoint(path)


def test_load_rejects_stateless_payload(tmp_path):
    path = str(tmp_path / "stateless.ckpt")
    save_checkpoint(path, {"progress": {"windows": 0}})
    with pytest.raises(CheckpointError, match="session state"):
        load_checkpoint(path)


def test_checkpointer_rejects_bad_intervals(tmp_path):
    with pytest.raises(CheckpointError, match="positive"):
        Checkpointer(directory=str(tmp_path), every=0)
    with pytest.raises(CheckpointError, match="positive"):
        Checkpointer(directory=str(tmp_path), stop_after=-1)


# ----------------------------------------------------------------------
# codec: the payload layer round-trips every type it claims
# ----------------------------------------------------------------------
def test_codec_round_trips_scalars_and_containers():
    payload = {
        "none": None,
        "flags": (True, False),
        "small": -42,
        "huge": -(1 << 130),  # PCG64 state words exceed 64 bits
        "float": 1.5,
        "text": "café",
        "bytes": b"\x00\xff\x7f",
        "list": [1, "two", 3.0, [None]],
        "nested": {"k": ({"deep": b"x"},)},
    }
    out = decode(encode(payload))
    assert out == payload
    assert isinstance(out["flags"], tuple)
    assert isinstance(out["list"], list)


def test_codec_round_trips_arrays_dtype_exact():
    rng = np.random.default_rng(0)
    arrays = {
        "f64": rng.normal(size=(3, 4)),
        "i64": rng.integers(-100, 100, size=7),
        "bool": rng.normal(size=5) > 0,
        "empty": np.empty((0, 13)),
        "int_scalar": np.int64(-7),  # reservoir labels are np.int64
        "float_scalar": np.float64(2.5),
    }
    out = decode(encode(arrays))
    for key in ("f64", "i64", "bool", "empty"):
        assert out[key].dtype == arrays[key].dtype
        assert out[key].shape == arrays[key].shape
        assert np.array_equal(out[key], arrays[key])
    assert out["int_scalar"] == arrays["int_scalar"]
    assert out["int_scalar"].dtype == np.int64
    # np.float64 subclasses float, so it rides the float tag: the decoded
    # value is bit-identical even though the wrapper type is not preserved.
    assert out["float_scalar"] == arrays["float_scalar"]


def test_codec_decoded_arrays_are_writable_copies():
    original = np.arange(6.0).reshape(2, 3)
    out = decode(encode({"a": original}))["a"]
    out[0, 0] = 99.0  # a read-only view would raise here
    assert original[0, 0] == 0.0


# ----------------------------------------------------------------------
# serving engine: evict frees the slot, resume re-enters admission
# ----------------------------------------------------------------------
def _service_fingerprint(result):
    return (result.deviation_series(), result.messages_sent)


def test_service_evict_and_resume_bit_identical(tmp_path):
    spec = SessionSpec(
        kind="stream", dataset="wine", k=3, windows=40, window_size=32,
        compute_privacy=False, seed=5,
    )
    with MiningService(max_inflight=2) as service:
        unbroken = service.run([spec])[0]

    with MiningService(
        max_inflight=2, checkpoint_dir=str(tmp_path)
    ) as service:
        handle = service.submit(spec, checkpoint_every=2)
        path = service.evict(handle.session_id, timeout=60)
        assert path is not None
        assert handle.poll() == "evicted"
        with pytest.raises(SessionEvicted):
            handle.result()
        resumed = service.resume(path).result(timeout=120)
        stats = service.stats()
    assert stats.evicted == 1
    assert "evicted" in stats.summary()
    assert _service_fingerprint(resumed) == _service_fingerprint(unbroken)


def test_service_refuses_batch_checkpointing(tmp_path):
    spec = SessionSpec(kind="batch", dataset="wine", k=3, seed=0)
    with MiningService(checkpoint_dir=str(tmp_path)) as service:
        with pytest.raises(CheckpointError, match="streaming-only"):
            service.submit(spec, checkpoint_every=1)


def test_service_refuses_checkpoint_every_without_dir():
    spec = SessionSpec(
        kind="stream", dataset="wine", k=3, windows=2, window_size=32,
        compute_privacy=False, seed=0,
    )
    with MiningService() as service:
        with pytest.raises(CheckpointError, match="checkpoint_dir"):
            service.submit(spec, checkpoint_every=1)


# ----------------------------------------------------------------------
# retention: keep only the newest K checkpoints per session
# ----------------------------------------------------------------------
def test_checkpointer_retain_keeps_only_newest_files(tmp_path):
    from repro.checkpoint import list_checkpoints

    checkpointer = Checkpointer(directory=str(tmp_path), every=1, retain=2)
    result = _run(checkpointer=checkpointer)
    assert result.records_processed == 6 * 32
    kept = list_checkpoints(str(tmp_path))
    assert len(kept) == 2
    assert kept == sorted(checkpointer.saved_paths)
    assert kept[-1].endswith("-w00005.ckpt")  # last boundary saved mid-run
    # The survivors are real checkpoints, not husks.
    for path in kept:
        assert load_checkpoint(path).payload["progress"]["windows"] > 0


def test_checkpointer_retain_validation(tmp_path):
    with pytest.raises(CheckpointError, match="retain"):
        Checkpointer(directory=str(tmp_path), every=1, retain=0)


def test_prune_checkpoints_groups_by_session_label(tmp_path):
    from repro.checkpoint import list_checkpoints, prune_checkpoints

    for label, windows in (("alpha", (2, 4, 6)), ("beta", (3,))):
        checkpointer = Checkpointer(directory=str(tmp_path), label=label)
        for done in windows:
            checkpointer.save({"progress": {"windows": done}})
    removed = prune_checkpoints(str(tmp_path), retain=1)
    # alpha loses its two oldest; beta's only file survives untouched.
    assert [os.path.basename(p) for p in removed] == [
        "alpha-w00002.ckpt", "alpha-w00004.ckpt"
    ]
    survivors = [
        os.path.basename(p) for p in list_checkpoints(str(tmp_path))
    ]
    assert survivors == ["alpha-w00006.ckpt", "beta-w00003.ckpt"]
    # Label-scoped listing and pruning see only their own session.
    assert [
        os.path.basename(p)
        for p in list_checkpoints(str(tmp_path), label="beta")
    ] == ["beta-w00003.ckpt"]
    assert prune_checkpoints(str(tmp_path), retain=1, label="beta") == []


def test_prune_checkpoints_validation(tmp_path):
    from repro.checkpoint import list_checkpoints, prune_checkpoints

    with pytest.raises(CheckpointError, match="retain"):
        prune_checkpoints(str(tmp_path), retain=0)
    with pytest.raises(CheckpointError):
        list_checkpoints(str(tmp_path / "missing"))


def test_list_checkpoints_ignores_foreign_files(tmp_path):
    from repro.checkpoint import list_checkpoints

    checkpointer = Checkpointer(directory=str(tmp_path))
    checkpointer.save({"progress": {"windows": 1}})
    (tmp_path / "notes.txt").write_text("not a checkpoint")
    (tmp_path / "weird.ckpt").write_text("no -wNNNNN suffix")
    assert [os.path.basename(p) for p in list_checkpoints(str(tmp_path))] == [
        "session-w00001.ckpt"
    ]


def test_service_checkpoint_retain_bounds_files(tmp_path):
    from repro.checkpoint import list_checkpoints

    spec = SessionSpec(
        kind="stream", dataset="wine", k=3, windows=8, window_size=32,
        compute_privacy=False, seed=5,
    )
    with MiningService(
        max_inflight=1, checkpoint_dir=str(tmp_path), checkpoint_retain=1
    ) as service:
        service.submit(spec, checkpoint_every=2).result(timeout=120)
    assert len(list_checkpoints(str(tmp_path))) == 1


def test_service_rejects_bad_checkpoint_retain(tmp_path):
    with pytest.raises(ValueError, match="checkpoint_retain"):
        MiningService(checkpoint_dir=str(tmp_path), checkpoint_retain=0)
