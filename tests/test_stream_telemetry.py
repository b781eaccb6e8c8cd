"""Telemetry wiring: bit-identity with telemetry on/off/absent, span
nesting invariants under the pipelined driver, and serve-layer spans.

The contract: telemetry *reads* state, never draws randomness and never
reorders work, so a session's fingerprint is identical whether telemetry
is absent, disabled, or fully recording — across dispatch backends.  Span
ordering under ``overlap=True`` is a *partial* order: each round's stages
open in pipeline order, but round N+1's dispatch may open before round
N's settle closes, so the tests pin per-round ordering only.
"""

import json

import pytest

from repro.obs import Telemetry
from repro.serve import MiningService, SessionSpec, execute_spec
from repro.streaming import StreamConfig, make_stream


def _fingerprint(result):
    """The deterministic core of a stream result (see test_stream_overlap)."""
    return {
        "records": result.records_processed,
        "windows": [
            (w.index, w.revision, w.n_records, w.accuracy_perturbed)
            for w in result.windows
        ],
        "events": [(e.window, e.reason, e.messages, e.bytes) for e in result.events],
        "accuracy": (result.accuracy_perturbed, result.accuracy_baseline),
        "traffic": (result.messages_sent, result.bytes_sent,
                    result.data_messages_sent, result.data_bytes_sent),
        "ingest": None if result.ingest is None else result.ingest.to_dict(),
    }


def _run(telemetry=None, pool=None, **knobs):
    """One session; ``pool`` runs its shard tasks on an outside backend."""
    source = make_stream("iris", kind="abrupt", n_records=6 * 32, seed=3)
    config = StreamConfig(
        k=3, window_size=32, compute_privacy=False, seed=7,
        telemetry=telemetry, **knobs,
    )
    spec = SessionSpec.from_stream(source, config)
    return execute_spec(spec, backend=pool, source=source)


@pytest.mark.parametrize("backend", ["serial", "thread", "process"])
def test_fingerprints_identical_with_telemetry_on_off_absent(backend):
    knobs = dict(shards=4, shard_backend=backend)
    absent = _run(**knobs)
    disabled = _run(telemetry=Telemetry.disabled(), **knobs)
    recording = _run(telemetry=Telemetry.in_memory(), **knobs)
    assert _fingerprint(disabled) == _fingerprint(absent)
    assert _fingerprint(recording) == _fingerprint(absent)
    assert recording.overlap is (backend == "process")


@pytest.fixture(scope="module")
def overlap_telemetry(thread_pool):
    """One recorded overlap run: (telemetry bundle, spans, result)."""
    tel = Telemetry.in_memory()
    result = _run(telemetry=tel, shards=4, overlap=True, pool=thread_pool)
    tel.close()
    return tel, tel.tracer.sink.spans, result


def test_overlap_spans_cover_the_stage_taxonomy(overlap_telemetry):
    _, spans, result = overlap_telemetry
    assert result.overlap is True
    names = {span["name"] for span in spans}
    assert {"session", "round", "control", "dispatch",
            "settle", "merge", "seal"} <= names
    assert all(span["duration"] is not None for span in spans)


def test_overlap_spans_nest_under_session_and_rounds(overlap_telemetry):
    _, spans, _ = overlap_telemetry
    (session,) = [s for s in spans if s["name"] == "session"]
    assert session["parent_id"] is None
    rounds = [s for s in spans if s["name"] == "round"]
    assert rounds, "no round spans recorded"
    round_ids = sorted(s["attrs"]["round"] for s in rounds)
    assert round_ids == list(range(len(rounds)))  # dense, zero-based
    by_round = {s["attrs"]["round"]: s for s in rounds}
    for span in rounds:
        assert span["parent_id"] == session["span_id"]
    for span in spans:
        if span["name"] in ("control", "dispatch", "settle", "merge"):
            parent = by_round[span["attrs"]["round"]]
            assert span["parent_id"] == parent["span_id"]
        elif span["name"] in ("seal", "renegotiate"):
            assert span["parent_id"] == session["span_id"]


def test_overlap_stages_open_in_pipeline_order_per_round(overlap_telemetry):
    _, spans, _ = overlap_telemetry
    # Span ids are handed out at open time, so per-round monotone ids
    # pin the open order without trusting wall clocks.
    opened = {}
    for span in spans:
        if span["name"] in ("round", "control", "dispatch", "settle", "merge"):
            opened.setdefault(span["attrs"]["round"], {})[span["name"]] = (
                span["span_id"]
            )
    assert opened
    for stages in opened.values():
        order = [stages[name] for name in
                 ("round", "control", "dispatch", "settle", "merge")]
        assert order == sorted(order)


def test_overlap_seal_spans_carry_watermark_attrs(overlap_telemetry):
    _, spans, result = overlap_telemetry
    seals = [s for s in spans if s["name"] == "seal"]
    assert len(seals) == len(result.windows)
    for seal in seals:
        assert seal["attrs"]["watermark_lag"] >= 0
        assert seal["attrs"]["rows"] > 0
    assert sorted(s["attrs"]["window"] for s in seals) == [
        w.index for w in result.windows
    ]


def test_stream_metrics_counters(overlap_telemetry):
    tel, _, result = overlap_telemetry
    snap = tel.metrics.snapshot()
    assert snap["repro_stream_records_total"]["values"][""] == (
        result.records_processed
    )
    assert snap["repro_stream_windows_total"]["values"][""] == len(result.windows)
    assert snap["repro_stream_rounds_total"]["values"][""] >= 1
    assert snap["repro_ingest_windows_sealed_total"]["values"][""] == len(
        result.windows
    )
    assert snap["repro_sessions_total"]["values"]['{kind="stream"}'] == 1
    negotiation = snap["repro_stream_negotiation_seconds"]["values"][""]
    assert negotiation["count"] == len(result.events)


def test_config_rejects_non_telemetry_values():
    with pytest.raises(ValueError, match="telemetry"):
        StreamConfig(telemetry="yes")
    with pytest.raises(ValueError, match="telemetry"):
        SessionSpec(kind="batch", dataset="wine", telemetry=object())


def _specs():
    return [
        SessionSpec(kind="batch", dataset="wine", k=3, seed=0, tenant="acme"),
        SessionSpec(
            kind="stream", dataset="wine", k=3, windows=2, window_size=32,
            compute_privacy=False, seed=1, tenant="globex",
        ),
    ]


def test_serve_telemetry_spans_and_counters():
    tel = Telemetry.in_memory()
    with MiningService(
        max_inflight=2, shard_backend="serial", telemetry=tel
    ) as service:
        results = service.run(_specs())
        stats = service.stats()
    tel.close()
    assert len(results) == 2
    spans = tel.tracer.sink.spans
    names = {span["name"] for span in spans}
    assert {"queue", "drive", "session"} <= names
    queues = [s for s in spans if s["name"] == "queue"]
    assert {s["attrs"]["outcome"] for s in queues} == {"started"}
    drives = {s["span_id"]: s for s in spans if s["name"] == "drive"}
    sessions = [s for s in spans if s["name"] == "session"]
    assert len(drives) == 2 and len(sessions) == 2
    for session in sessions:  # session spans nest under their drive span
        assert session["parent_id"] in drives
    snap = tel.metrics.snapshot()
    assert snap["repro_serve_admitted_total"]["values"][""] == 2
    assert snap["repro_sessions_total"]["values"]['{kind="batch"}'] == 1
    assert snap["repro_serve_sessions"]["values"]['{state="completed"}'] == 2
    assert stats.completed == 2


def test_service_stats_to_dict_json_round_trips():
    with MiningService(max_inflight=1, shard_backend="serial") as service:
        service.run(_specs())
        stats = service.stats()
    payload = stats.to_dict()
    assert json.loads(json.dumps(payload)) == payload
    assert payload["completed"] == 2
