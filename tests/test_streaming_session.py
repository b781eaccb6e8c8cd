"""End-to-end streaming session: drift response, trust, accuracy bound."""

import numpy as np
import pytest

from repro.streaming import (
    StreamConfig,
    TrustChange,
    make_stream,
    run_stream_session,
)

N_WINDOWS = 16
WINDOW = 48


def run(kind, config=None, dataset="wine", seed=0, **stream_kwargs):
    source = make_stream(
        dataset, kind=kind, n_records=N_WINDOWS * WINDOW, seed=seed, **stream_kwargs
    )
    return run_stream_session(
        source, config or StreamConfig(k=3, window_size=WINDOW, seed=0)
    )


def test_stationary_stream_never_readapts():
    result = run("stationary")
    assert result.readaptations == 0
    assert len(result.events) == 1 and result.events[0].reason == "initial"
    assert len(result.windows) == N_WINDOWS
    assert result.records_processed == N_WINDOWS * WINDOW


def test_abrupt_drift_triggers_readaptation():
    result = run("abrupt")
    assert result.readaptations >= 1
    drift_events = [e for e in result.events if e.reason == "drift"]
    assert drift_events
    expected_window = (N_WINDOWS * WINDOW // 2) // WINDOW
    assert drift_events[0].window == expected_window
    assert drift_events[0].statistic > 0


def test_deviation_stays_within_paper_style_bound():
    """Online prequential deviation after re-adaptation stays small for the
    rotation-invariant KNN miner (the paper's Figures 5/6 band is a few
    points; allow a conservative 5 for the smaller online windows)."""
    for kind in ("stationary", "abrupt"):
        result = run(kind)
        assert abs(result.deviation) < 5.0
        # Post-drift windows individually stay reasonable too.
        post = [w for w in result.windows if w.index > N_WINDOWS // 2 + 1]
        for w in post:
            assert abs(w.deviation) < 15.0


def test_trust_change_forces_renegotiation_on_schedule():
    config = StreamConfig(
        k=3,
        window_size=WINDOW,
        trust_changes=(TrustChange(window=5, party=0, trust=0.5),),
        seed=0,
    )
    result = run("stationary", config)
    assert result.readaptations == 1
    event = [e for e in result.events if e.reason == "trust"][0]
    assert event.window == 5


def test_trust_change_at_window_zero_shapes_initial_negotiation():
    """A trust change scheduled at the very first window is not dropped:
    it is folded into the initial negotiation's noise levels (there is no
    separate 'trust' event because only one negotiation happens)."""
    config = StreamConfig(
        k=3,
        window_size=WINDOW,
        trust_changes=tuple(
            TrustChange(window=0, party=p, trust=0.5) for p in range(3)
        ),
        seed=0,
    )
    result = run("stationary", config)
    assert [e.reason for e in result.events] == ["initial"]
    baseline = run("stationary")
    # Lower trust means more noise for every party, which the fast-suite
    # guarantee of the initial epoch reflects.
    assert result.events[0].privacy_guarantee is not None
    assert (
        result.events[0].privacy_guarantee
        != baseline.events[0].privacy_guarantee
    )


def test_sliding_windows_score_each_record_once():
    config = StreamConfig(
        k=3, window_size=WINDOW, window_kind="sliding",
        window_step=WINDOW // 3, seed=0,
    )
    result = run("stationary", config)
    scored = sum(w.n_records for w in result.windows)
    assert scored <= result.records_processed
    assert result.windows[0].n_records == WINDOW
    assert all(w.n_records == WINDOW // 3 for w in result.windows[1:])


def test_negotiations_are_charged_to_the_network():
    result = run("abrupt")
    # Each negotiation sends 2 messages to each non-coordinator provider
    # (assignment + target params) and receives one adaptor back.
    per_negotiation = 3 * (result.config.k - 1)
    assert result.messages_sent == per_negotiation * len(result.events)
    assert result.bytes_sent > 0
    assert all(e.virtual_duration > 0 for e in result.events)


def test_privacy_guarantee_refreshed_per_epoch():
    result = run("abrupt")
    guarantees = [e.privacy_guarantee for e in result.events]
    assert all(g is not None and 0.0 <= g for g in guarantees)
    off = StreamConfig(k=3, window_size=WINDOW, compute_privacy=False, seed=0)
    result_off = run("abrupt", off)
    assert all(e.privacy_guarantee is None for e in result_off.events)


def test_linear_svm_stream_runs_and_stays_close():
    config = StreamConfig(k=3, window_size=WINDOW, classifier="linear_svm", seed=0)
    result = run("stationary", config, dataset="iris")
    assert len(result.windows) == N_WINDOWS
    assert abs(result.deviation) < 10.0


def test_result_summary_and_series():
    result = run("abrupt")
    text = result.summary()
    for fragment in ("re-adaptations", "throughput", "deviation", "privacy"):
        assert fragment in text
    series = result.deviation_series()
    assert len(series) == N_WINDOWS
    assert result.throughput > 0
    assert result.mean_readapt_latency >= 0


def test_deterministic_under_seeds():
    a = run("abrupt")
    b = run("abrupt")
    assert a.accuracy_perturbed == b.accuracy_perturbed
    assert a.accuracy_baseline == b.accuracy_baseline
    assert [w.drift_statistic for w in a.windows] == [
        w.drift_statistic for w in b.windows
    ]


# ----------------------------------------------------------------------
# event-time ingestion
# ----------------------------------------------------------------------
def event_config(**overrides):
    base = dict(k=3, window_size=WINDOW, compute_privacy=False, seed=0)
    base.update(overrides)
    return StreamConfig(**base)


def test_out_of_order_within_watermark_matches_in_order_run():
    """Lateness <= watermark under readmit: identical session, bit for bit."""
    in_order = run("abrupt", event_config())
    skewed_run = run(
        "abrupt",
        event_config(skew=9, watermark_delay=9, late_policy="readmit"),
    )
    assert skewed_run.ingest.late == 0
    assert 0 < skewed_run.ingest.max_skew <= 9
    assert skewed_run.accuracy_perturbed == in_order.accuracy_perturbed
    assert skewed_run.accuracy_baseline == in_order.accuracy_baseline
    assert skewed_run.deviation_series() == in_order.deviation_series()
    assert skewed_run.messages_sent == in_order.messages_sent
    assert skewed_run.bytes_sent == in_order.bytes_sent
    assert skewed_run.data_messages_sent == in_order.data_messages_sent
    assert skewed_run.data_bytes_sent == in_order.data_bytes_sent
    assert [w.drift_statistic for w in skewed_run.windows] == [
        w.drift_statistic for w in in_order.windows
    ]


def test_skewed_session_identical_across_shard_counts_and_backends():
    reference = run(
        "stationary",
        event_config(skew=12, watermark_delay=4, late_policy="readmit"),
    )
    assert reference.ingest.late > 0  # the scenario actually exercises lateness
    for shards, backend in ((3, "serial"), (4, "process")):
        result = run(
            "stationary",
            event_config(
                skew=12, watermark_delay=4, late_policy="readmit",
                shards=shards, shard_backend=backend,
            ),
        )
        assert result.overlap is (backend == "process")
        assert result.accuracy_perturbed == reference.accuracy_perturbed
        assert result.deviation_series() == reference.deviation_series()
        assert result.ingest.to_dict() == reference.ingest.to_dict()


def test_drop_policy_discards_and_accounts():
    result = run("stationary", event_config(skew=12, late_policy="drop"))
    assert result.ingest.late > 0
    assert result.ingest.dropped == result.ingest.late
    scored = sum(w.n_records for w in result.windows)
    assert scored == result.records_processed - result.ingest.dropped


def test_readmit_policy_scores_every_record():
    result = run("stationary", event_config(skew=12, late_policy="readmit"))
    assert result.ingest.readmitted == result.ingest.late > 0
    assert sum(w.n_records for w in result.windows) == result.records_processed


def test_upsert_policy_emits_correction_windows():
    result = run("stationary", event_config(skew=12, late_policy="upsert"))
    corrections = [w for w in result.windows if w.revision > 0]
    assert result.ingest.upserted == result.ingest.late > 0
    assert corrections
    assert all(not w.readapted for w in corrections)
    assert sum(w.n_records for w in result.windows) == result.records_processed


def test_heavy_skew_tiny_windows_survive_every_policy():
    # Regression: with window_size 2 and skew far beyond the watermark,
    # corrections can outrun the first regular window (epoch not yet
    # negotiated) and sealed windows can be degenerate (1 row) — both
    # used to crash the driver (AssertionError / drift-rebase ValueError).
    for policy, seed, skew in (("upsert", 1, 30), ("upsert", 0, 16),
                               ("drop", 2, 24), ("readmit", 3, 24)):
        source = make_stream("iris", n_records=120, seed=seed)
        result = run_stream_session(
            source,
            StreamConfig(k=3, window_size=2, skew=skew, watermark_delay=0,
                         late_policy=policy, seed=seed,
                         compute_privacy=False),
        )
        assert result.ingest.late > 0


def test_in_order_partial_tail_is_dropped_like_the_legacy_driver():
    # 100 records / 32-row windows: the legacy driver scored exactly 3
    # windows (96 records) and silently dropped the remainder; the
    # event-time plane must not start scoring the tail.
    source = make_stream("wine", n_records=100, seed=2)
    result = run_stream_session(
        source, StreamConfig(k=3, window_size=32, seed=4,
                             compute_privacy=False)
    )
    assert len(result.windows) == 3
    assert sum(w.n_records for w in result.windows) == 96
    assert result.records_processed == 100


def test_ingest_counters_surface_in_summary_and_json():
    result = run("stationary", event_config(skew=12, late_policy="readmit"))
    assert "ingestion" in result.summary()
    payload = result.to_dict()
    assert payload["ingest"]["late"] == result.ingest.late
    assert payload["ingest"]["max_skew"] == result.ingest.max_skew
    providers = payload["ingest"]["providers"]
    assert [p["name"] for p in providers] == [
        "provider-0", "provider-1", "coordinator"
    ]
    assert sum(p["records"] for p in providers) == result.records_processed
    assert len(payload["provider_records"]) == result.config.k


def test_event_time_config_validation():
    with pytest.raises(ValueError, match="watermark_delay"):
        StreamConfig(watermark_delay=-1)
    with pytest.raises(ValueError, match="late policy"):
        StreamConfig(late_policy="vanish")
    with pytest.raises(ValueError, match="skew"):
        StreamConfig(skew=-2)


def test_config_validation():
    with pytest.raises(ValueError):
        StreamConfig(k=1)
    with pytest.raises(ValueError):
        StreamConfig(window_size=1)
    with pytest.raises(ValueError):
        TrustChange(window=0, party=0, trust=0.0)
    with pytest.raises(ValueError):
        TrustChange(window=-1, party=0, trust=0.5)
    config = StreamConfig(
        k=3, trust_changes=(TrustChange(window=0, party=7, trust=0.5),)
    )
    source = make_stream("iris", n_records=64, seed=0)
    with pytest.raises(ValueError):
        run_stream_session(source, config)


def test_driver_stages_run_one_at_a_time():
    # The driver is an object, so a round can be walked through its
    # stages by hand: control negotiates, settle trains, merge scores.
    from repro.streaming.stream_session import _StreamRun

    source = make_stream("iris", kind="stationary", n_records=4 * 32, seed=0)
    run = _StreamRun(
        source, StreamConfig(k=3, window_size=32, compute_privacy=False)
    )
    try:
        sealed, used = run.plane.push_chunk(next(source.chunks()))
        assert used == 4 * 32 and [w.index for w in sealed] == [0, 1, 2]
        current = run.control(sealed)
        assert [e.reason for e in run.state.events] == ["initial"]
        assert (current.round_id, run.state.round_seq) == (0, 1)
        assert run.state.window_stats == [] and run.miner.n_seen == 0
        run.dispatch(current)
        run.settle(current)
        assert run.miner.n_seen == 3 * 32
        run.merge(current)
        assert [w.index for w in run.state.window_stats] == [0, 1, 2]
        assert run.state.scored == 3 * 32 and not run.live_rounds
    finally:
        run.pool.close()
