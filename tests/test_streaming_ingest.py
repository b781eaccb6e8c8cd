"""Event-time ingestion plane: sealing invariants and late policies.

The properties pinned here are the redesign's contract:

* an in-order stream seals exactly the windows the legacy arrival-driven
  buffers emit (contents, order, freshness, timestamps);
* the sealed-window sequence is identical for every shard count and plan;
* an out-of-order stream whose observed lateness stays within the
  watermark seals the same windows as the sorted stream;
* ``readmit`` never loses a record, ``drop`` accounts every discard, and
  ``upsert`` re-emits late rows as corrections — in every case each
  surviving record is fresh in exactly one emitted window.
"""

import time

import numpy as np
import pytest

from repro.checkpoint import CheckpointError, decode, encode
from repro.sharding import ShardPlan
from repro.streaming.ingest import LATE_POLICIES, IngestPlane
from repro.streaming.sources import StreamRecord, skewed
from repro.streaming.windows import make_window_buffer


def seq_records(n, d=1):
    """n records whose first feature is their own sequence number."""
    return [
        StreamRecord(
            x=np.full(d, float(i)), y=i % 2, time=float(i) / 10.0, seq=i
        )
        for i in range(n)
    ]


def make_plane(shards=1, strategy="round_robin", kind="tumbling", size=8,
               step=None, k=3, delay=0, policy="drop"):
    plan = ShardPlan(shards, strategy, n_parties=k)
    return IngestPlane(
        plan,
        window_kind=kind,
        window_size=size,
        window_step=step,
        providers=[f"p{i}" for i in range(k)],
        watermark_delay=delay,
        late_policy=policy,
    )


def run_plane(records, **kwargs):
    plane = make_plane(**kwargs)
    windows = list(plane.ingest(records))
    return windows, plane


def fresh_seqs(windows):
    """Sequence numbers scored as fresh, in emission order."""
    out = []
    for window in windows:
        out.extend(int(v) for v in window.X[-window.fresh :, 0])
    return out


def windows_equal(a, b):
    assert len(a) == len(b)
    for left, right in zip(a, b):
        assert left.index == right.index
        assert left.revision == right.revision
        assert left.fresh == right.fresh
        assert np.array_equal(left.X, right.X)
        assert np.array_equal(left.y, right.y)
        assert left.start == right.start and left.end == right.end


# ----------------------------------------------------------------------
# in-order compatibility with the legacy buffers
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "kind,size,step,n",
    [
        ("tumbling", 4, None, 10),
        ("tumbling", 4, None, 8),
        ("sliding", 4, 2, 9),
        ("sliding", 4, 2, 8),
        ("sliding", 5, 2, 17),
        ("sliding", 6, 6, 14),
    ],
)
def test_in_order_stream_matches_legacy_buffer(kind, size, step, n):
    records = seq_records(n, d=3)
    buffer = make_window_buffer(kind, size, step)
    legacy = []
    for record in records:
        legacy.extend(buffer.push(record.x, record.y, record.time))
    tail = buffer.flush()
    if tail is not None:
        legacy.append(tail)

    sealed, _ = run_plane(records, kind=kind, size=size, step=step)
    windows_equal(sealed, legacy)


@pytest.mark.parametrize("shards,strategy", [
    (1, "round_robin"), (2, "round_robin"), (4, "round_robin"),
    (3, "hash"), (3, "party"),
])
def test_seal_order_independent_of_shard_count_and_plan(shards, strategy):
    records = seq_records(50, d=2)
    reference, _ = run_plane(records, kind="sliding", size=8, step=4)
    sealed, _ = run_plane(
        records, shards=shards, strategy=strategy, kind="sliding", size=8, step=4
    )
    windows_equal(sealed, reference)


def test_watermark_delays_sealing():
    plane = make_plane(size=4, delay=3)
    sealed = []
    for record in seq_records(12):
        sealed.extend(plane.push(record))
    # Window 0 (seqs 0..3) seals only once the frontier passes 3 + 3.
    assert [w.index for w in sealed] == [0, 1]
    assert plane.next_seal == 2
    sealed.extend(plane.finish())
    assert [w.index for w in sealed] == [0, 1, 2]


# ----------------------------------------------------------------------
# out-of-order streams
# ----------------------------------------------------------------------
def test_bounded_lateness_seals_the_sorted_windows():
    records = seq_records(96, d=2)
    reference, _ = run_plane(records, kind="sliding", size=8, step=4)
    for seed in (0, 1, 2):
        shuffled = list(skewed(records, 7, seed=seed))
        assert [r.seq for r in shuffled] != list(range(96))
        sealed, plane = run_plane(
            shuffled, kind="sliding", size=8, step=4, delay=7, policy="readmit"
        )
        stats = plane.stats()
        assert stats.late == 0 and stats.readmitted == 0
        assert 0 < stats.max_skew <= 7
        windows_equal(sealed, reference)


def test_readmit_never_loses_a_record():
    records = seq_records(100)
    rng = np.random.default_rng(5)
    shuffled = [records[i] for i in rng.permutation(100)]
    sealed, plane = run_plane(shuffled, size=8, delay=0, policy="readmit")
    stats = plane.stats()
    assert stats.late > 0 and stats.readmitted == stats.late
    assert stats.dropped == 0
    assert sorted(fresh_seqs(sealed)) == list(range(100))


def test_late_record_still_joins_its_open_overlapping_windows():
    # Regression: a record whose fresh window already sealed is *late*,
    # but with sliding windows it may still belong to open windows as
    # stale context — it must appear there, or window contents diverge
    # from the sorted event stream.
    records = seq_records(8, d=1)
    order = [0, 1, 2, 4, 3, 5, 6, 7]  # record 3 arrives after 4 seals w0
    plane = make_plane(kind="sliding", size=4, step=2, policy="drop")
    sealed = []
    for i in order:
        sealed.extend(plane.push(records[i]))
    sealed.extend(plane.finish())
    assert plane.stats().late == 1 and plane.stats().dropped == 1
    by_index = {w.index: w for w in sealed}
    # Window 1 covers seqs 2..5; the late record 3 is stale context there.
    assert [int(v) for v in by_index[1].X[:, 0]] == [2, 3, 4, 5]
    # Dropped means never *fresh*: 3 is absent from every fresh region.
    assert 3 not in fresh_seqs(sealed)


def test_drop_accounts_every_discard():
    records = seq_records(100)
    shuffled = list(skewed(records, 20, seed=3))
    sealed, plane = run_plane(shuffled, size=8, delay=0, policy="drop")
    stats = plane.stats()
    assert stats.late > 0 and stats.dropped == stats.late
    survivors = fresh_seqs(sealed)
    assert len(survivors) == len(set(survivors))
    assert len(survivors) + stats.dropped == 100
    assert all(w.revision == 0 for w in sealed)


def test_upsert_reemits_late_rows_as_corrections():
    records = seq_records(100)
    shuffled = list(skewed(records, 20, seed=3))
    sealed, plane = run_plane(shuffled, size=8, delay=0, policy="upsert")
    stats = plane.stats()
    corrections = [w for w in sealed if w.revision > 0]
    assert stats.late > 0 and stats.upserted == stats.late
    assert corrections and all(w.fresh == w.n_rows for w in corrections)
    # Each correction patches a window that was already sealed earlier.
    for position, window in enumerate(sealed):
        if window.revision == 0:
            continue
        earlier = [w.index for w in sealed[:position] if w.revision == 0]
        assert window.index in earlier
    # Every record is fresh exactly once, corrections included.
    assert sorted(fresh_seqs(sealed)) == list(range(100))


def test_finish_without_partial_tail_mirrors_the_legacy_session():
    # The legacy session never flushed its buffer, so the in-order
    # remainder of a non-multiple stream was dropped.  The plane must
    # reproduce that on request — while still emitting rows readmitted
    # into the tail, which the readmit policy promises never to lose.
    records = seq_records(10, d=2)
    plane = make_plane(size=4)
    sealed = []
    for record in records:
        sealed.extend(plane.push(record))
    sealed.extend(plane.finish(emit_partial_tail=False))
    assert [w.index for w in sealed] == [0, 1]
    assert fresh_seqs(sealed) == list(range(8))  # seqs 8, 9 discarded

    # Same stream shuffled so records land late and get readmitted into
    # the tail: those rows must survive the tail discard.
    shuffled = [records[i] for i in (3, 4, 5, 6, 7, 8, 9, 0, 1, 2)]
    plane = make_plane(size=4, policy="readmit")
    sealed = []
    for record in shuffled:
        sealed.extend(plane.push(record))
    sealed.extend(plane.finish(emit_partial_tail=False))
    assert plane.stats().readmitted > 0
    survivors = fresh_seqs(sealed)
    assert len(survivors) == len(set(survivors))
    assert set(range(3)) <= set(survivors)  # the readmitted early seqs


def test_stats_snapshot_is_frozen_against_later_pushes():
    plane = make_plane(size=4)
    records = seq_records(12)
    for record in records[:6]:
        plane.push(record)
    snapshot = plane.stats()
    assert snapshot.providers[0].records == 2
    for record in records[6:]:
        plane.push(record)
    assert snapshot.providers[0].records == 2  # not aliased to live gates
    assert plane.stats().providers[0].records == 4


def test_emission_order_is_monotone_per_revision():
    records = seq_records(120)
    shuffled = list(skewed(records, 15, seed=9))
    sealed, _ = run_plane(
        shuffled, kind="sliding", size=10, step=5, delay=2, policy="upsert"
    )
    regular = [w.index for w in sealed if w.revision == 0]
    assert regular == sorted(regular)


# ----------------------------------------------------------------------
# gates, stats, validation
# ----------------------------------------------------------------------
def test_round_robin_provider_attribution_and_counters():
    _, plane = run_plane(seq_records(30), size=8, k=3)
    assert [g.records for g in plane.gates] == [10, 10, 10]
    stats = plane.stats()
    assert stats.records == 30 and stats.late == 0 and stats.max_skew == 0


def test_explicit_provider_attribution_wins():
    records = [
        StreamRecord(
            x=np.array([float(i)]), y=0, time=float(i), seq=i, provider=2
        )
        for i in range(8)
    ]
    _, plane = run_plane(records, size=4, k=3)
    assert [g.records for g in plane.gates] == [0, 0, 8]


def test_unstamped_records_get_arrival_order_seqs():
    records = [
        StreamRecord(x=np.array([float(i)]), y=0, time=float(i))
        for i in range(10)
    ]
    sealed, plane = run_plane(records, size=4)
    assert plane.frontier == 9
    assert fresh_seqs(sealed) == list(range(10))


def test_per_provider_late_counters():
    records = seq_records(100)
    shuffled = list(skewed(records, 20, seed=3))
    _, plane = run_plane(shuffled, size=8, delay=0, policy="drop", k=4)
    stats = plane.stats()
    assert stats.late == sum(g.late for g in plane.gates)
    assert stats.max_skew == max(g.max_skew for g in plane.gates)
    payload = stats.to_dict()
    assert len(payload["providers"]) == 4
    assert payload["late"] == stats.late


def test_validation_and_lifecycle():
    with pytest.raises(ValueError, match="watermark_delay"):
        make_plane(delay=-1)
    with pytest.raises(ValueError, match="late policy"):
        make_plane(policy="vanish")
    with pytest.raises(ValueError, match="window kind"):
        make_plane(kind="hopping")
    assert LATE_POLICIES == ("drop", "readmit", "upsert")

    plane = make_plane()
    plane.finish()
    with pytest.raises(RuntimeError, match="finished"):
        plane.push(seq_records(1)[0])
    assert plane.finish() == []

    bad_provider = StreamRecord(
        x=np.array([0.0]), y=0, time=0.0, seq=0, provider=9
    )
    with pytest.raises(ValueError, match="provider"):
        make_plane().push(bad_provider)

    # A fractional or boolean delay is refused, as StreamConfig refuses it.
    for delay in (1.5, True):
        with pytest.raises(ValueError, match="watermark_delay"):
            make_plane(delay=delay)

    # Records the plane cannot honour are refused at push, before they
    # touch any counter or window: non-finite event times (they would
    # skew the window's start/end), providers and sequence numbers below
    # the -1 that means "unset", and fractional sequence numbers.
    def record(**fields):
        return StreamRecord(**{"x": np.array([0.0]), "y": 0, "time": 0.0,
                               "seq": 0, **fields})

    for bad in (
        {"time": float("nan")},
        {"time": float("inf")},
        {"provider": -2},
        {"seq": -2},
        {"seq": 2.5},
    ):
        plane = make_plane()
        with pytest.raises(ValueError):
            plane.push(record(**bad))
        assert plane.stats().records == 0 and plane.open_windows == 0
    # A record whose feature count differs from the plane's is refused
    # at push, naming the record, not at its window's seal.
    plane = make_plane()
    plane.push(record(x=np.array([0.0, 1.0])))
    with pytest.raises(ValueError, match="seq 1 .* 1 features"):
        plane.push(record(seq=1))
    assert plane.stats().records == 1


@pytest.mark.parametrize("kind,step,far_window", [
    ("tumbling", None, 10**9 // 8),
    ("sliding", 2, 10**9 // 2 - 3),
])
def test_sealing_cost_does_not_grow_with_the_sequence_gap(kind, step, far_window):
    far = 10**9

    def record(seq):
        return StreamRecord(x=np.array([float(seq)]), y=0, time=float(seq), seq=seq)

    # Through push: the far record's arrival seals window 0 and skips
    # every empty window up to the far record's own.
    plane = make_plane(kind=kind, size=8, step=step)
    plane.push(record(0))
    began = time.perf_counter()
    sealed = plane.push(record(far))
    assert time.perf_counter() - began < 1.0
    assert [w.index for w in sealed] == [0]
    assert plane.next_seal == far_window
    tail = plane.finish()
    assert [(w.index, w.X[:, 0].tolist()) for w in tail] == [(far_window, [far])]

    # Through finish: a delay as wide as the gap leaves both open.
    plane = make_plane(kind=kind, size=8, step=step, delay=far)
    plane.push(record(0))
    assert plane.push(record(far)) == []
    began = time.perf_counter()
    sealed = plane.finish()
    assert time.perf_counter() - began < 1.0
    assert [(w.index, w.X[:, 0].tolist()) for w in sealed] == [
        (0, [0.0]), (far_window, [far]),
    ]


# ----------------------------------------------------------------------
# checkpoints: a restored plane seals what the original would have
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind, step", [("tumbling", None), ("sliding", 4)])
@pytest.mark.parametrize("policy", ["readmit", "upsert"])
def test_snapshot_restore_seals_what_the_original_would(kind, step, policy):
    records = list(skewed(seq_records(160, d=2), 20, seed=3))
    knobs = dict(shards=2, kind=kind, size=8, step=step, policy=policy)
    plane = make_plane(**knobs)
    # Stop where the snapshot holds open rows and the policy's pending
    # late rows: readmitted rows, or corrections not yet emitted.
    for cut, record in enumerate(records):
        plane.push(record)
        state = plane.snapshot()
        pending = (
            [readmitted for shard in state.open for _, readmitted in shard.values()]
            if policy == "readmit"
            else list(state.corrections.values())
        )
        if any(state.open) and any(pending):
            break
    else:
        pytest.fail("the stream never left late rows pending")
    restored = make_plane(**knobs)
    restored.restore(decode(encode(state)), dimension=2)
    rest = records[cut + 1 :]
    sealed = [[w for r in rest for w in p.push(r)] for p in (plane, restored)]
    windows_equal(*sealed)
    assert encode(restored.snapshot()) == encode(plane.snapshot())
    windows_equal(plane.finish(), restored.finish())


def test_restore_refuses_another_layout():
    state = make_plane(shards=2).snapshot()
    with pytest.raises(CheckpointError, match="ingest state"):
        make_plane(shards=2, k=2).restore(state)
    with pytest.raises(CheckpointError, match="ingest state"):
        make_plane(shards=3).restore(state)
