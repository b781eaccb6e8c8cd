"""Stream-source behaviour: determinism, drift schedules, arrival times."""

import heapq

import numpy as np
import pytest

from repro.datasets.registry import load_dataset
from repro.streaming import sources
from repro.streaming.sources import (
    STREAM_KINDS,
    StreamRecord,
    StreamSource,
    chunked,
    make_stream,
    skewed,
    skewed_chunks,
)


def collect(source):
    xs, ys, ts = [], [], []
    for record in source:
        xs.append(record.x)
        ys.append(record.y)
        ts.append(record.time)
    return np.vstack(xs), np.asarray(ys), np.asarray(ts)


def test_shapes_labels_and_monotone_time():
    source = make_stream("iris", n_records=200, seed=0)
    X, y, t = collect(source)
    pool = load_dataset("iris")
    assert X.shape == (200, pool.n_features)
    assert set(np.unique(y)) <= set(int(c) for c in pool.classes)
    assert np.all(np.diff(t) > 0)


def test_deterministic_under_seed():
    a = collect(make_stream("wine", kind="abrupt", n_records=100, seed=3))
    b = collect(make_stream("wine", kind="abrupt", n_records=100, seed=3))
    c = collect(make_stream("wine", kind="abrupt", n_records=100, seed=4))
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    assert not np.array_equal(a[0], c[0])


def test_stationary_mean_matches_pool():
    pool = load_dataset("wine")
    X, _, _ = collect(make_stream(pool, n_records=4000, seed=0))
    pool_std = pool.X.std(axis=0)
    shift = np.abs(X.mean(axis=0) - pool.X.mean(axis=0)) / np.where(
        pool_std > 0, pool_std, 1.0
    )
    assert shift.max() < 0.15


def test_abrupt_drift_shifts_the_tail():
    source = make_stream("wine", kind="abrupt", n_records=1000, seed=0, magnitude=2.0)
    X, _, _ = collect(source)
    split = source.drift_index
    pool_std = source.pool.X.std(axis=0)
    delta = np.abs(X[split:].mean(axis=0) - X[:split].mean(axis=0)) / np.where(
        pool_std > 0, pool_std, 1.0
    )
    assert delta.max() > 0.8


def test_gradual_drift_ramps():
    source = make_stream(
        "wine", kind="gradual", n_records=1000, seed=0,
        drift_at=0.4, transition=0.4, magnitude=2.0,
    )
    X, _, _ = collect(source)
    pre = X[:400].mean(axis=0)
    mid = X[500:600].mean(axis=0)
    post = X[850:].mean(axis=0)
    pool_std = source.pool.X.std(axis=0)
    safe = np.where(pool_std > 0, pool_std, 1.0)
    mid_shift = np.abs(mid - pre).max() / safe.max()
    post_shift = (np.abs(post - pre) / safe).max()
    assert 0 < mid_shift < post_shift


def test_bursty_rate_alternates():
    source = make_stream(
        "iris", kind="bursty", n_records=800, seed=0, rate=100.0, burst_factor=10.0
    )
    _, _, t = collect(source)
    gaps = np.diff(t)
    period = 800 // 8
    fast = np.concatenate([gaps[i : i + period] for i in (0, 2 * period)])
    slow = np.concatenate([gaps[period : 2 * period], gaps[3 * period : 4 * period]])
    assert slow.mean() > 3.0 * fast.mean()


def test_records_are_sequence_stamped_events():
    source = make_stream("iris", n_records=50, seed=0)
    records = list(source)
    assert [r.seq for r in records] == list(range(50))
    # Provider attribution defaults to "unassigned" (the consumer's k
    # decides the round-robin), and the legacy 3-field view still works.
    assert all(r.provider == -1 for r in records)
    x, y, t = records[0].x, records[0].y, records[0].time
    assert x.shape == (source.dimension,) and isinstance(y, int) and t > 0


def event_stream(n):
    return [
        StreamRecord(x=np.array([float(i)]), y=0, time=float(i), seq=i)
        for i in range(n)
    ]


def test_skewed_is_a_bounded_displacement_permutation():
    n, skew = 200, 5
    out = list(skewed(event_stream(n), skew, seed=1))
    seqs = [r.seq for r in out]
    assert sorted(seqs) == list(range(n))
    assert seqs != list(range(n))
    for position, seq in enumerate(seqs):
        assert abs(position - seq) <= skew
    # Observed lateness (frontier gap at arrival) never exceeds the skew.
    frontier, lateness = -1, 0
    for seq in seqs:
        lateness = max(lateness, frontier - seq)
        frontier = max(frontier, seq)
    assert 0 < lateness <= skew


def test_skewed_preserves_event_identity():
    records = event_stream(40)
    out = sorted(skewed(records, 6, seed=2), key=lambda r: r.seq)
    for original, delivered in zip(records, out):
        assert delivered.seq == original.seq
        assert delivered.time == original.time
        assert np.array_equal(delivered.x, original.x)


def test_skewed_determinism_and_identity_cases():
    records = event_stream(60)
    a = [r.seq for r in skewed(records, 4, seed=7)]
    b = [r.seq for r in skewed(records, 4, seed=7)]
    c = [r.seq for r in skewed(records, 4, seed=8)]
    assert a == b and a != c
    assert [r.seq for r in skewed(records, 0, seed=7)] == list(range(60))
    with pytest.raises(ValueError):
        list(skewed(records, -1))
    with pytest.raises(ValueError):
        next(skewed(records, 2.5))


def test_skewed_stamps_unsequenced_records():
    plain = [
        StreamRecord(x=np.array([float(i)]), y=0, time=float(i))
        for i in range(20)
    ]
    out = list(skewed(plain, 3, seed=0))
    assert sorted(r.seq for r in out) == list(range(20))


def test_validation_errors():
    pool = load_dataset("iris")
    with pytest.raises(ValueError):
        StreamSource(name="x", kind="wiggly", pool=pool, n_records=10)
    with pytest.raises(ValueError):
        StreamSource(name="x", kind="abrupt", pool=pool, n_records=0)
    with pytest.raises(ValueError):
        StreamSource(name="x", kind="abrupt", pool=pool, n_records=10, drift_at=1.5)
    with pytest.raises(KeyError):
        make_stream("not-a-dataset", n_records=10)
    # Parameters the generator cannot honour: a fractional length, and
    # non-finite rates (equal or NaN event times) or drift magnitude.
    for bad in (
        {"n_records": 2.5},
        {"rate": float("inf")},
        {"rate": float("nan")},
        {"burst_factor": float("nan")},
        {"magnitude": float("nan")},
    ):
        with pytest.raises(ValueError):
            make_stream("iris", **bad)
    assert STREAM_KINDS == ("stationary", "abrupt", "gradual", "bursty")


# ----------------------------------------------------------------------
# The per-record generators the chunked ones replaced are the reference:
# every record must come out exactly as they made it.
# ----------------------------------------------------------------------
def reference_drift_weight(source, index):
    if source.kind in ("stationary", "bursty"):
        return 0.0
    start = source.drift_index
    if index < start:
        return 0.0
    if source.kind == "abrupt":
        return 1.0
    span = max(1, int(source.n_records * source.transition))
    return min(1.0, (index - start) / span)


def reference_records(source):
    rng = np.random.default_rng(source.seed)
    pool_std = source.pool.X.std(axis=0)
    direction = rng.normal(size=source.dimension)
    direction /= np.linalg.norm(direction)
    shift = source.magnitude * np.where(pool_std > 0, pool_std, 1.0) * direction
    scaled = rng.random(source.dimension) < (1.0 / 3.0)
    scale = np.where(scaled, 1.0 + 0.5 * source.magnitude / 1.5, 1.0)
    pool_mean = source.pool.X.mean(axis=0)

    now = 0.0
    burst_period = max(1, source.n_records // 8)
    for index in range(source.n_records):
        row = int(rng.integers(source.pool.n_rows))
        x = source.pool.X[row].astype(float).copy()
        y = int(source.pool.y[row])

        weight = reference_drift_weight(source, index)
        if weight > 0.0:
            effective_scale = 1.0 + weight * (scale - 1.0)
            x = pool_mean + (x - pool_mean) * effective_scale + weight * shift

        if source.kind == "bursty":
            fast = (index // burst_period) % 2 == 0
            rate = source.rate * source.burst_factor if fast else source.rate
        else:
            rate = source.rate
        now += float(rng.exponential(1.0 / rate))
        yield StreamRecord(x=x, y=y, time=now, seq=index)


def reference_skewed(records, skew, seed=0):
    if skew == 0:
        for index, record in enumerate(records):
            yield record if record.seq >= 0 else record._replace(seq=index)
        return
    rng = np.random.default_rng([abs(int(seed)), 0x5345_5153])
    heap = []
    for index, record in enumerate(records):
        if record.seq < 0:
            record = record._replace(seq=index)
        key = index + int(rng.integers(skew + 1))
        heapq.heappush(heap, (key, record.seq, record))
        while heap and heap[0][0] <= index:
            yield heapq.heappop(heap)[2]
    while heap:
        yield heapq.heappop(heap)[2]


def assert_same_records(got, expected):
    assert len(got) == len(expected)
    for record, reference in zip(got, expected):
        assert record.x.dtype == reference.x.dtype
        assert record.x.shape == reference.x.shape
        assert record.x.tobytes() == reference.x.tobytes()
        assert type(record.y) is type(reference.y) and record.y == reference.y
        assert type(record.time) is type(reference.time)
        assert record.time == reference.time
        assert (record.seq, record.provider) == (reference.seq, reference.provider)


def flatten(chunks):
    return [record for chunk in chunks for record in chunk.records()]


CHUNK = sources._CHUNK


@pytest.mark.parametrize("n_records", (1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 7))
@pytest.mark.parametrize("kind", STREAM_KINDS)
@pytest.mark.parametrize("dataset", ("iris", "wine"))
def test_records_match_the_per_record_reference(dataset, kind, n_records):
    source = make_stream(dataset, kind=kind, n_records=n_records, seed=n_records)
    expected = list(reference_records(source))
    assert_same_records(list(source), expected)
    for skew in (0, 1, 6, n_records + 5):
        reference = list(reference_skewed(expected, skew, seed=3))
        assert_same_records(list(skewed(source, skew, seed=3)), reference)
        assert_same_records(
            flatten(skewed_chunks(source.chunks(), skew, seed=3)), reference
        )


@pytest.mark.parametrize("chunk", (1, 7))
def test_records_do_not_depend_on_the_chunk_size(monkeypatch, chunk):
    monkeypatch.setattr(sources, "_CHUNK", chunk)
    for kind in STREAM_KINDS:
        source = make_stream(
            "wine", kind=kind, n_records=45, seed=5, drift_at=0.3, transition=0.3
        )
        expected = list(reference_records(source))
        assert_same_records(list(source), expected)
        reference = list(reference_skewed(expected, 6, seed=1))
        assert_same_records(list(skewed(source, 6, seed=1)), reference)
        assert_same_records(
            flatten(skewed_chunks(source.chunks(), 6, seed=1)), reference
        )


def test_chunked_packs_records_as_the_source_chunks_them():
    source = make_stream("wine", kind="abrupt", n_records=300, seed=2)
    packed = list(chunked(list(source)))
    generated = list(source.chunks())
    assert len(packed) == len(generated)
    for left, right in zip(packed, generated):
        for name in ("x", "y", "time", "seq", "provider"):
            a, b = getattr(left, name), getattr(right, name)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
    # Unstamped records are stamped as the ingestion plane stamps them:
    # one past the largest sequence number before them.
    plain = [
        StreamRecord(x=np.array([0.0]), y=0, time=0.0, seq=seq)
        for seq in (5, -1, 2, -1)
    ]
    assert [chunk.seq.tolist() for chunk in chunked(plain)] == [[5, 6, 2, 7]]
