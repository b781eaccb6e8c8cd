"""The per-record ingest path the chunked one replaced is the reference.

:class:`ReferencePlane` is the record-at-a-time ``push``/seal/``finish``
logic of :class:`repro.streaming.ingest.IngestPlane` before records moved
as array chunks, and :func:`reference_skewed` the heap-based transport
simulator before :func:`repro.streaming.skewed_chunks`.  Both paths are
driven with the session driver's round rule (feed once ``shards`` windows
are pending), and every sealed window, every round boundary's record
count and every gate counter must come out exactly equal.
"""

import heapq

import numpy as np
import pytest

from repro.sharding import ShardPlan
from repro.streaming import sources
from repro.streaming.ingest import IngestPlane
from repro.streaming.sources import make_stream, skewed_chunks
from repro.streaming.windows import EventWindowAssigner, Window

KINDS = (("tumbling", None), ("sliding", None), ("sliding", 7))
POLICIES = ("drop", "readmit", "upsert")
SKEWS = (0, 1, 6, 40)
WATERMARKS = (0, 2, 9)
SIZES = (32, 50)
#: shard counts, so the round rule's limit varies with the watermark
SHARDS = {0: 2, 2: 3, 9: 1}
COUNTERS = ("records", "late", "dropped", "readmitted", "upserted", "max_skew")


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


class ReferencePlane:
    """Record-at-a-time ingestion: one row tuple per record, gates as dicts."""

    def __init__(self, plan, kind, size, step, k, delay, policy):
        self.plan = plan
        self.assigner = EventWindowAssigner(kind, size, step)
        self.k = k
        self.gates = [dict.fromkeys(COUNTERS, 0) for _ in range(k)]
        self.open = [{} for _ in range(plan.n_shards)]
        self.delay = delay
        self.policy = policy
        self.frontier = -1
        self.next_seal = 0
        self.next_seq = 0
        self.corrections = {}
        self.revisions = {}

    def insert(self, index, row, readmitted=False):
        bucket = self.open[self.plan.shard_of_window(index)].setdefault(
            index, ([], [])
        )
        bucket[1 if readmitted else 0].append(row)

    def push(self, record):
        seq = record.seq if record.seq >= 0 else self.next_seq
        provider = record.provider if record.provider >= 0 else seq % self.k
        gate = self.gates[provider]
        gate["records"] += 1
        gate["max_skew"] = max(gate["max_skew"], self.frontier - seq)
        row = (seq, np.asarray(record.x, dtype=float).ravel(), record.y,
               float(record.time))
        home = self.assigner.fresh_home(seq)
        skip = -1
        if home < self.next_seal:
            gate["late"] += 1
            if self.policy == "drop":
                gate["dropped"] += 1
            elif self.policy == "readmit":
                gate["readmitted"] += 1
                self.insert(self.next_seal, row, readmitted=True)
                skip = self.next_seal
            else:
                gate["upserted"] += 1
                self.corrections.setdefault(home, []).append(row)
        for index in self.assigner.windows_of_seq(seq):
            if index >= self.next_seal and index != skip:
                self.insert(index, row)
        self.frontier = max(self.frontier, seq)
        self.next_seq = max(self.next_seq, seq + 1)
        sealed = []
        while self.frontier - self.delay > self.assigner.last_seq(self.next_seal):
            sealed.extend(self.flush_corrections())
            window = self.seal(self.next_seal)
            self.next_seal += 1
            if window is not None:
                sealed.append(window)
        return sealed

    def finish(self, emit_partial_tail):
        sealed = []
        while self.assigner.last_seq(self.next_seal) <= self.frontier:
            sealed.extend(self.flush_corrections())
            window = self.seal(self.next_seal)
            self.next_seal += 1
            if window is not None:
                sealed.append(window)
        sealed.extend(self.flush_corrections())
        tail = self.seal(self.next_seal, readmitted_only=not emit_partial_tail)
        self.next_seal += 1
        if tail is not None:
            sealed.append(tail)
        return sealed

    def seal(self, index, readmitted_only=False):
        bucket = self.open[self.plan.shard_of_window(index)].pop(index, None)
        if bucket is None:
            return None
        readmitted = sorted(bucket[1], key=lambda row: row[0])
        if readmitted_only:
            if not readmitted:
                return None
            return self.build(index, readmitted, len(readmitted), 0)
        rows = sorted(bucket[0], key=lambda row: row[0])
        fresh_start = self.assigner.fresh_start(index)
        fresh = sum(1 for row in rows if row[0] >= fresh_start) + len(readmitted)
        if fresh == 0:
            return None
        return self.build(index, rows + readmitted, fresh, 0)

    def flush_corrections(self):
        out = []
        for index in sorted(self.corrections):
            rows = sorted(self.corrections.pop(index), key=lambda row: row[0])
            revision = self.revisions.get(index, 0) + 1
            self.revisions[index] = revision
            out.append(self.build(index, rows, len(rows), revision))
        return out

    def build(self, index, rows, fresh, revision):
        times = [row[3] for row in rows]
        return Window(
            index=index,
            X=np.vstack([row[1] for row in rows]),
            y=np.asarray([row[2] for row in rows]),
            start=min(times),
            end=max(times),
            fresh=fresh,
            revision=revision,
        )


def drive_reference(plane, records, shards):
    """The per-record session loop: windows, and records at each round."""
    windows, rounds, pending, count = [], [], [], 0
    for record in records:
        count += 1
        pending.extend(plane.push(record))
        if len(pending) >= shards:
            rounds.append(count)
            windows.extend(pending)
            pending = []
    return windows + pending + plane.finish(emit_partial_tail=False), rounds


def drive_chunked(plane, chunks, shards):
    """The chunked session loop, with its limit rule."""
    windows, rounds, pending, count = [], [], [], 0
    for chunk in chunks:
        while len(chunk):
            sealed, used = plane.push_chunk(chunk, shards - len(pending))
            count += used
            chunk = chunk[used:]
            pending.extend(sealed)
            if len(pending) >= shards:
                rounds.append(count)
                windows.extend(pending)
                pending = []
    return windows + pending + plane.finish(emit_partial_tail=False), rounds


def assert_same_windows(got, expected):
    assert len(got) == len(expected)
    for window, reference in zip(got, expected):
        assert (window.index, window.revision, window.fresh) == (
            reference.index, reference.revision, reference.fresh,
        )
        assert type(window.fresh) is int
        # Windows own their arrays: none is a view into a shared chunk.
        assert window.X.base is None and window.y.base is None
        assert window.X.dtype == reference.X.dtype
        assert window.X.shape == reference.X.shape
        assert window.X.tobytes() == reference.X.tobytes()
        assert window.y.dtype == reference.y.dtype
        assert np.array_equal(window.y, reference.y)
        for name in ("start", "end"):
            assert type(getattr(window, name)) is type(getattr(reference, name))
            assert getattr(window, name) == getattr(reference, name)


def compare(kind, step, policy, n_records):
    for size in SIZES:
        source = make_stream(
            "iris" if size == 32 else "wine", kind="gradual",
            n_records=n_records, seed=size,
        )
        records = list(source)
        for skew in SKEWS:
            arrivals = list(reference_skewed(records, skew, seed=skew))
            chunks = list(skewed_chunks(source.chunks(), skew, seed=skew))
            for watermark in WATERMARKS:
                shards = SHARDS[watermark]
                plan = ShardPlan(shards, "round_robin", n_parties=3)
                reference = ReferencePlane(
                    plan, kind, size, step, 3, watermark, policy
                )
                plane = IngestPlane(
                    plan, window_kind=kind, window_size=size, window_step=step,
                    providers=["a", "b", "c"], watermark_delay=watermark,
                    late_policy=policy,
                )
                expected, expected_rounds = drive_reference(
                    reference, arrivals, shards
                )
                got, rounds = drive_chunked(plane, chunks, shards)
                assert_same_windows(got, expected)
                assert rounds == expected_rounds
                for gate, counters in zip(plane.gates, reference.gates):
                    for name in COUNTERS:
                        value = getattr(gate, name)
                        assert type(value) is int and value == counters[name]
                assert (plane.frontier, plane._next_seq) == (
                    reference.frontier, reference.next_seq,
                )


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("kind,step", KINDS)
def test_chunked_ingest_matches_the_per_record_reference(kind, step, policy):
    compare(kind, step, policy, n_records=520)


@pytest.mark.parametrize("chunk", (1, 7))
@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("kind,step", KINDS)
def test_chunked_ingest_does_not_depend_on_the_chunk_size(
    monkeypatch, kind, step, policy, chunk
):
    monkeypatch.setattr(sources, "_CHUNK", chunk)
    compare(kind, step, policy, n_records=80)
