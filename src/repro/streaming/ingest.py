"""Event-time ingestion plane: provider gates, per-shard buffers, watermarks.

The original streaming pipeline *pulled* records through one driver-side
:class:`~repro.streaming.windows.WindowBuffer` that sealed windows by
arrival count — fine for an in-order simulation, but structurally unable
to model what the paper's multiparty deployment actually looks like: each
data provider *pushes* its own records, providers run at skewed rates, and
the network delivers out of order.  This module inverts that control flow:

* a :class:`ProviderGate` is one provider's ingestion endpoint — it
  stamps/attributes incoming records and tracks per-provider counters
  (records, observed lateness, late/dropped/readmitted/upserted);
* a :class:`ShardIngest` is one logical shard's buffer of *open* windows,
  holding the rows of every window the :class:`~repro.sharding.ShardPlan`
  assigns to that shard (the record-granular ingestion the ROADMAP asks
  for — batches accumulate where the window will be processed);
* the :class:`IngestPlane` owns both, maintains the **arrival frontier**
  (largest sequence number seen) and the **watermark**
  ``frontier - watermark_delay``, and *seals* a window the moment the
  watermark passes its last sequence number.  Regular (``revision == 0``)
  windows come out in strictly increasing index order regardless of the
  shard count, plan, or arrival interleaving — the determinism contract
  the session driver's window-ordered control plane relies on.  (Under
  ``upsert``, correction windows necessarily re-emit *earlier* indices
  after later ones sealed — each index's revisions are increasing, but
  the global emission order is only monotone per revision stream.)

Window membership is pure sequence arithmetic
(:class:`~repro.streaming.windows.EventWindowAssigner`), so a window's
contents depend only on the *event* stream: an out-of-order arrival order
whose observed lateness never exceeds ``watermark_delay`` seals exactly
the windows the sorted stream would — the bounded-lateness guarantee the
acceptance tests pin.  Records that do arrive after their window sealed
are handled by one of three late policies (:data:`LATE_POLICIES`):

* ``drop``    — never score the record as fresh, counting it per
  provider (with sliding windows it still lands as stale context in any
  open overlapping window, like every non-fresh row);
* ``readmit`` — append it to the oldest still-open window as an extra
  fresh row: no record is ever lost, at the cost of it being mined in a
  later window than it belongs to;
* ``upsert``  — re-emit it in a *correction window* carrying the original
  window index and ``revision >= 1``, so downstream consumers can patch
  the already-consumed window (the miner trains on the late rows, the
  normalizer absorbs them, accounting charges them).

With an in-order stream and ``watermark_delay=0`` the plane reproduces the
legacy buffers' windows bit-for-bit, which is how the whole redesign stays
fingerprint-compatible.

Records arrive as array chunks (:meth:`IngestPlane.push_chunk`;
:meth:`IngestPlane.push` is the one-record case).  Between two seal events
the seal index does not change, so lateness, the late policy and window
membership are array operations over the run of records between them, and
open windows buffer row runs that a seal concatenates.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..checkpoint.codec import register
from ..obs import ingest_collector
from ..sharding.plan import ShardPlan
from .sources import RecordChunk, StreamRecord
from .windows import EventWindowAssigner, Window

__all__ = [
    "LATE_POLICIES",
    "ProviderGate",
    "ShardIngest",
    "IngestStats",
    "IngestPlane",
]

#: what to do with a record that arrives after its window sealed
LATE_POLICIES = ("drop", "readmit", "upsert")

#: the gate counter each late policy charges besides ``late``
_POLICY_COUNTERS = {"drop": "dropped", "readmit": "readmitted", "upsert": "upserted"}


@register
@dataclass
class ProviderGate:
    """One data provider's ingestion endpoint and its counters.

    ``max_skew`` is the largest observed lateness — how far behind the
    arrival frontier a record of this provider ever arrived — which is
    the number an operator compares against ``watermark_delay`` to size
    the watermark for a deployment.
    """

    provider: int
    name: str
    records: int = 0
    late: int = 0
    dropped: int = 0
    readmitted: int = 0
    upserted: int = 0
    max_skew: int = 0

    def observe(self, lateness: int) -> None:
        """Count one arrival with the given observed lateness."""
        self.records += 1
        if lateness > self.max_skew:
            self.max_skew = lateness

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly per-provider counter view."""
        return {
            "provider": self.provider,
            "name": self.name,
            "records": self.records,
            "late": self.late,
            "dropped": self.dropped,
            "readmitted": self.readmitted,
            "upserted": self.upserted,
            "max_skew": self.max_skew,
        }


@register
@dataclass(frozen=True)
class IngestStats:
    """Frozen snapshot of the plane's ingestion counters.

    ``providers`` holds one :class:`ProviderGate` snapshot per provider;
    the scalar fields are the totals over all of them.
    """

    providers: Tuple[ProviderGate, ...]
    records: int
    late: int
    dropped: int
    readmitted: int
    upserted: int
    max_skew: int

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly view (``repro stream --json``'s ``ingest`` block)."""
        return {
            "records": self.records,
            "late": self.late,
            "dropped": self.dropped,
            "readmitted": self.readmitted,
            "upserted": self.upserted,
            "max_skew": self.max_skew,
            "providers": [gate.to_dict() for gate in self.providers],
        }


class _OpenWindow:
    """One not-yet-sealed window's accumulating row runs, in arrival order."""

    __slots__ = ("rows", "readmitted")

    def __init__(self) -> None:
        self.rows: List[RecordChunk] = []
        self.readmitted: List[RecordChunk] = []


def _ordered(parts: List[RecordChunk]) -> RecordChunk:
    """Buffered runs as one new chunk, stably ordered by sequence number.

    Only runs that arrived out of order are sorted: a stable numpy sort
    releases the GIL, which can cost a threaded caller a whole switch
    interval.
    """
    rows = RecordChunk.concat(parts)
    seq = rows.seq
    if (seq[1:] < seq[:-1]).any():
        rows = rows[np.argsort(seq, kind="stable")]
    return rows


class ShardIngest:
    """One logical shard's buffer of open windows.

    Rows accumulate exactly where the :class:`~repro.sharding.ShardPlan`
    says the window will be processed; the plane seals windows in index
    order, so the union of all shards' sealed output is independent of
    how many shards the rows were spread over.
    """

    def __init__(self, index: int) -> None:
        self.index = index
        self.open: Dict[int, _OpenWindow] = {}

    def insert(
        self, window_index: int, rows: RecordChunk, readmitted: bool = False
    ) -> None:
        """Buffer a run of rows for an open window this shard owns."""
        bucket = self.open.get(window_index)
        if bucket is None:
            bucket = self.open[window_index] = _OpenWindow()
        (bucket.readmitted if readmitted else bucket.rows).append(rows)

    def pop(self, window_index: int) -> Optional[_OpenWindow]:
        """Remove and return the window's buffered rows (None if empty)."""
        return self.open.pop(window_index, None)


class IngestPlane:
    """The push-based, watermark-sealed ingestion surface.

    Parameters
    ----------
    plan:
        Shard assignment; window ``w``'s rows buffer on
        ``plan.shard_of_window(w)``.
    window_kind / window_size / window_step:
        The windowing policy, interpreted in event (sequence) space by an
        :class:`~repro.streaming.windows.EventWindowAssigner`.
    providers:
        Provider display names; their count ``k`` also drives the default
        round-robin attribution ``seq % k`` for records that do not name
        a provider.
    watermark_delay:
        How many sequence numbers the watermark trails the arrival
        frontier.  ``0`` seals a window as soon as any later record
        arrives (the in-order-compatible setting); a delay of ``s``
        tolerates any arrival order with observed lateness ``<= s``
        without a single late record.
    late_policy:
        One of :data:`LATE_POLICIES`.
    telemetry:
        Optional :class:`repro.obs.Telemetry` bundle.  When present, the
        plane registers a snapshot-time collector publishing its counters
        (the public ``stats()`` dict is untouched) and — if the tracer is
        enabled — emits one ``seal`` span per built window, carrying the
        window index/revision, row counts, the watermark lag at seal
        time, and the cumulative late-record count.
    """

    def __init__(
        self,
        plan: ShardPlan,
        window_kind: str,
        window_size: int,
        window_step: Optional[int] = None,
        providers: Sequence[str] = ("provider-0", "provider-1"),
        watermark_delay: int = 0,
        late_policy: str = "drop",
        telemetry: Optional[Any] = None,
    ) -> None:
        if (
            not isinstance(watermark_delay, int)
            or isinstance(watermark_delay, bool)
            or watermark_delay < 0
        ):
            raise ValueError(
                f"watermark_delay must be an integer >= 0, got {watermark_delay!r}"
            )
        if late_policy not in LATE_POLICIES:
            raise ValueError(
                f"unknown late policy {late_policy!r}; available: "
                f"{', '.join(LATE_POLICIES)}"
            )
        if not providers:
            raise ValueError("at least one provider is required")
        self.plan = plan
        self.assigner = EventWindowAssigner(window_kind, window_size, window_step)
        self.gates = [
            ProviderGate(provider=index, name=str(name))
            for index, name in enumerate(providers)
        ]
        self.shards = [ShardIngest(index) for index in range(plan.n_shards)]
        self.watermark_delay = watermark_delay
        self.late_policy = late_policy
        self.frontier = -1
        self.next_seal = 0
        self._next_seq = 0
        self._corrections: Dict[int, List[RecordChunk]] = {}
        self._revisions: Dict[int, int] = {}
        self._dim: Optional[int] = None
        self._finished = False
        self._telemetry = telemetry
        self._m_sealed = None
        if telemetry is not None:
            telemetry.metrics.register_collector(ingest_collector(self))
            self._m_sealed = telemetry.metrics.counter(
                "repro_ingest_windows_sealed_total",
                "Windows sealed by the ingest watermark (corrections included).",
            )

    # ------------------------------------------------------------------
    # derived state
    # ------------------------------------------------------------------
    @property
    def k(self) -> int:
        """Number of provider gates."""
        return len(self.gates)

    @property
    def watermark(self) -> int:
        """Largest sequence number that is *definitely complete*.

        Windows whose last sequence number is strictly below the
        watermark are sealed; records at or above it may still arrive.
        """
        return self.frontier - self.watermark_delay

    @property
    def open_windows(self) -> int:
        """Windows currently buffering rows across all shards."""
        return sum(len(shard.open) for shard in self.shards)

    def stats(self) -> IngestStats:
        """Snapshot of the per-provider and total ingestion counters."""
        return IngestStats(
            providers=tuple(replace(gate) for gate in self.gates),
            records=sum(g.records for g in self.gates),
            late=sum(g.late for g in self.gates),
            dropped=sum(g.dropped for g in self.gates),
            readmitted=sum(g.readmitted for g in self.gates),
            upserted=sum(g.upserted for g in self.gates),
            max_skew=max((g.max_skew for g in self.gates), default=0),
        )

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------
    def push(self, record: StreamRecord) -> List[Window]:
        """Ingest one record through its provider gate.

        Returns the windows the arrival sealed (often none, sometimes
        several).  Regular windows appear in strictly increasing index
        order; under ``upsert`` a correction (``revision >= 1``) for an
        earlier index may precede them in the same batch.  This is a
        one-record :meth:`push_chunk`.
        """
        if self._finished:
            raise RuntimeError("ingest plane already finished")
        for name in ("seq", "provider"):
            value = getattr(record, name)
            if (
                not isinstance(value, (int, np.integer))
                or isinstance(value, bool)
                or value < -1
            ):
                raise ValueError(
                    f"record {name} must be an integer >= 0, or -1 for "
                    f"unset, got {value!r}"
                )
        seq = record.seq if record.seq >= 0 else self._next_seq
        chunk = RecordChunk(
            np.asarray(record.x, dtype=float).reshape(1, -1),
            np.asarray([record.y]),
            np.asarray([float(record.time)]),
            np.asarray([seq], dtype=np.int64),
            np.asarray([record.provider], dtype=np.int64),
        )
        return self.push_chunk(chunk)[0]

    def push_chunk(
        self, chunk: RecordChunk, limit: Optional[int] = None
    ) -> Tuple[List[Window], int]:
        """Ingest a run of records, in order, as :meth:`push` would one by one.

        Stops after the record whose seal brings the windows this call
        emitted to ``limit`` (``None``: no limit), or at the chunk's end.
        Returns the sealed windows and how many records were consumed;
        the caller passes the rest again to continue.
        """
        if self._finished:
            raise RuntimeError("ingest plane already finished")
        n = len(chunk)
        if n == 0:
            return [], 0
        self._check(chunk)
        seq = chunk.seq
        provider = np.where(chunk.provider >= 0, chunk.provider, seq % self.k)
        chunk = RecordChunk(chunk.x, chunk.y, chunk.time, seq, provider)
        frontier = self.frontier
        after = np.maximum(np.maximum.accumulate(seq), frontier)
        fronts = after.tolist()
        sealed: List[Window] = []
        done = 0
        while True:
            # Between seal events ``next_seal`` stays put, so the records
            # up to the next event are buffered as one run.  The event is
            # the first record whose arrival moves the watermark past the
            # end of window ``next_seal``.
            event = bisect_right(
                fronts,
                self.assigner.last_seq(self.next_seal) + self.watermark_delay,
                done,
            )
            self._absorb(chunk[done : event + 1])
            if event >= n:
                done = n
                break
            done = event + 1
            self.frontier = fronts[event]
            sealed.extend(
                self._seal_before(self.assigner.windows_ending_before(self.watermark))
            )
            if done == n or (limit is not None and len(sealed) >= limit):
                break
        # Arrival counters of the consumed records: a record's lateness is
        # how far the frontier ran ahead of it when it arrived.
        lateness = np.zeros(self.k, dtype=np.int64)
        np.maximum.at(
            lateness, provider[:done],
            np.concatenate([[frontier], after[: done - 1]]) - seq[:done],
        )
        counts = np.bincount(provider[:done], minlength=self.k).tolist()
        for gate, count, skew in zip(self.gates, counts, lateness.tolist()):
            gate.records += count
            gate.max_skew = max(gate.max_skew, skew)
        self.frontier = fronts[done - 1]
        self._next_seq = max(self._next_seq, self.frontier + 1)
        return sealed, done

    def _check(self, chunk: RecordChunk) -> None:
        """Refuse a chunk holding a record the plane cannot honour."""
        seq, x, provider = chunk.seq, chunk.x, chunk.provider
        if seq.dtype.kind != "i" or provider.dtype.kind != "i" or x.ndim != 2:
            raise ValueError(
                "record chunks need integer seq and provider arrays and 2-D features"
            )
        dim = x.shape[1] if self._dim is None else self._dim
        bad = (seq < 0) | (provider < -1) | (provider >= self.k)
        bad |= ~np.isfinite(chunk.time)
        if bad.any() or x.shape[1] != dim:
            first = int(np.argmax(bad))
            raise ValueError(
                f"record seq {seq[first]} (provider {provider[first]}, time "
                f"{chunk.time[first]}, {x.shape[1]} features) refused: records "
                f"need a stamped seq >= 0, a provider in -1..{self.k - 1}, a "
                f"finite event time and {dim} features"
            )
        self._dim = dim

    def _absorb(self, rows: RecordChunk) -> None:
        """Buffer a run of records that arrived while ``next_seal`` stood."""
        assigner, first_open = self.assigner, self.next_seal
        seq = rows.seq
        fresh_start = assigner.fresh_start(first_open)
        late = np.flatnonzero(seq < fresh_start)
        if len(late):
            # Their fresh windows are gone.
            self._late(rows[late])
        # Fresh or late, a record is still a member of every open window
        # that overlaps its sequence number (sliding windows with
        # step < size): insert it there so window contents keep matching
        # the sorted event stream even when the fresh emission was missed.
        # A readmitted record's copy in ``first_open`` is already there.
        step, size = assigner.step, assigner.size
        reach = (size - 1) // step
        indices = sorted({
            index
            for top in set((seq // step).tolist())
            for index in range(max(first_open, top - reach), top + 1)
        })
        # In-order runs (every run of an in-order stream) split by
        # bisection; others by masks, keeping arrival order in each part.
        ordered = seq.tolist() if not (seq[1:] < seq[:-1]).any() else None
        for index in indices:
            low, high = index * step, index * step + size - 1
            if index == first_open and self.late_policy == "readmit":
                low = fresh_start
            if ordered is not None:
                start, stop = bisect_left(ordered, low), bisect_right(ordered, high)
                if start == stop:
                    continue
                part = rows[start:stop]
            else:
                hits = np.flatnonzero((seq >= low) & (seq <= high))
                if not len(hits):
                    continue
                part = rows[hits]
            self.shards[self.plan.shard_of_window(index)].insert(index, part)

    def _late(self, rows: RecordChunk) -> None:
        """Count late records per provider and apply the late policy."""
        counter = _POLICY_COUNTERS[self.late_policy]
        for provider in rows.provider.tolist():
            gate = self.gates[provider]
            gate.late += 1
            setattr(gate, counter, getattr(gate, counter) + 1)
        if self.late_policy == "readmit":
            owner = self.plan.shard_of_window(self.next_seal)
            self.shards[owner].insert(self.next_seal, rows, readmitted=True)
        elif self.late_policy == "upsert":
            homes = np.array([self.assigner.fresh_home(s) for s in rows.seq.tolist()])
            for home in dict.fromkeys(homes.tolist()):
                self._corrections.setdefault(home, []).append(rows[homes == home])

    def finish(self, emit_partial_tail: bool = True) -> List[Window]:
        """Seal everything still open: the stream is over.

        Seals every fully-covered window and flushes pending corrections.
        The trailing *partial* window (one the event stream never filled)
        is emitted if it has fresh rows — matching the legacy buffers'
        ``flush`` — unless ``emit_partial_tail`` is false, in which case
        its in-order remainder is discarded the way the legacy *session*
        discarded it (the driver never called ``flush``); rows readmitted
        into the tail are still emitted then, so ``readmit`` loses
        nothing.  Rows belonging only to windows beyond the tail are
        discarded, as the legacy sliding buffer discards its overlap
        remainder.
        """
        if self._finished:
            return []
        self._finished = True
        sealed = self._seal_before(
            self.assigner.windows_ending_before(self.frontier + 1)
        )
        sealed.extend(self._flush_corrections())
        tail = self._seal(self.next_seal, readmitted_only=not emit_partial_tail)
        self.next_seal += 1
        if tail is not None:
            sealed.append(tail)
        for shard in self.shards:
            shard.open.clear()
        return sealed

    # ------------------------------------------------------------------
    # sealing
    # ------------------------------------------------------------------
    def _seal_before(self, end: int) -> List[Window]:
        """Seal every window below index ``end``, in index order.

        Only windows holding rows are visited, so the cost does not grow
        with the gap a jump in sequence numbers leaves.
        """
        if end <= self.next_seal:
            return []
        sealed = self._flush_corrections()
        due = sorted(
            index for shard in self.shards for index in shard.open if index < end
        )
        for index in due:
            window = self._seal(index)
            if window is not None:
                sealed.append(window)
        self.next_seal = end
        return sealed

    def _seal(self, index: int, readmitted_only: bool = False) -> Optional[Window]:
        """Build window ``index`` from its owner shard's buffered rows.

        Rows are ordered by sequence number with readmitted rows (which
        carry older sequence numbers by construction) appended at the
        end, so the fresh region stays a row suffix.  Returns ``None``
        when the window has no fresh rows to contribute.  With
        ``readmitted_only`` the window's in-order rows are discarded and
        only readmitted rows (if any) are emitted — the partial-tail
        treatment of ``finish(emit_partial_tail=False)``.
        """
        owner = self.plan.shard_of_window(index)
        bucket = self.shards[owner].pop(index)
        if bucket is None:
            return None
        fresh = 0
        parts = []
        if bucket.rows and not readmitted_only:
            rows = _ordered(bucket.rows)
            fresh = np.count_nonzero(rows.seq >= self.assigner.fresh_start(index))
            parts.append(rows)
        if bucket.readmitted:
            parts.append(_ordered(bucket.readmitted))
            fresh += len(parts[-1])
        if fresh == 0:
            return None
        rows = parts[0] if len(parts) == 1 else RecordChunk.concat(parts)
        return self._build(index, rows, int(fresh), revision=0)

    def _flush_corrections(self) -> List[Window]:
        """Emit pending ``upsert`` corrections, oldest window first."""
        if not self._corrections:
            return []
        out: List[Window] = []
        for index in sorted(self._corrections):
            rows = _ordered(self._corrections.pop(index))
            revision = self._revisions.get(index, 0) + 1
            self._revisions[index] = revision
            out.append(self._build(index, rows, len(rows), revision=revision))
        return out

    def _build(
        self, index: int, rows: RecordChunk, fresh: int, revision: int
    ) -> Window:
        tel = self._telemetry
        if tel is not None:
            self._m_sealed.inc()
            if tel.enabled:
                tel.tracer.span(
                    "seal",
                    parent=tel.parent,
                    window=index,
                    revision=revision,
                    rows=len(rows),
                    fresh=fresh,
                    watermark_lag=max(
                        0, self.frontier - self.assigner.last_seq(index)
                    ),
                    late=sum(gate.late for gate in self.gates),
                ).end()
        times = rows.time.tolist()
        return Window(
            index=index,
            X=rows.x,
            y=rows.y,
            start=min(times),
            end=max(times),
            fresh=fresh,
            revision=revision,
        )

    # ------------------------------------------------------------------
    # convenience
    # ------------------------------------------------------------------
    def ingest(self, records: Iterable[StreamRecord]) -> Iterable[Window]:
        """Drive a whole stream through the plane, yielding sealed windows."""
        for record in records:
            for window in self.push(record):
                yield window
        for window in self.finish():
            yield window
