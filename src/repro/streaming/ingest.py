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
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..checkpoint.codec import register
from ..obs import ingest_collector
from ..sharding.plan import ShardPlan
from .sources import StreamRecord
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

#: one buffered row: (seq, x, y, event_time)
_Row = Tuple[int, np.ndarray, Any, float]


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
    """One not-yet-sealed window's accumulating rows."""

    __slots__ = ("rows", "readmitted")

    def __init__(self) -> None:
        self.rows: List[_Row] = []
        self.readmitted: List[_Row] = []


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

    def insert(self, window_index: int, row: _Row, readmitted: bool = False) -> None:
        """Buffer one row for an open window this shard owns."""
        bucket = self.open.get(window_index)
        if bucket is None:
            bucket = self.open[window_index] = _OpenWindow()
        (bucket.readmitted if readmitted else bucket.rows).append(row)

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
        if watermark_delay < 0:
            raise ValueError(f"watermark_delay must be >= 0, got {watermark_delay}")
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
        self._corrections: Dict[int, List[_Row]] = {}
        self._revisions: Dict[int, int] = {}
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
        earlier index may precede them in the same batch.
        """
        if self._finished:
            raise RuntimeError("ingest plane already finished")
        seq = record.seq if record.seq >= 0 else self._next_seq
        provider = record.provider if record.provider >= 0 else seq % self.k
        if not 0 <= provider < self.k:
            raise ValueError(
                f"record names provider {provider}, but only {self.k} "
                f"gates exist"
            )
        gate = self.gates[provider]
        gate.observe(max(0, self.frontier - seq))

        row: _Row = (
            seq,
            np.asarray(record.x, dtype=float).ravel(),
            record.y,
            float(record.time),
        )
        home = self.assigner.fresh_home(seq)
        skip = -1
        if home < self.next_seal:
            # The window where this record would have been fresh is gone.
            gate.late += 1
            if self.late_policy == "drop":
                gate.dropped += 1
            elif self.late_policy == "readmit":
                gate.readmitted += 1
                owner = self.plan.shard_of_window(self.next_seal)
                self.shards[owner].insert(self.next_seal, row, readmitted=True)
                skip = self.next_seal  # the readmitted copy is already there
            else:  # upsert
                gate.upserted += 1
                self._corrections.setdefault(home, []).append(row)
        # Fresh or late, the record is still a member of every open window
        # that overlaps its sequence number (sliding windows with
        # step < size): insert it there so window contents keep matching
        # the sorted event stream even when the fresh emission was missed.
        for index in self.assigner.windows_of_seq(seq):
            if index >= self.next_seal and index != skip:
                owner = self.plan.shard_of_window(index)
                self.shards[owner].insert(index, row)

        if seq > self.frontier:
            self.frontier = seq
        if seq >= self._next_seq:
            self._next_seq = seq + 1
        return self._seal_ready()

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
        sealed: List[Window] = []
        while self.assigner.last_seq(self.next_seal) <= self.frontier:
            sealed.extend(self._flush_corrections())
            window = self._seal(self.next_seal)
            self.next_seal += 1
            if window is not None:
                sealed.append(window)
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
    def _seal_ready(self) -> List[Window]:
        """Seal every window the watermark has passed, in index order."""
        sealed: List[Window] = []
        while self.watermark > self.assigner.last_seq(self.next_seal):
            sealed.extend(self._flush_corrections())
            window = self._seal(self.next_seal)
            self.next_seal += 1
            if window is not None:
                sealed.append(window)
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
        readmitted = sorted(bucket.readmitted, key=lambda row: row[0])
        if readmitted_only:
            if not readmitted:
                return None
            return self._build(index, readmitted, len(readmitted), revision=0)
        rows = sorted(bucket.rows, key=lambda row: row[0])
        fresh_start = self.assigner.fresh_start(index)
        fresh = sum(1 for row in rows if row[0] >= fresh_start) + len(readmitted)
        if fresh == 0:
            return None
        return self._build(index, rows + readmitted, fresh, revision=0)

    def _flush_corrections(self) -> List[Window]:
        """Emit pending ``upsert`` corrections, oldest window first."""
        if not self._corrections:
            return []
        out: List[Window] = []
        for index in sorted(self._corrections):
            rows = sorted(self._corrections.pop(index), key=lambda row: row[0])
            revision = self._revisions.get(index, 0) + 1
            self._revisions[index] = revision
            out.append(self._build(index, rows, len(rows), revision=revision))
        return out

    def _build(
        self, index: int, rows: List[_Row], fresh: int, revision: int
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
