"""Synthetic stream generators over the registry datasets.

A :class:`StreamSource` turns one of the synthetic UCI stand-ins
(:mod:`repro.datasets`) into an unbounded-feeling record stream: rows are
drawn with replacement from the pooled table, stamped with virtual arrival
times, and optionally pushed through a *concept drift* schedule:

* ``stationary`` — the pool distribution, unchanged, at a steady Poisson
  arrival rate;
* ``abrupt``     — at ``drift_at`` (fraction of the stream) every record's
  informative columns jump by ``magnitude`` pooled standard deviations
  along a fixed random direction, with a mild scale change on a random
  subset of columns;
* ``gradual``    — the same shift, ramped linearly over a ``transition``
  fraction of the stream starting at ``drift_at``;
* ``bursty``     — stationary *values* but a bursty arrival process
  (alternating fast/slow segments), exercising per-window throughput
  accounting rather than the detectors.

Streams are fully deterministic under a seed, like everything else in the
repository.

Records are **events**, not just rows: every :class:`StreamRecord` carries
its event-order sequence number (``seq``) and an optional data-provider
attribution (``provider``), so a transport may deliver records out of
order without losing their identity.  :func:`skewed` is the deterministic
out-of-order transport simulator — it re-orders any event stream with a
hard bounded displacement, guaranteeing that when a record arrives, no
record more than ``skew`` sequence numbers ahead of it has arrived yet
(observed lateness ``<= skew``), which is exactly the bounded-lateness
contract the watermark of :class:`repro.streaming.ingest.IngestPlane`
consumes.

Records are generated, skewed and ingested in array chunks
(:class:`RecordChunk`, from :meth:`StreamSource.chunks` and
:func:`skewed_chunks`).  Iterating a source only flattens its chunks into
:class:`StreamRecord` tuples; :func:`skewed` applies the same delivery
order to plain records, and :func:`chunked` packs any record stream into
chunks.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..datasets.registry import load_dataset
from ..datasets.schema import Dataset

__all__ = [
    "StreamRecord",
    "RecordChunk",
    "StreamSource",
    "make_stream",
    "chunked",
    "skewed",
    "skewed_chunks",
    "STREAM_KINDS",
]

STREAM_KINDS = ("stationary", "abrupt", "gradual", "bursty")

#: records generated (and jitters drawn) per array chunk; a speed knob
#: only — no record depends on it
_CHUNK = 256


class StreamRecord(NamedTuple):
    """One stream event: features, label, event timestamp, identity.

    ``time`` is the *event* time (seconds on the virtual clock at which
    the record was generated); ``seq`` is the record's position in event
    order (``-1`` when the producer did not stamp one — the ingestion
    layer then stamps arrival order); ``provider`` names the data
    provider the record belongs to (``-1`` defers to the consumer's
    round-robin attribution ``seq % k``).  Both extensions default, so
    pre-event-time producers and consumers keep working unchanged.
    """

    x: np.ndarray
    y: int
    time: float
    seq: int = -1
    provider: int = -1


class RecordChunk:
    """A run of stream events held as arrays: the bulk form of records.

    Row ``i`` is the event ``StreamRecord(x[i], y[i], time[i], seq[i],
    provider[i])``: ``x`` is ``(n, d)`` float, the others are length
    ``n``.  Sequence numbers are stamped (``>= 0``); ``provider`` defaults
    to all ``-1`` (the consumer's round-robin attribution).  Indexing with
    a slice selects rows as views, with an index array as copies.
    """

    __slots__ = ("x", "y", "time", "seq", "provider")

    def __init__(
        self,
        x: np.ndarray,
        y: np.ndarray,
        time: np.ndarray,
        seq: np.ndarray,
        provider: Optional[np.ndarray] = None,
    ) -> None:
        self.x = x
        self.y = y
        self.time = time
        self.seq = seq
        self.provider = np.full(len(seq), -1) if provider is None else provider

    def __len__(self) -> int:
        return len(self.seq)

    def __getitem__(self, rows: Union[slice, np.ndarray]) -> "RecordChunk":
        return RecordChunk(
            self.x[rows], self.y[rows], self.time[rows], self.seq[rows],
            self.provider[rows],
        )

    @staticmethod
    def concat(chunks: Sequence["RecordChunk"]) -> "RecordChunk":
        """A new chunk holding ``chunks``' rows in order (always a copy)."""
        return RecordChunk(
            *(
                np.concatenate([getattr(chunk, name) for chunk in chunks])
                for name in RecordChunk.__slots__
            )
        )

    def records(self) -> Iterator[StreamRecord]:
        """The rows as :class:`StreamRecord` tuples (``x`` a row view)."""
        return map(
            StreamRecord, self.x, self.y.tolist(), self.time.tolist(),
            self.seq.tolist(), self.provider.tolist(),
        )


#: the low half of a 64-bit generator output, and the ``advance`` that
#: steps a PCG64 generator back by one output (its period is ``2**128``)
_LOW_HALF = 0xFFFF_FFFF
_BACK_ONE = (1 << 128) - 1


def _rows_and_gaps(
    rng: np.random.Generator, n_rows: int, scales: Sequence[float]
) -> Tuple[List[int], List[float]]:
    """Per scale, ``rng.integers(n_rows)`` then ``rng.exponential(scale)``.

    Returns that per-record loop's rows and gaps and leaves ``rng``
    (numpy's default PCG64) where the loop would, with about half its
    generator calls.  For ``1 < n < 2**32``, ``integers(n)`` is Lemire's
    bounded draw over 32-bit halves: a fresh 64-bit output gives the low
    half and keeps the high half for the next 32-bit request, which
    ``exponential`` (drawing whole outputs) leaves alone.  So two records
    share one ``random_raw()`` word.  The loop's own calls draw a record
    wherever that does not hold: a half already buffered, a half Lemire
    rejects (after stepping the word back), an odd last record, and pools
    of one row (``integers(1)`` draws nothing) or of ``2**32`` rows or more.
    """
    integers, exponential = rng.integers, rng.exponential
    bits = rng.bit_generator
    raw = bits.random_raw
    paired = 1 < n_rows < 1 << 32
    # Lemire rejects a half ``u`` when ``u * n_rows`` mod 2**32 is below this.
    threshold = (1 << 32) % n_rows
    rows: List[int] = []
    gaps: List[float] = []
    i, count = 0, len(scales)
    while i < count:
        if paired and not bits.state["has_uint32"]:
            while i + 1 < count:
                word = raw()
                low = (word & _LOW_HALF) * n_rows
                high = (word >> 32) * n_rows
                if (low & _LOW_HALF) < threshold or (high & _LOW_HALF) < threshold:
                    bits.advance(_BACK_ONE)
                    break
                rows += low >> 32, high >> 32
                gaps += exponential(scales[i]), exponential(scales[i + 1])
                i += 2
            if i == count:
                break
        rows.append(int(integers(n_rows)))
        gaps.append(exponential(scales[i]))
        i += 1
    return rows, gaps


@dataclass
class StreamSource:
    """A deterministic, finite record stream over a pooled dataset.

    Build via :func:`make_stream`; iterate to receive
    :class:`StreamRecord` tuples in arrival order.  The drift point (in
    record index) is exposed as :attr:`drift_index` so experiments can
    align their expectations without re-deriving the schedule.
    """

    name: str
    kind: str
    pool: Dataset
    n_records: int
    seed: int = 0
    drift_at: float = 0.5
    magnitude: float = 1.5
    transition: float = 0.2
    rate: float = 1000.0
    burst_factor: float = 8.0

    def __post_init__(self) -> None:
        if self.kind not in STREAM_KINDS:
            raise ValueError(
                f"unknown stream kind {self.kind!r}; available: "
                f"{', '.join(STREAM_KINDS)}"
            )
        if (
            not isinstance(self.n_records, int)
            or isinstance(self.n_records, bool)
            or self.n_records < 1
        ):
            raise ValueError(
                f"n_records must be an integer >= 1, got {self.n_records!r}"
            )
        if not 0.0 < self.drift_at < 1.0:
            raise ValueError("drift_at must be in (0, 1)")
        if not 0.0 < self.transition <= 1.0:
            raise ValueError("transition must be in (0, 1]")
        if not all(
            map(math.isfinite, (self.rate, self.burst_factor, self.magnitude))
        ):
            raise ValueError("rate, burst_factor and magnitude must be finite")
        if self.rate <= 0 or self.burst_factor < 1.0:
            raise ValueError("rate must be positive and burst_factor >= 1")
        pool_std = self.pool.X.std(axis=0)
        self._pool_std = np.where(pool_std > 0, pool_std, 1.0)

    @property
    def dimension(self) -> int:
        """Number of feature columns."""
        return self.pool.n_features

    @property
    def drift_index(self) -> int:
        """Record index at which the drift schedule begins."""
        return int(self.n_records * self.drift_at)

    # ------------------------------------------------------------------
    # drift and arrival schedules
    # ------------------------------------------------------------------
    def _drift_weights(self, index: np.ndarray) -> np.ndarray:
        """How much of the full shift applies to each record index (0..1)."""
        if self.kind in ("stationary", "bursty"):
            return np.zeros(len(index))
        start = self.drift_index
        if self.kind == "abrupt":
            return np.where(index < start, 0.0, 1.0)
        span = max(1, int(self.n_records * self.transition))
        return np.where(index < start, 0.0, np.minimum(1.0, (index - start) / span))

    def _gap_scales(self, index: np.ndarray) -> np.ndarray:
        """Mean inter-arrival gap (``1 / rate``) before each record index."""
        if self.kind != "bursty":
            return np.full(len(index), 1.0 / self.rate)
        # Alternate fast and slow segments of ~1/8 stream length.
        fast = (index // max(1, self.n_records // 8)) % 2 == 0
        return np.where(fast, 1.0 / (self.rate * self.burst_factor), 1.0 / self.rate)

    def __iter__(self) -> Iterator[StreamRecord]:
        for chunk in self.chunks():
            yield from chunk.records()

    def chunks(self) -> Iterator[RecordChunk]:
        """The stream as :class:`RecordChunk` runs of up to ``_CHUNK`` rows."""
        rng = np.random.default_rng(self.seed)
        # Fixed drift geometry for the whole stream: a unit direction in
        # pooled-sigma units plus a mild scale change on ~1/3 of columns.
        direction = rng.normal(size=self.dimension)
        direction /= np.linalg.norm(direction)
        shift = self.magnitude * self._pool_std * direction
        scaled = rng.random(self.dimension) < (1.0 / 3.0)
        scale = np.where(scaled, 1.0 + 0.5 * self.magnitude / 1.5, 1.0)
        pool_mean = self.pool.X.mean(axis=0)

        now = 0.0
        for start in range(0, self.n_records, _CHUNK):
            index = np.arange(start, min(start + _CHUNK, self.n_records))
            # The row and gap draws share one generator, so they are drawn
            # in record order; the rest runs over the chunk with the same
            # elementwise operations a per-record pass would make (the
            # cumulative sum adds the gaps one after another).
            rows, gaps = _rows_and_gaps(
                rng, self.pool.n_rows, self._gap_scales(index).tolist()
            )
            times = np.cumsum([now, *gaps])[1:]
            now = float(times[-1])
            x = self.pool.X[rows].astype(float)
            weight = self._drift_weights(index)
            drifted = weight > 0.0
            if drifted.any():
                w = weight[drifted, None]
                effective_scale = 1.0 + w * (scale - 1.0)
                x[drifted] = (
                    pool_mean + (x[drifted] - pool_mean) * effective_scale + w * shift
                )
            labels = self.pool.y[rows].astype(np.int64)
            yield RecordChunk(x, labels, times, index)


def chunked(records: Iterable[StreamRecord]) -> Iterator[RecordChunk]:
    """Pack any record stream into :class:`RecordChunk` runs.

    An unstamped record (``seq == -1``) is stamped the way the ingestion
    plane stamps one: one past the largest sequence number before it.
    """
    stream = iter(records)
    next_seq = 0
    while True:
        batch = list(itertools.islice(stream, _CHUNK))
        if not batch:
            return
        seqs = []
        for record in batch:
            seq = next_seq if record.seq == -1 else record.seq
            next_seq = max(next_seq, seq + 1)
            seqs.append(seq)
        yield RecordChunk(
            np.array([np.asarray(r.x, dtype=float).ravel() for r in batch]),
            np.asarray([r.y for r in batch]),
            np.array([float(r.time) for r in batch]),
            np.array(seqs),
            np.array([r.provider for r in batch]),
        )


def _check_skew(skew: int) -> None:
    if not isinstance(skew, int) or isinstance(skew, bool) or skew < 0:
        raise ValueError(f"skew must be an integer >= 0, got {skew!r}")


def _deliver(
    tables: Iterable[Tuple[np.ndarray, Any]],
    skew: int,
    seed: int,
    join: Callable[[Any, Any], Any],
) -> Iterator[Any]:
    """Re-order ``(seq, rows)`` runs in delivery order, carrying the rest.

    Arrival ``i`` is keyed ``i + jitter`` and delivered in ``(key, seq)``
    order once no later arrival can precede it; ``rows`` is any table
    indexable by row positions and ``join`` concatenates two of them.
    """
    rng = np.random.default_rng([abs(int(seed)), 0x5345_5153])
    held = held_keys = held_seq = None
    arrived = 0
    for seq, rows in tables:
        # An array draw of bounded integers yields the scalar draws' values
        # and leaves the same generator state, so keys do not depend on
        # how the stream is cut into runs.
        keys = np.arange(arrived, arrived + len(seq)) + rng.integers(
            skew + 1, size=len(seq)
        )
        arrived += len(seq)
        if held is not None:
            keys = np.concatenate([held_keys, keys])
            seq = np.concatenate([held_seq, seq])
            rows = join(held, rows)
        # Every later arrival's key is >= ``arrived``, so entries keyed
        # below it are final.
        ready = keys < arrived
        out = np.flatnonzero(ready)
        if len(out):
            yield rows[out[np.lexsort((seq[out], keys[out]))]]
        rest = np.flatnonzero(~ready)
        held, held_keys, held_seq = rows[rest], keys[rest], seq[rest]
    if held is not None and len(held):
        yield held[np.lexsort((held_seq, held_keys))]


def skewed(
    records: Iterable[StreamRecord],
    skew: int,
    seed: int = 0,
) -> Iterator[StreamRecord]:
    """Re-order an event stream with a hard bounded displacement.

    A deterministic out-of-order transport simulator: each record is
    assigned a delivery key ``index + jitter`` (``index`` is its input
    position) with ``jitter`` drawn uniformly from ``{0, ..., skew}``, and
    records are delivered in key order (ties broken by ``seq``, so
    ``skew=0`` is the identity).  Event times, labels, providers, and
    sequence numbers travel unchanged — only the *arrival order* is
    scrambled.

    Guarantees, both deterministic under ``seed``:

    * every record's delivery position differs from its sequence number
      by at most ``skew``;
    * when a record arrives, the arrival frontier (largest sequence
      number seen so far) is at most ``seq + skew`` — i.e. observed
      lateness never exceeds ``skew``.  An ingestion watermark delay
      ``>= skew`` therefore never sees a late record.

    Records without a stamped ``seq`` are stamped with their input order
    first, so any iterable of ``(x, y, time)``-style records works.
    :func:`skewed_chunks` delivers the same order over record chunks.
    """
    _check_skew(skew)
    if skew == 0:
        for index, record in enumerate(records):
            yield record if record.seq >= 0 else record._replace(seq=index)
        return

    def runs() -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        stream = iter(records)
        arrived = 0
        while True:
            batch = list(itertools.islice(stream, _CHUNK))
            if not batch:
                return
            table = np.empty(len(batch), dtype=object)
            for offset, record in enumerate(batch, arrived):
                if record.seq < 0:
                    record = record._replace(seq=offset)
                table[offset - arrived] = record
            arrived += len(batch)
            yield np.array([record.seq for record in table]), table

    for table in _deliver(runs(), skew, seed, lambda a, b: np.concatenate([a, b])):
        yield from table.tolist()


def skewed_chunks(
    chunks: Iterable[RecordChunk],
    skew: int,
    seed: int = 0,
) -> Iterator[RecordChunk]:
    """:func:`skewed` over record chunks: the same arrival order, in chunks."""
    _check_skew(skew)
    if skew == 0:
        yield from chunks
        return
    yield from _deliver(
        ((chunk.seq, chunk) for chunk in chunks), skew, seed,
        lambda a, b: RecordChunk.concat([a, b]),
    )


def make_stream(
    dataset: Union[str, Dataset],
    kind: str = "stationary",
    n_records: int = 1000,
    seed: int = 0,
    drift_at: float = 0.5,
    magnitude: float = 1.5,
    transition: float = 0.2,
    rate: float = 1000.0,
    burst_factor: float = 8.0,
    dataset_seed: Optional[int] = None,
) -> StreamSource:
    """Build a stream over a registry dataset (by name) or a pooled table.

    Parameters mirror :class:`StreamSource`; ``dataset_seed`` is forwarded
    to :func:`repro.datasets.registry.load_dataset` when ``dataset`` is a
    name, so the pool itself is reproducible independently of the stream
    order seed.
    """
    pool = load_dataset(dataset, seed=dataset_seed) if isinstance(dataset, str) else dataset
    return StreamSource(
        name=pool.name,
        kind=kind,
        pool=pool,
        n_records=n_records,
        seed=seed,
        drift_at=drift_at,
        magnitude=magnitude,
        transition=transition,
        rate=rate,
        burst_factor=burst_factor,
    )
