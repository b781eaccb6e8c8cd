"""Window buffers: batching a record stream into per-window tables.

Stream mining operates on *windows* — bounded batches of the most recent
records — rather than on the full history (Chhinkaniwala & Garg apply
multiplicative perturbation per sliding window for exactly this reason:
the perturbation, the drift statistics, and the miner update all need a
finite table to work on).  Two policies are provided:

* **tumbling** — non-overlapping windows of ``size`` records; every record
  belongs to exactly one window;
* **sliding** — a window of the last ``size`` records emitted every
  ``step`` records (``step < size`` gives overlap; ``step == size``
  degenerates to tumbling).

Buffers are transport-agnostic: they accept one record at a time via
:meth:`WindowBuffer.push` and hand back completed :class:`Window` objects
holding row-major feature blocks, labels, and the virtual time span —
everything downstream (normalizers, drift detectors, online miners) is
window-at-a-time.

The arrival-driven buffers above assume records arrive *in order*.  The
event-time ingestion plane (:mod:`repro.streaming.ingest`) instead keys
windows by **sequence number**: :class:`EventWindowAssigner` is the pure
arithmetic mapping a record's sequence number to the window(s) it belongs
to, so window *contents* are a function of the event stream alone — not of
the arrival order — and an out-of-order stream whose lateness stays under
the watermark seals exactly the windows the sorted stream would.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional, Tuple

import numpy as np

__all__ = [
    "WINDOW_KINDS",
    "Window",
    "WindowBuffer",
    "TumblingWindow",
    "SlidingWindow",
    "EventWindowAssigner",
    "make_window_buffer",
]

#: names accepted by :func:`make_window_buffer`
WINDOW_KINDS = ("tumbling", "sliding")


@dataclass(frozen=True)
class Window:
    """One completed batch of stream records.

    Attributes
    ----------
    index:
        0-based emission counter (the first completed window is 0).
    X / y:
        Row-major ``(n, d)`` features and the ``n`` labels.
    start / end:
        Virtual timestamps of the oldest and newest record in the window.
    fresh:
        How many of the window's *last* rows were not part of any earlier
        window.  Equals ``n_rows`` for tumbling windows; for sliding
        windows with ``step < size`` only the newest ``step`` rows are
        fresh — consumers that must touch each record exactly once
        (incremental normalizers, prequential scoring, model updates)
        should operate on ``X[-fresh:]``, while whole-window statistics
        (drift detection) use all rows.
    revision:
        0 for a window's first (and normally only) emission.  Under the
        event-time ingestion plane's ``upsert`` late policy, records that
        arrive after their window sealed are re-emitted as *correction*
        windows carrying the original index and ``revision >= 1``; every
        row of a correction is fresh.
    """

    index: int
    X: np.ndarray
    y: np.ndarray
    start: float
    end: float
    fresh: int = -1
    revision: int = 0

    def __post_init__(self) -> None:
        X = np.asarray(self.X, dtype=float)
        y = np.asarray(self.y)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        if X.ndim != 2:
            raise ValueError("window features must be 2-D (rows are records)")
        if y.shape != (X.shape[0],):
            raise ValueError(
                f"window labels have shape {y.shape}, expected ({X.shape[0]},)"
            )
        if self.end < self.start:
            raise ValueError("window end time precedes its start time")
        if self.fresh == -1:
            object.__setattr__(self, "fresh", X.shape[0])
        if not 0 < self.fresh <= X.shape[0]:
            raise ValueError("fresh must be in [1, n_rows]")
        if self.revision < 0:
            raise ValueError("revision must be >= 0")

    @property
    def n_rows(self) -> int:
        """Number of records in the window."""
        return self.X.shape[0]

    @property
    def n_features(self) -> int:
        """Data dimensionality."""
        return self.X.shape[1]

    @property
    def duration(self) -> float:
        """Virtual time span covered by the window."""
        return self.end - self.start


class WindowBuffer:
    """Base class: accumulate records, emit completed windows.

    Subclasses decide *when* a window completes and *which* records it
    holds; the base class owns the record queue and emission bookkeeping.
    """

    def __init__(self, size: int) -> None:
        if size < 1:
            raise ValueError("window size must be >= 1")
        self.size = size
        self._records: Deque[Tuple[np.ndarray, object, float]] = deque()
        self._emitted = 0
        self._since_emit = 0

    @property
    def windows_emitted(self) -> int:
        """How many windows have been completed so far."""
        return self._emitted

    @property
    def pending(self) -> int:
        """Records currently buffered (not yet part of an emitted window)."""
        return len(self._records)

    def push(self, x: np.ndarray, y: object, time: float = 0.0) -> List[Window]:
        """Add one record; return the windows it completed (0 or 1)."""
        x = np.asarray(x, dtype=float).ravel()
        self._records.append((x, y, float(time)))
        self._since_emit += 1
        return self._maybe_emit()

    def flush(self) -> Optional[Window]:
        """Emit whatever is buffered as a final (possibly short) window."""
        if not self._records or self._since_emit == 0:
            return None
        window = self._build(
            list(self._records), fresh=min(self._since_emit, len(self._records))
        )
        self._records.clear()
        self._since_emit = 0
        return window

    # ------------------------------------------------------------------
    # subclass hooks
    # ------------------------------------------------------------------
    def _maybe_emit(self) -> List[Window]:
        raise NotImplementedError

    def _build(
        self, records: List[Tuple[np.ndarray, object, float]], fresh: int = -1
    ) -> Window:
        X = np.vstack([r[0] for r in records])
        y = np.asarray([r[1] for r in records])
        times = [r[2] for r in records]
        window = Window(
            index=self._emitted,
            X=X,
            y=y,
            start=min(times),
            end=max(times),
            fresh=fresh,
        )
        self._emitted += 1
        return window


class TumblingWindow(WindowBuffer):
    """Non-overlapping fixed-size windows: emit and clear every ``size``."""

    def _maybe_emit(self) -> List[Window]:
        if len(self._records) < self.size:
            return []
        window = self._build(list(self._records))
        self._records.clear()
        self._since_emit = 0
        return [window]


def _resolve_sliding_step(size: int, step: Optional[int]) -> int:
    """Default and validate a sliding stride (shared by buffer + assigner)."""
    step = size if step is None else step
    if not 1 <= step <= size:
        raise ValueError(
            f"sliding step must be in [1, size]; got step={step} with "
            f"size={size}" + (
                " (a step larger than the size would silently skip "
                "records between consecutive windows)" if step > size else ""
            )
        )
    return step


class SlidingWindow(WindowBuffer):
    """Overlapping windows: the last ``size`` records, every ``step`` records.

    The first window is emitted once ``size`` records have arrived; after
    that one window per ``step`` further records.  ``step`` must not exceed
    ``size`` (a larger step would silently drop records from every window).
    """

    def __init__(self, size: int, step: Optional[int] = None) -> None:
        super().__init__(size)
        self.step = _resolve_sliding_step(size, step)

    def _maybe_emit(self) -> List[Window]:
        if len(self._records) < self.size:
            return []
        if self._emitted > 0 and self._since_emit < self.step:
            return []
        window = self._build(
            list(self._records)[-self.size :],
            fresh=min(self._since_emit, self.size),
        )
        self._since_emit = 0
        # Keep only what future windows can still include.
        while len(self._records) > self.size - self.step:
            self._records.popleft()
        return [window]


@dataclass(frozen=True)
class EventWindowAssigner:
    """Pure sequence-number arithmetic for event-time windows.

    Maps a record's sequence number (its position in the *event* order,
    independent of arrival order) to the tumbling/sliding window(s) whose
    range contains it.  Window ``w`` covers sequence numbers
    ``[w * step, w * step + size)`` with ``step == size`` for tumbling
    windows, which reproduces exactly the windows the arrival-driven
    :class:`TumblingWindow` / :class:`SlidingWindow` buffers emit on an
    in-order stream — the invariant the event-time ingestion plane's
    compatibility guarantee rests on.

    ``fresh_home(seq)`` is the unique window in which the record counts as
    *fresh* (scored and learned from exactly once); the fresh regions
    ``[fresh_start(w), last_seq(w)]`` tile the sequence line with no
    overlap and no gaps.
    """

    kind: str
    size: int
    step: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in WINDOW_KINDS:
            raise ValueError(
                f"unknown window kind {self.kind!r}; available: "
                f"{', '.join(WINDOW_KINDS)}"
            )
        if self.size < 1:
            raise ValueError("window size must be >= 1")
        if self.kind == "tumbling":
            # Tumbling windows have no stride knob; a supplied step is
            # ignored, as the legacy buffer factory ignores it.
            object.__setattr__(self, "step", self.size)
            return
        object.__setattr__(
            self, "step", _resolve_sliding_step(self.size, self.step)
        )

    # -- window ranges --------------------------------------------------
    def start_seq(self, index: int) -> int:
        """First sequence number of window ``index``."""
        if index < 0:
            raise ValueError("window index must be >= 0")
        return index * self.step

    def last_seq(self, index: int) -> int:
        """Last (inclusive) sequence number of window ``index``."""
        return self.start_seq(index) + self.size - 1

    def windows_ending_before(self, seq: int) -> int:
        """How many windows end (``last_seq``) strictly below ``seq``."""
        return max(0, (seq - self.size) // self.step + 1)

    def fresh_start(self, index: int) -> int:
        """First sequence number that is *fresh* in window ``index``."""
        if index == 0:
            return 0
        return (index - 1) * self.step + self.size

    # -- record membership ----------------------------------------------
    def windows_of_seq(self, seq: int) -> range:
        """All window indices whose range contains ``seq`` (ascending)."""
        if seq < 0:
            raise ValueError("sequence numbers must be >= 0")
        high = seq // self.step
        low = max(0, -(-(seq - self.size + 1) // self.step))
        return range(low, high + 1)

    def fresh_home(self, seq: int) -> int:
        """The unique window where ``seq`` is a fresh record."""
        if seq < 0:
            raise ValueError("sequence numbers must be >= 0")
        if seq < self.size:
            return 0
        return (seq - self.size) // self.step + 1


def make_window_buffer(kind: str, size: int, step: Optional[int] = None) -> WindowBuffer:
    """Factory keyed by policy name (``"tumbling"`` or ``"sliding"``)."""
    if kind == "tumbling":
        return TumblingWindow(size)
    if kind == "sliding":
        return SlidingWindow(size, step)
    raise ValueError(f"unknown window kind {kind!r}; use 'tumbling' or 'sliding'")
