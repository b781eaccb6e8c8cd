"""The host's speed, read off fixed work run between the timed passes.

On a shared host the speed of a CPU drifts by tens of percent over
minutes (its clock, the other tenants on its cores and caches), so the
same code reads slower or faster depending on when it ran, and ten runs
of one workload spread wider than any bound a regression check can use.
The benchmark therefore runs a slice of fixed reference work before
every set-up and every timed pass, and reports its timings at the
*nominal* host speed:
scaled by how much longer than nominal the slices took in that run.
The raw figures and the factor are printed beside the result.

The reference work is written here, so no change to the program moves
it.  It mixes the two kinds of work the program does: compute-bound
interpreter and small-matrix work (:func:`compute_work`) and
memory-bound object access across a working set of megabytes
(:class:`MemoryWork`).  On a 2-vCPU VM whose speed drifted by 10%, the
mix tracked the program's own slowdown with a slope of 1.0-1.1, where
either part alone gave 0.85 or 1.3.
"""

from __future__ import annotations

import hashlib
import random
import time
from typing import List

import numpy as np

#: calls per slice of :func:`compute_work` and of :meth:`MemoryWork.run`
COMPUTE_CALLS = 100
MEMORY_CALLS = 2

#: seconds each half of a slice takes at the nominal speed (a quiet
#: moment of a 2-vCPU x86-64 VM, Intel Xeon)
NOMINAL_COMPUTE_S = 0.030
NOMINAL_MEMORY_S = 0.035

_MATRIX = np.linspace(-1.0, 1.0, 13 * 13).reshape(13, 13) / 13.0
_ROWS = np.linspace(0.0, 1.0, 64 * 13).reshape(64, 13)


def compute_work() -> float:
    """Interpreter bookkeeping, small matrix products and sha256, fixed."""
    table: dict = {}
    for i in range(600):
        key = ("party", i % 37)
        table[key] = table.get(key, 0) + i
    rows = _ROWS
    total = 0.0
    for _ in range(24):
        rows = np.tanh(rows @ _MATRIX) + 0.5
        total += float(rows[0, 0])
    digest = b"\0" * 32
    for _ in range(60):
        digest = hashlib.sha256(digest * 8).digest()
    return total + table[("party", 0)] + digest[0]


class MemoryWork:
    """A pointer chase over one long cycle, then scattered dict lookups."""

    CHASE = 300_000
    STEPS = 30_000
    KEYS = 60_000
    LOOKUPS = 20_000

    def __init__(self) -> None:
        # Sattolo's shuffle: one cycle through every index.
        order = list(range(self.CHASE))
        rng = random.Random(5)
        for i in range(self.CHASE - 1, 0, -1):
            j = rng.randrange(i)
            order[i], order[j] = order[j], order[i]
        self._next = order
        self._table = {f"key{i}": i for i in range(self.KEYS)}
        self._names = [
            f"key{(i * 7919) % self.KEYS}" for i in range(self.LOOKUPS)
        ]

    def run(self) -> int:
        at = total = 0
        for _ in range(self.STEPS):
            at = self._next[at]
            total += at
        for name in self._names:
            total += self._table[name]
        return total


class Speedometer:
    """Slices of the reference work, and the run's speed from them."""

    def __init__(self) -> None:
        self.slices: List[float] = []
        self._memory = MemoryWork()

    def tick(self) -> None:
        """Time one slice; record its duration as a multiple of nominal."""
        began = time.perf_counter()
        for _ in range(COMPUTE_CALLS):
            compute_work()
        middle = time.perf_counter()
        for _ in range(MEMORY_CALLS):
            self._memory.run()
        ended = time.perf_counter()
        self.slices.append(
            ((middle - began) / NOMINAL_COMPUTE_S
             + (ended - middle) / NOMINAL_MEMORY_S) / 2
        )

    def slowdown(self) -> float:
        """How much slower than nominal the host ran: the faster half of
        the slices, the same estimator the passes use."""
        ordered = sorted(self.slices)
        kept = ordered[: (len(ordered) + 1) // 2]
        return sum(kept) / len(kept)
