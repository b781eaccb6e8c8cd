"""The benchmark's workloads: seeded spec decks and their systems.

Every workload is a *deck* of :class:`~repro.serve.SessionSpec` drawn
from ``--seed`` and a system that runs the deck, pass after pass, through
one execution path of the program.  The program only ever sees the specs.

* ``service-mix`` and ``privacy-batch`` drive a
  :class:`~repro.serve.MiningService` in a closed loop with two outstanding
  sessions (two client threads, each submitting its next session only
  after the previous one returned).  ``privacy-batch`` is not in
  ``BENCHMARK.json`` (see ``in_benchmark``).
* ``stream-long`` runs long streams one after another inline through
  :func:`~repro.serve.execute_spec` on the serial backend: the
  single-threaded baseline, with no pool handoff and no admission.
* ``cluster-migrate`` drives a two-replica process-backed
  :class:`~repro.cluster.ClusterController` with one session outstanding
  and migrates every other session once while it runs.
"""

from __future__ import annotations

import hashlib
import os
import random
import shutil
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional

#: sessions kept in flight by the closed loop, and the service's shard
#: workers (sized for a 2-CPU machine)
CLIENTS = 2
SHARD_WORKERS = 2

#: per-session deadline; a session slower than this counts as failed
SESSION_TIMEOUT_S = 60.0

#: untimed closed-loop seconds before measuring (caches, lazy imports)
WARMUP_S = 1.0

#: where runs write their artifacts (checkpoints, span dumps)
RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")


# ----------------------------------------------------------------------
# decks
# ----------------------------------------------------------------------
# Decks are stratified: their composition (datasets, kinds, lengths,
# classifiers, k) is fixed, and the seed draws the order, the tenants and
# the sessions' own seeds.  Seeds then differ in content, not in how much
# work they ask for, so seed-to-seed spread measures the program.
def _service_mix_deck(rng: random.Random) -> list:
    from repro.serve import SessionSpec

    deck = []
    for dataset in ("iris", "wine"):
        for windows in (3, 4, 5, 6, 7, 8) * 2:
            deck.append(SessionSpec(kind="batch", dataset=dataset))
            deck.append(
                SessionSpec(
                    kind="stream", dataset=dataset, windows=windows,
                    window_size=32, shards=2,
                )
            )
    return _seeded(rng, deck, ("acme", "globex", "initech"), k=3,
                   compute_privacy=False)


def _privacy_batch_deck(rng: random.Random) -> list:
    from repro.serve import SessionSpec

    deck = [
        SessionSpec(
            kind="batch", dataset=dataset, k=k, classifier=classifier,
            # A lighter optimizer budget than the default, so that one
            # run completes enough sessions for a tail percentile.
            optimizer_local_steps=2,
        )
        for dataset in ("iris", "wine")
        for classifier in ("knn", "svm_rbf")
        for k in (3, 4, 5)
    ]
    return _seeded(rng, deck, ("acme", "globex"), compute_privacy=True)


def _stream_long_deck(rng: random.Random) -> list:
    from repro.serve import SessionSpec

    # Ten windows a stream keeps a pass over the eight streams near one
    # second, so that a run holds enough passes (and calibration slices)
    # for its faster half to be steady; twenty windows left five or six.
    windows = 10
    # The trust change, skew and watermark are part of the composition,
    # varied across the two copies of each stratum, not drawn per seed.
    deck = [
        SessionSpec(
            kind="stream", dataset=dataset, stream=drift,
            compute_privacy=privacy, windows=windows, window_size=256,
            shards=2, late_policy="readmit",
            trust_changes=((trust_window, number % 3, 0.5),),
            skew=skew, watermark_delay=delay,
        )
        for number, ((dataset, drift, privacy), (trust_window, skew, delay))
        in enumerate(
            (stratum, variant)
            for variant in ((4, 6, 2), (6, 10, 3))
            for stratum in (
                ("iris", "abrupt", False), ("iris", "gradual", True),
                ("wine", "abrupt", True), ("wine", "gradual", False),
            )
        )
    ]
    return _seeded(rng, deck, ("default",), k=3)


def _cluster_migrate_deck(rng: random.Random) -> list:
    from repro.serve import SessionSpec

    deck = [
        SessionSpec(kind="stream", dataset=dataset, windows=12, window_size=64)
        for dataset in ("iris", "wine")
        for _ in range(8)
    ]
    return _seeded(rng, deck, ("acme", "globex"), k=3, compute_privacy=False)


def _seeded(
    rng: random.Random, deck: list, tenants: tuple, **fields: Any
) -> list:
    """Shuffle the deck; give each spec a tenant and a seed from ``rng``."""
    rng.shuffle(deck)
    return [
        replace(
            spec, tenant=tenants[index % len(tenants)],
            seed=rng.randrange(2**31), **fields,
        )
        for index, spec in enumerate(deck)
    ]


# ----------------------------------------------------------------------
# result fingerprints and counters
# ----------------------------------------------------------------------
def is_stream(result: Any) -> bool:
    """Whether ``result`` came from a stream session (else batch)."""
    return hasattr(result, "deviation_series")


def fingerprint(result: Any) -> str:
    """Digest of everything a session must reproduce bit for bit.

    Accuracies (or the per-window deviation series), the privacy profile
    where one is computed, and every message and byte counter; ``repr``
    keeps floats exact.
    """
    if is_stream(result):
        ingest = result.ingest
        core = (
            "stream",
            result.records_processed,
            result.deviation_series(),
            result.accuracy_perturbed,
            result.accuracy_baseline,
            [
                (e.window, e.reason, e.statistic, e.messages, e.bytes,
                 e.privacy_guarantee)
                for e in result.events
            ],
            result.messages_sent,
            result.bytes_sent,
            result.data_messages_sent,
            result.data_bytes_sent,
            None if ingest is None else (
                ingest.late, ingest.dropped, ingest.readmitted, ingest.upserted,
            ),
        )
    else:
        core = (
            "batch",
            result.accuracy_perturbed,
            result.accuracy_standard,
            result.messages_sent,
            result.bytes_sent,
            [
                (p.party, p.rho_local, p.rho_global, p.b, p.satisfaction,
                 p.breach_risk, p.overall_risk)
                for p in result.risk_profiles
            ],
        )
    return hashlib.sha256(repr(core).encode()).hexdigest()


def counters(result: Any) -> Dict[str, int]:
    """The exact per-session counters read straight from a result."""
    if is_stream(result):
        ingest = result.ingest
        return {
            "records": result.records_processed,
            "windows": len(result.windows),
            "messages": result.messages_sent + result.data_messages_sent,
            "bytes": result.bytes_sent + result.data_bytes_sent,
            "negotiations": len(result.events),
            "late": 0 if ingest is None else ingest.late,
            "readmitted": 0 if ingest is None else ingest.readmitted,
        }
    return {
        "records": result.miner_result.n_train + result.miner_result.n_test,
        "windows": 0,
        "messages": result.messages_sent,
        "bytes": result.bytes_sent,
        "negotiations": 0,
        "late": 0,
        "readmitted": 0,
    }


@dataclass
class Sample:
    """One completed (or failed) session of a closed loop."""

    index: int
    latency: float
    fingerprint: Optional[str] = None
    counters: Dict[str, int] = field(default_factory=dict)
    negotiation_latencies: List[float] = field(default_factory=list)
    error: Optional[str] = None
    extra: Dict[str, Any] = field(default_factory=dict)


def _sample(index: int, latency: float, result: Any, **extra: Any) -> Sample:
    latencies = [e.latency for e in result.events] if is_stream(result) else []
    return Sample(
        index, latency, fingerprint=fingerprint(result),
        counters=counters(result), negotiation_latencies=latencies,
        extra=extra,
    )


# ----------------------------------------------------------------------
# systems
# ----------------------------------------------------------------------
class _System:
    """One built system a workload runs sessions through.

    ``run_one(index, spec)`` executes one session to completion on the
    calling thread and returns its :class:`Sample`; ``close`` releases
    everything the system started.
    """

    clients = CLIENTS

    def run_one(self, index: int, spec: Any) -> Sample:
        raise NotImplementedError

    def child_pids(self) -> List[int]:
        return []

    def totals(self) -> Dict[str, float]:
        """Cumulative counters of the system, for the traced run to diff."""
        return {}

    def close(self) -> None:
        pass


class InlineSystem(_System):
    """Sessions one after another on this thread, serial backend."""

    clients = 1

    def __init__(self, telemetry: Any = None) -> None:
        from repro.serve import execute_spec

        self._execute = execute_spec
        self._telemetry = telemetry

    def run_one(self, index: int, spec: Any) -> Sample:
        began = time.perf_counter()
        result = self._execute(spec, telemetry=self._telemetry)
        return _sample(index, time.perf_counter() - began, result)


class ServiceSystem(_System):
    """A two-slot :class:`MiningService` over a two-thread shared pool."""

    def __init__(self, telemetry: Any = None) -> None:
        from repro.serve import MiningService

        self.service = MiningService(
            max_inflight=CLIENTS, shard_backend="thread",
            shard_workers=SHARD_WORKERS, telemetry=telemetry,
        )

    def run_one(self, index: int, spec: Any) -> Sample:
        began = time.perf_counter()
        handle = self.service.submit(spec)
        result = handle.result(timeout=SESSION_TIMEOUT_S)
        return _sample(
            index, time.perf_counter() - began, result,
            queue=handle.queue_seconds, drive=handle.wall_seconds,
        )

    def totals(self) -> Dict[str, float]:
        return {"pool_busy": self.service.stats().pool.busy_seconds}

    def close(self) -> None:
        self.service.close()


class ClusterSystem(_System):
    """Two process replicas; every odd-numbered session migrates once."""

    # One session outstanding: with two, three processes and their RPC
    # threads share the two CPUs, and ten runs spread 0.17-0.27 of their
    # median (the tail past any bound) as the shared host's load moved.
    clients = 1

    def __init__(self, telemetry: Any = None) -> None:
        from repro.cluster import ClusterController, ClusterError

        self._refused = ClusterError
        os.makedirs(RESULTS_DIR, exist_ok=True)
        self.checkpoint_dir = os.path.join(
            RESULTS_DIR, f"checkpoints-{os.getpid()}-{id(self)}"
        )
        self.cluster = ClusterController(
            replicas=2,
            backend="process",
            max_inflight=1,
            shard_backend="serial",
            checkpoint_dir=self.checkpoint_dir,
            checkpoint_every=4,
            telemetry=telemetry,
        )

    def run_one(self, index: int, spec: Any) -> Sample:
        began = time.perf_counter()
        session = self.cluster.submit(spec)
        extra: Dict[str, Any] = {}
        if index % 2 == 1:
            moved_at = time.perf_counter()
            try:
                final = self.cluster.migrate(
                    session.session_id, 1 - session.replica,
                    timeout=SESSION_TIMEOUT_S,
                )
            except self._refused:
                # Refused because the session already finished: a
                # migration attempt that did not move anything.
                if not session.done():
                    raise
                final = None
            extra["migrate"] = time.perf_counter() - moved_at
            extra["moved"] = final is not None
        result = session.result(timeout=SESSION_TIMEOUT_S)
        return _sample(index, time.perf_counter() - began, result, **extra)

    def child_pids(self) -> List[int]:
        return [replica.pid for replica in self.cluster.replicas]

    def totals(self) -> Dict[str, float]:
        # Retention is unbounded, so the files on disk are every
        # checkpoint written so far.
        return {
            "checkpoint_files": sum(
                len(files) for _, _, files in os.walk(self.checkpoint_dir)
            ),
            "wire_bytes": sum(
                r.wire_bytes_sent + r.wire_bytes_received
                for r in self.cluster.replicas
            ),
        }

    def close(self) -> None:
        self.cluster.close()
        shutil.rmtree(self.checkpoint_dir, ignore_errors=True)


@dataclass(frozen=True)
class Workload:
    """A named deck generator plus the system that runs it."""

    name: str
    why: str
    make_deck: Callable[[random.Random], list]
    system: Callable[..., _System]
    #: declared in ``BENCHMARK.json`` and run by ``--workload all``; a
    #: workload left out still runs by name, for its traced layer numbers
    in_benchmark: bool = True

    def deck(self, seed: int) -> list:
        """The workload's specs for ``seed`` (same seed, same specs)."""
        return self.make_deck(random.Random(f"{self.name}/{seed}"))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "service-mix",
            "many short batch and stream sessions through the serving "
            "engine, so fixed per-session cost (admission, pool handoff, "
            "negotiation, cipher, codec) dominates",
            _service_mix_deck,
            ServiceSystem,
        ),
        Workload(
            "stream-long",
            "long drifting, skewed streams run inline on the serial "
            "backend: per-record layers dominate and no pool handoff or "
            "admission is involved",
            _stream_long_deck,
            InlineSystem,
        ),
        Workload(
            "privacy-batch",
            "batch sessions with the privacy evaluation on, so the attack "
            "suite, optimizer and per-party risk tasks dominate the pool",
            _privacy_batch_deck,
            ServiceSystem,
            # Left out of the benchmark: heavy numpy tasks on two pool
            # threads beside two session threads make it the workload
            # most sensitive to the shared host's load; ten runs spread
            # 0.45-0.68 of their median, wider than any bound allows.
            in_benchmark=False,
        ),
        Workload(
            "cluster-migrate",
            "stream sessions on two process replicas with one live "
            "migration for every other session: replica RPC, checkpoint "
            "encode/decode, migration",
            _cluster_migrate_deck,
            ClusterSystem,
        ),
    )
}


# ----------------------------------------------------------------------
# the closed loop
# ----------------------------------------------------------------------
@dataclass
class Phase:
    """What one closed-loop phase measured."""

    samples: List[Sample]
    wall: float

    @property
    def completed(self) -> List[Sample]:
        return [s for s in self.samples if s.error is None]

    @classmethod
    def joined(cls, phases: List["Phase"]) -> "Phase":
        """The phases' samples together, over their summed wall time."""
        return cls([s for p in phases for s in p.samples],
                   sum(p.wall for p in phases))


def closed_loop(
    system: _System,
    deck: list,
    seconds: Optional[float] = None,
    sessions: Optional[int] = None,
) -> Phase:
    """Run ``system.clients`` clients over the deck, cyclically.

    Each client takes the next deck index, runs that session to
    completion, and only then takes another.  Clients stop taking work
    once ``seconds`` have passed (or ``sessions`` were handed out); the
    phase ends when the last outstanding session returns, so its wall
    time covers all the work it counts.
    """
    lock = threading.Lock()
    cursor = [0]
    samples: List[Sample] = []
    began = time.perf_counter()
    deadline = None if seconds is None else began + seconds

    def client() -> None:
        while True:
            with lock:
                index = cursor[0]
                if sessions is not None and index >= sessions:
                    return
                if deadline is not None and time.perf_counter() >= deadline:
                    return
                cursor[0] += 1
            spec = deck[index % len(deck)]
            try:
                sample = system.run_one(index, spec)
            except Exception as exc:  # a failed session is data, not a crash
                sample = Sample(index, 0.0, error=f"{type(exc).__name__}: {exc}")
            with lock:
                samples.append(sample)

    threads = [
        threading.Thread(target=client, name=f"perfbench-client-{n}")
        for n in range(system.clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - began
    samples.sort(key=lambda s: s.index)
    return Phase(samples, wall)


# ----------------------------------------------------------------------
# correctness
# ----------------------------------------------------------------------
def reference(deck: list) -> Dict[str, Any]:
    """Each distinct spec inline on the serial backend, twice, timed.

    A spec's time is the faster of its two runs, so that a second in
    which the machine ran slow does not count against the inline
    baseline.  A spec whose two runs disagree gets no fingerprint, so
    every session of it counts as wrong.
    """
    from repro.serve import execute_spec

    prints: List[Optional[str]] = []
    tallies, times = [], []
    for repeat in range(2):
        for index, spec in enumerate(deck):
            began = time.perf_counter()
            result = execute_spec(spec)
            took = time.perf_counter() - began
            if repeat == 0:
                times.append(took)
                prints.append(fingerprint(result))
                tallies.append(counters(result))
            else:
                times[index] = min(times[index], took)
                if fingerprint(result) != prints[index]:
                    prints[index] = None
    return {"fingerprints": prints, "counters": tallies, "times": times}


def inline_seconds(samples: List[Sample], ref: Dict[str, Any]) -> float:
    """What the completed sessions took in the inline reference run."""
    times = ref["times"]
    return sum(times[s.index % len(times)] for s in samples if s.error is None)


def wrong_results(samples: List[Sample], ref: Dict[str, Any]) -> List[str]:
    """One message per session that failed or differs from the reference."""
    prints = ref["fingerprints"]
    problems = []
    for sample in samples:
        if sample.error is not None:
            problems.append(f"session {sample.index} failed: {sample.error}")
        elif sample.fingerprint != prints[sample.index % len(prints)]:
            problems.append(
                f"session {sample.index} differs from its inline reference"
            )
    return problems
