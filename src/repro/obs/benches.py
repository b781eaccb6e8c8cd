"""The four trajectory benches, each measured by one sweep.

Every committed ``BENCH_<bench>.json`` perf trajectory is fed by one sweep
here, and both of its callers measure through :func:`measure`: the
``benchmarks/bench_{overlap,ingest,serve,cluster}.py`` scripts (full size,
or ``--quick``) and the fresh quick measurement of
:func:`repro.obs.experiment.run_gate`.  A sweep returns its rendered table
and the trajectory entry's metrics: the size fields (``quick``,
``n_windows``, ``window_size``, ``n_sessions``, ``n_records``,
``backend``) at top level, beside one mapping of numbers per
configuration.

The layers the overlap, serve and cluster sweeps time are
bit-deterministic, so those sweeps are also correctness checks and refuse
(``AssertionError``) to report a number from a run that diverged:
pipelined dispatch must reproduce serial dispatch, every concurrency
level sequential submission, every replica count and backend and a
live-migrated session the single engine, and the merged ``ClusterStats``
must conserve every replica's records.

Layering: like the rest of :mod:`repro.obs`, this module imports only the
standard library at import time; each sweep imports the execution layers
it drives when it runs, and ``import repro`` does not load this module.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Sequence

__all__ = ["BENCHES", "Measurement", "measure"]


@dataclass(frozen=True)
class Measurement:
    """One sweep's output: the rendered table and the trajectory metrics."""

    table: str
    metrics: Dict[str, Any]


def _fingerprint(result: Any) -> tuple:
    """The deterministic core of a batch or stream result."""
    if hasattr(result, "deviation_series"):
        return (
            result.deviation_series(),
            [(e.reason, e.window) for e in result.events],
            result.messages_sent,
            result.bytes_sent,
            result.data_messages_sent,
            result.data_bytes_sent,
        )
    return (result.accuracy_perturbed, result.messages_sent, result.bytes_sent)


def _render(
    title: str,
    workload: str,
    quick: bool,
    headers: Sequence[str],
    rows: List[List[str]],
) -> str:
    from ..analysis.reporting import ascii_table, series_block

    workload += ", quick" if quick else ""
    return series_block(f"{title} ({workload})", ascii_table(headers, rows))


def _overlap(quick: bool) -> Measurement:
    """Serial vs pipelined round dispatch over a process pool, per shard count."""
    from ..streaming import StreamConfig, make_stream, run_stream_session

    n_windows, window_size, shard_levels = (
        (6, 32, (2, 4)) if quick else (24, 64, (2, 4, 8))
    )

    def run(shards, overlap):
        source = make_stream(
            "wine", kind="stationary", n_records=n_windows * window_size, seed=0
        )
        config = StreamConfig(
            k=3,
            window_size=window_size,
            compute_privacy=False,
            shards=shards,
            shard_backend="process",
            overlap=overlap,
            seed=0,
        )
        began = time.perf_counter()
        result = run_stream_session(source, config)
        return result, time.perf_counter() - began

    metrics: Dict[str, Any] = {
        "n_windows": n_windows, "window_size": window_size, "quick": quick,
        "backend": "process",
    }
    rows = []
    for shards in shard_levels:
        serial, serial_wall = run(shards, overlap=False)
        piped, piped_wall = run(shards, overlap=True)
        assert piped.overlap and not serial.overlap
        assert _fingerprint(piped) == _fingerprint(serial), (
            f"shards={shards}: overlap diverged from serial dispatch"
        )
        serial_rps = serial.records_processed / serial_wall
        piped_rps = piped.records_processed / piped_wall
        speedup = serial_wall / piped_wall
        metrics[f"shards={shards}"] = {
            "serial_records_per_s": round(serial_rps, 1),
            "overlap_records_per_s": round(piped_rps, 1),
            "speedup": round(speedup, 3),
        }
        rows.append(
            [str(shards), f"{serial_rps:,.0f}", f"{piped_rps:,.0f}",
             f"{speedup:.2f}x", "yes"]
        )
    return Measurement(
        _render(
            "Pipelined rounds - overlap vs serial dispatch",
            f"wine, {n_windows}x{window_size}, process pool",
            quick,
            ["shards", "serial rec/s", "overlap rec/s", "speedup", "identical"],
            rows,
        ),
        metrics,
    )


def _ingest(quick: bool) -> Measurement:
    """Bare ingest-plane records/sec and seal latency vs skew and watermark.

    Arrivals go through :meth:`IngestPlane.push_chunk`, the entry point
    sessions call, with a limit of one window so that each seal's lag is
    read on the record that sealed it.
    """
    from ..sharding import ShardPlan
    from ..streaming import IngestPlane, make_stream, skewed_chunks

    n_records, window_size = (4_000, 64) if quick else (20_000, 64)
    # Pre-draw the stream so the sweep times ingestion, not generation.
    chunks = list(make_stream("wine", n_records=n_records, seed=0).chunks())
    metrics: Dict[str, Any] = {
        "n_records": n_records, "window_size": window_size, "quick": quick,
    }
    rows = []
    for skew, watermark in ((0, 0), (4, 4), (16, 16), (16, 0), (64, 16)):
        arrivals = list(skewed_chunks(chunks, skew, seed=0))
        plane = IngestPlane(
            ShardPlan(4, "round_robin", n_parties=3),
            window_kind="tumbling",
            window_size=window_size,
            providers=["provider-0", "provider-1", "coordinator"],
            watermark_delay=watermark,
            late_policy="readmit",
        )
        seal_lags = []
        began = time.perf_counter()
        for chunk in arrivals:
            while len(chunk):
                sealed, used = plane.push_chunk(chunk, 1)
                chunk = chunk[used:]
                for window in sealed:
                    # Event-space seal latency: how far the frontier had
                    # to run past the window's end before it sealed.
                    seal_lags.append(
                        plane.frontier - plane.assigner.last_seq(window.index)
                    )
        plane.finish()
        rate = n_records / (time.perf_counter() - began)
        lag = sum(seal_lags) / len(seal_lags) if seal_lags else 0.0
        stats = plane.stats()
        metrics[f"skew={skew},watermark={watermark}"] = {
            "records_per_s": round(rate, 1),
            "seal_lag_records": round(lag, 2),
            "late": stats.late,
            "max_skew": stats.max_skew,
        }
        rows.append(
            [str(skew), str(watermark), f"{rate:,.0f}", f"{lag:.1f}",
             str(stats.late), str(stats.max_skew)]
        )
    return Measurement(
        _render(
            "Event-time ingestion - records/sec and seal latency vs skew",
            f"wine, {n_records} records, window {window_size}",
            quick,
            ["skew", "watermark", "records/sec", "seal lag", "late", "max skew"],
            rows,
        ),
        metrics,
    )


def _stream_spec(windows: int, window_size: int, seed: int, **fields: Any):
    """The stream session the serve and cluster sweeps submit."""
    from ..serve import SessionSpec

    return SessionSpec(
        kind="stream",
        dataset="wine",
        k=3,
        windows=windows,
        window_size=window_size,
        compute_privacy=False,
        seed=seed,
        **fields,
    )


def _run_service(specs: Sequence[Any], max_inflight: int, backend: str):
    """Run ``specs`` through one engine; returns their fingerprints, the
    wall seconds and the metered backend's utilization."""
    from ..serve import MiningService

    began = time.perf_counter()
    with MiningService(
        max_inflight=max_inflight,
        shard_backend=backend,
        shard_workers=max(2, max_inflight // 2),
    ) as service:
        results = service.run(specs)
        utilization = service.stats().pool.utilization
    wall = time.perf_counter() - began
    return [_fingerprint(r) for r in results], wall, utilization


def _serve(quick: bool) -> Measurement:
    """Mixed batch+stream sessions/sec vs ``max_inflight`` on a thread engine."""
    from ..serve import SessionSpec

    n_sessions, n_windows, window_size, levels = (
        (6, 3, 32, (4,)) if quick else (12, 6, 64, (2, 4, 8))
    )
    specs = [
        SessionSpec(kind="batch", dataset="wine", k=3, seed=index, tenant="acme")
        if index % 2 == 0
        else _stream_spec(n_windows, window_size, index, tenant="globex")
        for index in range(n_sessions)
    ]
    metrics: Dict[str, Any] = {
        "n_sessions": n_sessions,
        "n_windows": n_windows,
        "window_size": window_size,
        "backend": "thread",
        "quick": quick,
    }
    rows = []
    reference, base_wall, base_util = _run_service(specs, 1, "serial")

    def record(key, label, wall, utilization):
        metrics[key] = {
            "sessions_per_s": round(n_sessions / wall, 2),
            "speedup": round(base_wall / wall, 3),
            "pool_utilization": round(utilization, 3),
        }
        rows.append(
            [label, f"{n_sessions / wall:.2f}", f"{base_wall / wall:.2f}x",
             f"{utilization * 100:.0f}%", "yes"]
        )

    record("inflight=1 (serial)", "1 (serial)", base_wall, base_util)
    for level in levels:
        fingerprints, wall, utilization = _run_service(specs, level, "thread")
        assert fingerprints == reference, (
            f"max_inflight={level} diverged from sequential submission"
        )
        record(f"inflight={level}", str(level), wall, utilization)
    return Measurement(
        _render(
            "Serving - sessions/sec vs concurrency",
            f"{n_sessions} mixed sessions, wine, stream "
            f"{n_windows}x{window_size}, thread engine",
            quick,
            ["max_inflight", "sessions/sec", "speedup", "pool util",
             "identical"],
            rows,
        ),
        metrics,
    )


def _cluster(quick: bool) -> Measurement:
    """Stream sessions/sec vs replicas (in-process and process backends),
    plus live-migration hops/sec of one session ping-ponged between two."""
    from ..cluster import ClusterController

    n_sessions, n_windows, window_size, levels = (
        (6, 3, 32, (2,)) if quick else (12, 6, 64, (1, 2, 4))
    )
    specs = [
        _stream_spec(
            n_windows, window_size, index, tenant=("acme", "globex")[index % 2]
        )
        for index in range(n_sessions)
    ]
    # The reference: one engine at the per-replica pool size.
    reference, base_wall, _ = _run_service(specs, 2, "thread")
    metrics: Dict[str, Any] = {
        "n_sessions": n_sessions,
        "n_windows": n_windows,
        "window_size": window_size,
        "quick": quick,
        "single_engine": {"sessions_per_s": round(n_sessions / base_wall, 2)},
    }
    rows = [["single engine", f"{n_sessions / base_wall:.2f}", "1.00x", "-",
             "yes"]]
    for level in levels:
        for backend, key, label in (
            ("inprocess", "replicas", "replicas"),
            ("process", "process_replicas", "proc replicas"),
        ):
            began = time.perf_counter()
            with ClusterController(
                replicas=level,
                backend=backend,
                max_inflight=2,
                shard_backend="thread",
                shard_workers=2,
            ) as cluster:
                results = cluster.run(specs)
                stats = cluster.stats()
            wall = time.perf_counter() - began
            assert stats.records == sum(
                s.records for s in stats.per_replica
            ), "merged ClusterStats lost records"
            assert [_fingerprint(r) for r in results] == reference, (
                f"replicas={level} backend={backend} diverged from the "
                f"single engine"
            )
            metrics[f"{key}={level}"] = {
                "sessions_per_s": round(n_sessions / wall, 2),
                "speedup": round(base_wall / wall, 3),
            }
            rows.append(
                [f"{level} {label}", f"{n_sessions / wall:.2f}",
                 f"{base_wall / wall:.2f}x", str(stats.completed), "yes"]
            )

    spec = _stream_spec(8, window_size, 0)
    scratch = tempfile.mkdtemp(prefix="repro-bench-cluster-")
    began = time.perf_counter()
    try:
        with ClusterController(
            replicas=2, max_inflight=2, checkpoint_dir=scratch,
            checkpoint_every=1,
        ) as cluster:
            session = cluster.submit(spec)
            hops = 0
            while hops < 4 and not session.done():
                landed = cluster.migrate(
                    session.session_id, (session.replica + 1) % 2
                )
                if landed is None:  # completed before the next boundary
                    break
                hops += 1
            migrated = session.result()
        wall = time.perf_counter() - began
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    assert [_fingerprint(migrated)] == _run_service([spec], 2, "thread")[0], (
        "migrated run diverged from the single-engine reference"
    )
    metrics["migration"] = {
        "hops": hops,
        "migrations_per_s": round(hops / wall, 2),
    }
    rows.append(
        [f"migration x{hops}", f"{hops / wall:.2f} hops/s", "-", "1", "yes"]
    )
    return Measurement(
        _render(
            "Cluster - sessions/sec vs replicas",
            f"{n_sessions} stream sessions, wine, {n_windows}x{window_size}",
            quick,
            ["configuration", "sessions/sec", "speedup", "completed",
             "identical"],
            rows,
        ),
        metrics,
    )


_SWEEPS: Dict[str, Callable[[bool], Measurement]] = {
    "overlap": _overlap,
    "ingest": _ingest,
    "serve": _serve,
    "cluster": _cluster,
}

#: the benches :func:`measure` knows, by trajectory ``bench`` name
BENCHES = tuple(_SWEEPS)


def measure(bench: str, quick: bool = False) -> Measurement:
    """Run one trajectory bench's sweep.

    ``quick`` selects the small size the committed ``BENCH_*.json``
    entries, CI and the perf gate use; the default is the full size the
    pytest-benchmark entries time.  Raises ``ValueError`` for a bench
    outside :data:`BENCHES`, and ``AssertionError`` when a run diverges
    from its reference.
    """
    sweep = _SWEEPS.get(bench)
    if sweep is None:
        raise ValueError(
            f"unknown bench {bench!r}; available: {', '.join(BENCHES)}"
        )
    return sweep(quick)
