"""The traced run: layer probes and spans on, per-layer metrics out.

Runs separately from the measured run so that neither the wrappers nor
the spans touch an end-to-end number.  The deck runs twice, draining in
between; the exact counters (``metrics.EXACT``) of the two passes must
be identical, and every session must still match its inline reference.
Process replicas run untraced, so on ``cluster-migrate`` the numbers
come from the parent side, plus the checkpoint payloads that crossed the
wire replayed through ``loads_checkpoint`` / ``dumps_checkpoint``.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Dict, List

from metrics import EXACT, PER_LAYER, RPC_OPS, p50, ratio
from probes import Probes, install_layer_probes, self_times
from workloads import (
    RESULTS_DIR,
    SHARD_WORKERS,
    closed_loop,
    inline_seconds,
    wrong_results,
)

#: traced passes over the deck; the exact counters must repeat between them
TRACED_PASSES = 2

#: stage spans reported as self time per window
STAGES = ("control", "dispatch", "settle", "merge")


def _diff(after: Dict[str, Any], before: Dict[str, Any]) -> Dict[str, Any]:
    """Probe totals accumulated between two snapshots."""
    out: Dict[str, Any] = {}
    for part in ("busy", "calls", "units"):
        out[part] = {
            key: value - before[part].get(key, 0)
            for key, value in after[part].items()
        }
    out["samples"] = {
        key: values[len(before["samples"].get(key, ())):]
        for key, values in after["samples"].items()
    }
    return out


def _pass_counters(
    samples: list, probed: Dict[str, Any], spans: List[Dict[str, Any]]
) -> Dict[str, float]:
    """The exact counters of one pass over the deck."""
    def total(key: str) -> int:
        return sum(s.counters[key] for s in samples)

    lags = [s["attrs"]["watermark_lag"] for s in spans if s["name"] == "seal"]
    return {
        "simnet.messages": total("messages"),
        "simnet.bytes": total("bytes"),
        "simnet.cipher_blocks": probed["units"].get("simnet.cipher_blocks", 0),
        "sharding.tasks": probed["units"].get("sharding.submit_map", 0),
        "sharding.dispatches": probed["calls"].get("sharding.submit_map", 0),
        "core.negotiations": total("negotiations"),
        "attacks.guarantee_calls": probed["calls"].get("attacks.guarantee", 0),
        "streaming.late": total("late"),
        "streaming.readmitted": total("readmitted"),
        "streaming.seal_lag_records": ratio(sum(lags), len(lags)),
    }


def _replay_checkpoints(payloads: List[bytes]) -> Dict[str, float]:
    """Decode and re-encode the RPCK payloads that crossed the wire."""
    from repro.checkpoint import dumps_checkpoint, loads_checkpoint

    decode = encode = 0.0
    for data in payloads:
        began = time.perf_counter()
        checkpoint = loads_checkpoint(data)
        decode += time.perf_counter() - began
        began = time.perf_counter()
        dumps_checkpoint(checkpoint.payload)
        encode += time.perf_counter() - began
    mib = sum(len(data) for data in payloads) / 2**20
    return {
        "checkpoint.bytes": ratio(sum(len(d) for d in payloads), len(payloads)),
        "checkpoint.decode_ms_per_mib": ratio(decode * 1e3, mib),
        "checkpoint.encode_ms_per_mib": ratio(encode * 1e3, mib),
    }


def _inline_busy(deck: list) -> Dict[str, float]:
    """Probe busy seconds per session for one inline serial pass."""
    from repro.serve import execute_spec

    probes = Probes()
    install_layer_probes(probes)
    try:
        for spec in deck:
            execute_spec(spec)
    finally:
        probes.remove()
    return {
        key: value / len(deck) for key, value in probes.snapshot()["busy"].items()
    }


def _breakdown(inline: Dict[str, float], busy: Dict[str, float], sessions: int) -> str:
    """``layer inline->workload`` busy ms per session, busiest first."""
    per_session = {key: ratio(value, sessions) for key, value in busy.items()}
    keys = sorted(
        set(inline) | set(per_session),
        key=lambda key: -max(per_session.get(key, 0.0), inline.get(key, 0.0)),
    )
    return ", ".join(
        f"{key} {inline.get(key, 0.0) * 1e3:.2f}->"
        f"{per_session.get(key, 0.0) * 1e3:.2f}"
        for key in keys
    )


def _traced_passes(
    workload: Any, deck: list, warmup: float, probes: Probes, telemetry: Any
) -> Dict[str, Any]:
    """Warm up, then the drained passes; probe totals and spans per pass."""
    spans: List[Dict[str, Any]] = telemetry.tracer.sink.spans
    system = workload.system(telemetry=telemetry)
    try:
        closed_loop(system, deck, seconds=warmup)
        before, first_span, totals = probes.snapshot(), len(spans), system.totals()
        mark, marked = before, first_span
        passes = []
        for _ in range(TRACED_PASSES):
            phase = closed_loop(system, deck, sessions=len(deck))
            now, upto = probes.snapshot(), len(spans)
            passes.append({
                "phase": phase,
                "exact": _pass_counters(
                    phase.completed, _diff(now, mark), spans[marked:upto]
                ),
            })
            mark, marked = now, upto
        delta = {k: v - totals[k] for k, v in system.totals().items()}
    finally:
        system.close()
    return {
        "passes": passes,
        "before": before,
        "spans": spans[first_span:],
        "delta": delta,
    }


def _problems(passes: List[Dict[str, Any]], ref: Dict[str, Any]) -> List[str]:
    """Wrong results, and exact counters that did not repeat."""
    problems = []
    for number, entry in enumerate(passes, 1):
        problems += [
            f"traced pass {number}: {p}"
            for p in wrong_results(entry["phase"].samples, ref)
        ]
    first = passes[0]["exact"]
    for number, entry in enumerate(passes[1:], 2):
        problems += [
            f"exact counter {key} did not repeat: pass 1 {first[key]}, "
            f"pass {number} {entry['exact'][key]}"
            for key in EXACT
            if entry["exact"][key] != first[key]
        ]
    for key, name in (
        ("simnet.messages", "messages"), ("simnet.bytes", "bytes"),
        ("core.negotiations", "negotiations"), ("streaming.late", "late"),
        ("streaming.readmitted", "readmitted"),
    ):
        expected = sum(c[name] for c in ref["counters"])
        if first[key] != expected:
            problems.append(
                f"exact counter {key}: traced {first[key]}, reference {expected}"
            )
    return problems


def run_traced(
    workload: Any, deck: list, ref: Dict[str, Any], untraced: Any,
    measured: Any, warmup: float,
) -> Dict[str, Any]:
    """Two probed, traced passes over the deck; per-layer metrics.

    ``untraced`` joins every timed pass of the untraced run, which the
    traced passes are compared with for ``obs.trace_overhead``;
    ``measured`` joins the passes the end-to-end metrics used, which
    ``serve.inline_ratio`` compares with the inline reference.
    """
    from repro.obs import Telemetry

    probes = Probes()
    install_layer_probes(probes)
    telemetry = Telemetry.in_memory()
    try:
        run = _traced_passes(workload, deck, warmup, probes, telemetry)
    finally:
        probes.remove()
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(
        os.path.join(RESULTS_DIR, f"{workload.name}.spans.jsonl"), "w"
    ) as out:
        for span in telemetry.tracer.sink.spans:
            out.write(json.dumps(span, sort_keys=True, default=str) + "\n")

    everything = probes.snapshot()
    probed = _diff(everything, run["before"])
    passes = run["passes"]
    samples = [s for entry in passes for s in entry["phase"].completed]
    wall = sum(entry["phase"].wall for entry in passes)
    delta = run["delta"]
    extra = {
        "serve.pool_utilization": ratio(
            delta.get("pool_busy", 0.0), SHARD_WORKERS * wall
        ),
        "checkpoint.files": delta.get("checkpoint_files", 0),
        "cluster.wire": delta.get("wire_bytes", 0),
        "cluster.spawn_s": p50(everything["samples"].get("cluster.spawn", [])),
    }
    values = _layer_values(
        probed, run["spans"], samples, passes[0]["exact"], extra
    )
    values.update(_replay_checkpoints(probes.kept["cluster.evict"]))
    # Each phase's wall time is weighed against the inline reference time
    # of the very sessions it ran.
    def cost(phase: Any) -> float:
        return ratio(phase.wall, inline_seconds(phase.samples, ref))

    traced_cost = ratio(wall, inline_seconds(samples, ref))
    values["serve.inline_ratio"] = ratio(1.0, cost(measured))
    values["obs.trace_overhead"] = ratio(traced_cost, cost(untraced)) - 1.0
    return {
        "values": {name: values[name] for name, *_ in PER_LAYER},
        "problems": _problems(passes, ref),
        "attempted": sum(len(entry["phase"].samples) for entry in passes),
        "notes": {
            "traced": f"{len(passes)} passes x {len(deck)} sessions, "
                      f"{len(run['spans'])} spans",
            "busy ms/session, inline->workload": _breakdown(
                _inline_busy(deck), probed["busy"], len(samples)
            ),
        },
    }


def _layer_values(
    probed: Dict[str, Any],
    spans: List[Dict[str, Any]],
    samples: list,
    exact: Dict[str, float],
    extra: Dict[str, float],
) -> Dict[str, float]:
    """Per-layer metric values from probe totals, spans and results."""
    busy, calls, units = probed["busy"], probed["calls"], probed["units"]
    timings = probed["samples"]

    def per_call_ms(key: str) -> float:
        return ratio(busy.get(key, 0.0), calls.get(key, 0)) * 1e3

    def per_unit_us(key: str) -> float:
        return ratio(busy.get(key, 0.0), units.get(key, 0)) * 1e6

    def median_ms(key: str) -> float:
        return p50(timings.get(key, [])) * 1e3

    sessions = len(samples)
    windows = sum(s.counters["windows"] for s in samples)
    selfs = self_times(spans)
    migrated = [s for s in samples if "moved" in s.extra]
    values: Dict[str, float] = dict(exact)
    values.update({
        "serve.admit_ms": median_ms("serve.admit"),
        "serve.queue_ms": p50([s.extra["queue"] for s in samples
                               if "queue" in s.extra]) * 1e3,
        "serve.drive_ms": p50([s.extra["drive"] for s in samples
                               if "drive" in s.extra]) * 1e3,
        "serve.pool_utilization": extra.get("serve.pool_utilization", 0.0),
        "serve.wire_decode_ms": per_call_ms("serve.wire_decode"),
        "sharding.gather_wait_ms": ratio(
            busy.get("sharding.gather", 0.0), sessions
        ) * 1e3,
        "sharding.transform_us_per_record": per_unit_us("sharding.transform"),
        "sharding.predict_us_per_record": per_unit_us("sharding.predict"),
        "sharding.dataplane_us_per_record": per_unit_us("sharding.dataplane"),
        "sharding.risk_task_ms": per_call_ms("sharding.risk_task"),
        "simnet.cipher_us_per_kib": per_unit_us("simnet.cipher") * 1024,
        "simnet.codec_us_per_msg": ratio(
            busy.get("simnet.codec", 0.0) + busy.get("simnet.codec_decode", 0.0),
            calls.get("simnet.codec", 0),
        ) * 1e6,
        "core.negotiate_ms": p50(
            [t for s in samples for t in s.negotiation_latencies]
        ) * 1e3,
        "core.optimize_ms": per_call_ms("core.optimize"),
        "streaming.ingest_us_per_record": ratio(
            busy.get("streaming.ingest", 0.0), calls.get("streaming.ingest", 0)
        ) * 1e6,
        "attacks.guarantee_ms": per_call_ms("attacks.guarantee"),
        "checkpoint.used_ratio": ratio(
            calls.get("cluster.resume", 0), extra.get("checkpoint.files", 0)
        ),
        "cluster.rpc_lock_wait_ms": ratio(
            sum(timings.get("cluster.rpc_lock_wait", [])),
            len(timings.get("cluster.rpc_lock_wait", [])),
        ) * 1e3,
        "cluster.wire_bytes": ratio(extra.get("cluster.wire", 0), sessions),
        "cluster.evict_ms": median_ms("cluster.evict"),
        "cluster.resume_ms": median_ms("cluster.resume"),
        "cluster.migrate_ms": median_ms("cluster.migrate"),
        "cluster.migrate_useful_ratio": ratio(
            sum(1 for s in migrated if s.extra["moved"]), len(migrated)
        ),
        "cluster.spawn_s": extra.get("cluster.spawn_s", 0.0),
    })
    for stage in STAGES:
        values[f"streaming.{stage}_ms"] = ratio(selfs.get(stage, 0.0), windows) * 1e3
    for op in RPC_OPS:
        values[f"cluster.rpc_ms.{op}"] = median_ms(f"cluster.rpc.{op}")
    return values
