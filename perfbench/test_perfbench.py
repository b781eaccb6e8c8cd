"""Toy-size self-test of the benchmark itself.

Run from the repository root with ``python -m pytest perfbench -q``.
Every workload runs for a fraction of a second, untraced and traced; the
test checks that each metric ``BENCHMARK.json`` declares is printed with
its unit, and that a deliberately altered fingerprint fails the run.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import metrics  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as _spec:
    SPEC = json.load(_spec)


@pytest.fixture
def toy(monkeypatch):
    """Shrink the fixed costs of a run to toy size."""
    monkeypatch.setattr(run, "SETUP_RUNS", 1)
    monkeypatch.setattr(run, "MIN_PASSES", 1)
    monkeypatch.setattr(workloads, "WARMUP_S", 0.0)


def _run(capsys, *argv):
    code = run.main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out.strip().splitlines()[-1])


def test_benchmark_json_mirrors_the_definitions():
    assert [w["name"] for w in SPEC["workloads"]] == [
        name for name, w in workloads.WORKLOADS.items() if w.in_benchmark
    ]
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in SPEC["end_to_end"]
    ] == list(metrics.END_TO_END)
    assert [
        (m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]
    ] == [(name, unit, better) for name, unit, better, _ in metrics.PER_LAYER]
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_every_declared_metric_is_printed_with_its_unit(
    toy, capsys, workload, trace
):
    code, line = _run(
        capsys, "--workload", workload, "--seed", "3", "--seconds", "0.3",
        "--trace", str(trace),
    )
    assert code == 0 and line["correct"] and line["failed"] == 0
    assert line["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(line["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        printed = line["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))
    if not trace:
        assert all(v["value"] > 0 for v in line["metrics"].values())


def test_an_altered_fingerprint_counts_as_a_failure(toy, capsys, monkeypatch):
    honest = workloads.reference

    def altered(deck):
        ref = honest(deck)
        ref["fingerprints"][0] = "0" * 64
        return ref

    monkeypatch.setattr(workloads, "reference", altered)
    code, line = _run(
        capsys, "--workload", "service-mix", "--seconds", "0.3", "--trace", "0",
    )
    assert code != 0
    assert not line["correct"] and line["failed"] >= 1


def test_a_slow_host_is_scaled_back_to_nominal_speed():
    class Meter:
        slices = [0.08]

        def slowdown(self):
            return 2.0

    samples = [
        workloads.Sample(i, 0.1, counters={"records": 10}) for i in range(4)
    ]
    passes = [{"phase": workloads.Phase(samples, 1.0), "cpu": 0.2}]
    values = run.end_to_end("service-mix", passes, [1.5], Meter())["values"]
    assert values["sessions_per_s"] == pytest.approx(8.0)
    assert values["records_per_s"] == pytest.approx(80.0)
    assert values["session_p50_ms"] == pytest.approx(50.0)
    assert values["cpu_ms_per_session"] == pytest.approx(25.0)
    assert values["setup_s"] == pytest.approx(0.75)


def test_the_same_seed_gives_the_same_specs():
    for workload in workloads.WORKLOADS.values():
        assert workload.deck(5) == workload.deck(5)
        assert workload.deck(5) != workload.deck(6)
