"""The experiment harness: config parsing, expansion, runner, report, gate.

Runner tests sweep a deliberately tiny stream grid (one 32-record window)
so the whole file stays inside the tier-1 time budget; the crash tests
monkeypatch ``execute_spec`` instead of manufacturing real failures.
"""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.obs import (
    ExperimentConfig,
    expand_run_table,
    load_experiment_config,
    load_runs,
    render_experiment_report,
    run_experiment,
    run_gate,
)
from repro.obs.experiment import (
    METRICS_FILE,
    RESULT_FILE,
    SPANS_FILE,
    SPEC_FILE,
    flatten_metrics,
    load_trajectory,
    machine_fingerprint,
)
from repro.obs.benches import measure

TINY_BASE = {
    "kind": "stream",
    "dataset": "wine",
    "k": 3,
    "windows": 1,
    "window_size": 32,
    "compute_privacy": False,
    "seed": 0,
}


def tiny_config(**kwargs):
    mapping = {
        "name": "tiny",
        "base": dict(TINY_BASE),
        "factors": {"shards": [1, 2]},
    }
    mapping.update(kwargs)
    return ExperimentConfig.from_mapping(mapping)


# ----------------------------------------------------------------------
# config parsing
# ----------------------------------------------------------------------
def test_config_loads_from_json(tmp_path):
    path = tmp_path / "exp.json"
    path.write_text(
        json.dumps(
            {
                "name": "sweep",
                "description": "demo",
                "base": {"kind": "stream", "dataset": "wine"},
                "factors": {"shards": [1, 2], "overlap": [False, True]},
                "repetitions": 2,
            }
        )
    )
    config = load_experiment_config(str(path))
    assert config.name == "sweep"
    assert config.repetitions == 2
    assert config.factor_names == ("shards", "overlap")
    assert dict(config.base)["dataset"] == "wine"
    # to_mapping round-trips through from_mapping
    again = ExperimentConfig.from_mapping(config.to_mapping())
    assert again == config


def test_config_loads_from_toml(tmp_path):
    pytest.importorskip("tomllib")
    path = tmp_path / "exp.toml"
    path.write_text(
        'name = "sweep"\n'
        "repetitions = 1\n"
        "[base]\n"
        'kind = "stream"\n'
        'dataset = "wine"\n'
        "[factors]\n"
        "shards = [1, 2]\n"
    )
    config = load_experiment_config(str(path))
    assert config.name == "sweep"
    assert config.factors == (("shards", (1, 2)),)


def test_config_rejects_unknown_keys_and_bad_shapes(tmp_path):
    with pytest.raises(ValueError, match="unknown experiment config key"):
        ExperimentConfig.from_mapping(
            {"name": "x", "factors": {"shards": [1]}, "runs": 3}
        )
    with pytest.raises(ValueError, match="needs a 'name'"):
        ExperimentConfig.from_mapping({"factors": {"shards": [1]}})
    with pytest.raises(ValueError, match="non-empty 'factors'"):
        ExperimentConfig.from_mapping({"name": "x", "factors": {}})
    with pytest.raises(ValueError, match="levels must be a list"):
        ExperimentConfig.from_mapping({"name": "x", "factors": {"shards": "12"}})
    with pytest.raises(ValueError, match="has no levels"):
        ExperimentConfig.from_mapping({"name": "x", "factors": {"shards": []}})
    with pytest.raises(ValueError, match="repetitions"):
        ExperimentConfig.from_mapping(
            {"name": "x", "factors": {"shards": [1]}, "repetitions": 0}
        )
    with pytest.raises(ValueError, match="slug"):
        ExperimentConfig.from_mapping(
            {"name": "bad name!", "factors": {"shards": [1]}}
        )
    with pytest.raises(ValueError, match="telemetry"):
        ExperimentConfig.from_mapping(
            {"name": "x", "factors": {"telemetry": [1]}}
        )
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    with pytest.raises(ValueError, match="not valid JSON"):
        load_experiment_config(str(bad))
    with pytest.raises(ValueError, match="cannot read"):
        load_experiment_config(str(tmp_path / "missing.json"))


# ----------------------------------------------------------------------
# run-table expansion
# ----------------------------------------------------------------------
def test_expansion_is_deterministic_row_major_with_rep_seeds():
    config = ExperimentConfig.from_mapping(
        {
            "name": "grid",
            "base": dict(TINY_BASE),
            "factors": {"shards": [1, 2], "overlap": [False, True]},
            "repetitions": 2,
        }
    )
    table = expand_run_table(config)
    assert len(table) == 2 * 2 * 2
    assert table == expand_run_table(config)  # element-wise identical
    assert len({cell.run_id for cell in table}) == len(table)
    # row-major: the last factor varies fastest, reps innermost
    assert [dict(c.overrides) for c in table[:4]] == [
        {"shards": 1, "overlap": False},
        {"shards": 1, "overlap": False},
        {"shards": 1, "overlap": True},
        {"shards": 1, "overlap": True},
    ]
    # repetitions offset the base seed so repeats draw fresh randomness
    assert dict(table[0].spec_mapping)["seed"] == 0
    assert dict(table[1].spec_mapping)["seed"] == 1
    assert table[0].run_id == "000-shards=1-overlap=false-r0"
    assert table[1].run_id == "001-shards=1-overlap=false-r1"


def test_expansion_validates_cells_naming_the_offender():
    config = ExperimentConfig.from_mapping(
        {
            "name": "bad",
            "base": dict(TINY_BASE),
            "factors": {"shard_backend": ["serial", "carrier-pigeon"]},
        }
    )
    with pytest.raises(ValueError, match="run table cell 001-shard_backend"):
        expand_run_table(config)
    config = ExperimentConfig.from_mapping(
        {"name": "bad2", "base": dict(TINY_BASE), "factors": {"warp": [9]}}
    )
    with pytest.raises(ValueError, match="run table cell 000-warp=9-r0"):
        expand_run_table(config)


# ----------------------------------------------------------------------
# the runner: artifacts, resume, crash isolation
# ----------------------------------------------------------------------
def test_runner_persists_artifacts_and_resumes(tmp_path):
    config = tiny_config()
    root = str(tmp_path / "results")
    run = run_experiment(config, results_root=root, timestamp="t0")
    assert (run.total, run.executed, run.skipped, run.failed) == (2, 2, 0, 0)
    assert run.ok
    for cell in expand_run_table(config):
        run_dir = tmp_path / "results" / "tiny" / cell.run_id
        for name in (SPEC_FILE, SPANS_FILE, METRICS_FILE, RESULT_FILE):
            assert (run_dir / name).is_file(), name
        artifact = json.loads((run_dir / RESULT_FILE).read_text())
        assert artifact["status"] == "ok"
        assert artifact["timestamp"] == "t0"
        assert artifact["machine"] == machine_fingerprint()
        assert artifact["wall_seconds"] > 0
        assert artifact["summary"]["records"] == 32
    # resume: nothing re-executes
    again = run_experiment(config, results_root=root)
    assert (again.executed, again.skipped) == (0, 2)
    # resume=False re-runs everything
    forced = run_experiment(config, results_root=root, resume=False)
    assert (forced.executed, forced.skipped) == (2, 0)


def test_runner_survives_a_crashed_cell_and_retries_it_on_resume(
    tmp_path, monkeypatch
):
    import repro.serve.engine as engine

    config = tiny_config()
    root = str(tmp_path / "results")
    real_execute = engine.execute_spec

    def crash_on_two_shards(spec, telemetry=None):
        if spec.shards == 2:
            raise RuntimeError("injected shard-pool crash")
        return real_execute(spec, telemetry=telemetry)

    monkeypatch.setattr(engine, "execute_spec", crash_on_two_shards)
    run = run_experiment(config, results_root=root)
    assert (run.executed, run.failed) == (1, 1)
    assert not run.ok
    failed_dir = tmp_path / "results" / "tiny" / "001-shards=2-r0"
    artifact = json.loads((failed_dir / RESULT_FILE).read_text())
    assert artifact["status"] == "error"
    assert "injected shard-pool crash" in artifact["error"]
    # crashed cells still leave a metrics snapshot behind
    assert (failed_dir / METRICS_FILE).is_file()

    # resume with the crash gone: only the failed cell executes
    monkeypatch.setattr(engine, "execute_spec", real_execute)
    resumed = run_experiment(config, results_root=root)
    assert (resumed.executed, resumed.skipped, resumed.failed) == (1, 1, 0)
    assert resumed.ok


# ----------------------------------------------------------------------
# the report stage
# ----------------------------------------------------------------------
def test_report_joins_artifacts_metrics_and_spans(tmp_path):
    config = tiny_config()
    run = run_experiment(config, results_root=str(tmp_path), timestamp="t0")
    runs = load_runs(run.directory)
    assert [r["run_id"] for r in runs] == [
        "000-shards=1-r0", "001-shards=2-r0",
    ]
    report = render_experiment_report(runs, name="tiny")
    assert "# Experiment report — tiny" in report
    assert "runs: 2 (2 ok, 0 failed)" in report
    assert "## Run table" in report
    assert "## Throughput by factor" in report
    assert "| shards | 1 |" in report
    assert "## Stage latency across runs" in report
    assert "| renegotiate |" in report  # joined from the per-run span files
    assert "repro_stream_records_total" in report  # joined from snapshots
    html = render_experiment_report(runs, name="tiny", fmt="html")
    assert html.startswith("<!DOCTYPE html>")
    assert "&mdash;" not in html and "Run table" in html
    with pytest.raises(ValueError, match="'md' or 'html'"):
        render_experiment_report(runs, fmt="pdf")
    with pytest.raises(ValueError, match="not an experiment directory"):
        load_runs(str(tmp_path / "nope"))
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(ValueError, match="no run artifacts"):
        load_runs(str(empty))


def test_report_lists_failures(tmp_path, monkeypatch):
    import repro.serve.engine as engine

    def always_crash(spec, telemetry=None):
        raise RuntimeError("boom")

    monkeypatch.setattr(engine, "execute_spec", always_crash)
    run = run_experiment(tiny_config(), results_root=str(tmp_path))
    report = render_experiment_report(load_runs(run.directory), name="tiny")
    assert "## Failures" in report
    assert "RuntimeError: boom" in report


# ----------------------------------------------------------------------
# the gate
# ----------------------------------------------------------------------
def _trajectory(path, metrics, machine=None, bench="overlap"):
    payload = {
        "bench": bench,
        "entries": [
            {
                "timestamp": "t0",
                "machine": machine or machine_fingerprint(),
                "metrics": metrics,
            }
        ],
    }
    path.write_text(json.dumps(payload))
    return str(path)


def test_gate_passes_within_tolerance_and_fails_beyond(tmp_path):
    baseline = _trajectory(
        tmp_path / "base.json",
        {"shards=2": {"serial_records_per_s": 1000.0, "speedup": 1.0}},
    )
    # 10% drop with 20% tolerance: pass
    current = _trajectory(
        tmp_path / "cur_ok.json",
        {"shards=2": {"serial_records_per_s": 900.0, "speedup": 1.0}},
    )
    report = run_gate(baseline, current_path=current)
    assert report.ok
    assert report.compared == 1 and report.regressions == 0
    assert "PASS" in report.text and "-10.0%" in report.text
    # 30% drop with 20% tolerance: fail
    current = _trajectory(
        tmp_path / "cur_bad.json",
        {"shards=2": {"serial_records_per_s": 700.0}},
    )
    report = run_gate(baseline, current_path=current)
    assert not report.ok
    assert report.regressions == 1
    assert "FAIL" in report.text and "REGRESSION" in report.text
    # a tighter tolerance flips the passing comparison
    current = _trajectory(
        tmp_path / "cur_mid.json",
        {"shards=2": {"serial_records_per_s": 900.0}},
    )
    assert not run_gate(baseline, current_path=current, tolerance=0.05).ok
    with pytest.raises(ValueError, match=r"tolerance must be in \[0, 1\)"):
        run_gate(baseline, current_path=current, tolerance=1.5)


def test_gate_is_vacuous_without_a_matching_machine(tmp_path):
    other = {"platform": "elsewhere", "python": "0.0", "cpus": 1}
    baseline = _trajectory(
        tmp_path / "base.json",
        {"serial_records_per_s": 1000.0},
        machine=other,
    )
    current = _trajectory(
        tmp_path / "cur.json", {"serial_records_per_s": 10.0}
    )
    report = run_gate(baseline, current_path=current)
    assert report.ok
    assert report.skipped == "no matching baseline"
    assert "vacuous" in report.text
    # --allow-machine-mismatch compares anyway (and fails on the drop)
    report = run_gate(
        baseline, current_path=current, allow_machine_mismatch=True
    )
    assert not report.ok


def test_gate_compares_only_shared_throughput_keys(tmp_path):
    baseline = _trajectory(
        tmp_path / "base.json",
        {
            "serial_records_per_s": 1000.0,
            "overlap_records_per_s": 2000.0,
            "n_windows": 6,  # not throughput: never compared
        },
    )
    current = _trajectory(
        tmp_path / "cur.json",
        {"serial_records_per_s": 950.0},  # overlap key absent on this side
    )
    report = run_gate(baseline, current_path=current)
    assert report.ok and report.compared == 1
    # no shared throughput keys at all: vacuous pass, explicitly flagged
    current = _trajectory(tmp_path / "cur2.json", {"n_windows": 6})
    report = run_gate(baseline, current_path=current)
    assert report.ok and report.skipped == "no throughput metrics"


def test_gate_write_current_records_a_trajectory(tmp_path):
    baseline = _trajectory(
        tmp_path / "base.json", {"serial_records_per_s": 1000.0}
    )
    current = _trajectory(
        tmp_path / "cur.json", {"serial_records_per_s": 990.0}
    )
    out = tmp_path / "fresh.json"
    run_gate(
        baseline,
        current_path=current,
        write_current=str(out),
        timestamp="t9",
    )
    written = json.loads(out.read_text())
    assert written["bench"] == "overlap"
    assert written["entries"][0]["timestamp"] == "t9"
    assert written["entries"][0]["machine"] == machine_fingerprint()
    assert written["entries"][0]["metrics"] == {"serial_records_per_s": 990.0}


def test_gate_rejects_malformed_trajectories(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"entries": [{"timestamp": 3}]}))
    with pytest.raises(ValueError, match="entry 0"):
        run_gate(str(bad))
    bad.write_text(json.dumps([1, 2]))
    with pytest.raises(ValueError, match="not a benchmark trajectory"):
        run_gate(str(bad))
    with pytest.raises(ValueError, match="cannot read"):
        run_gate(str(tmp_path / "missing.json"))


def test_gate_refuses_a_current_file_of_another_bench(tmp_path):
    baseline = _trajectory(
        tmp_path / "base.json", {"serial_records_per_s": 1000.0}
    )
    current = _trajectory(
        tmp_path / "cur.json", {"sessions_per_s": 10.0}, bench="serve"
    )
    with pytest.raises(ValueError, match=r"bench 'serve'.*bench 'overlap'"):
        run_gate(baseline, current_path=current, allow_machine_mismatch=True)


def test_gate_refuses_runs_of_different_sizes(tmp_path):
    quick = {
        "n_windows": 6, "window_size": 32, "quick": True,
        "shards=2": {"serial_records_per_s": 1000.0},
    }
    full = {
        "n_windows": 24, "window_size": 64, "quick": False,
        "shards=2": {"serial_records_per_s": 4000.0},
    }
    quick_path = _trajectory(tmp_path / "quick.json", quick)
    full_path = _trajectory(tmp_path / "full.json", full)
    # a full-size run against a quick baseline is no fourfold gain ...
    with pytest.raises(ValueError, match="different sizes") as excinfo:
        run_gate(quick_path, current_path=full_path)
    for field in (
        "n_windows: baseline 6, current 24",
        "quick: baseline True, current False",
        "window_size: baseline 32, current 64",
    ):
        assert field in str(excinfo.value)
    # ... nor a quick run against a full-size baseline a regression
    with pytest.raises(ValueError, match="different sizes"):
        run_gate(full_path, current_path=quick_path)
    # string size fields count too
    serve = _trajectory(
        tmp_path / "serve.json", {"backend": "process", "sessions_per_s": 5.0}
    )
    thread = _trajectory(
        tmp_path / "thread.json", {"backend": "thread", "sessions_per_s": 5.0}
    )
    with pytest.raises(ValueError, match="backend: baseline 'process'"):
        run_gate(serve, current_path=thread)
    # equal sizes compare as before
    assert run_gate(quick_path, current_path=quick_path).compared == 1


def _committed(bench):
    return os.path.join(
        os.path.dirname(__file__), os.pardir, f"BENCH_{bench}.json"
    )


def _size_fields(metrics):
    return {k: v for k, v in metrics.items() if not isinstance(v, dict)}


@pytest.mark.parametrize("bench", ["overlap", "ingest", "serve"])
def test_quick_measurement_matches_the_committed_trajectory(bench):
    latest = load_trajectory(_committed(bench))["entries"][-1]["metrics"]
    measured = measure(bench, quick=True)
    assert set(flatten_metrics(measured.metrics)) == set(flatten_metrics(latest))
    assert _size_fields(measured.metrics) == _size_fields(latest)
    assert measured.table.splitlines()[0].endswith(", quick)")


@pytest.mark.parametrize("bench, compared", [
    ("overlap", 4), ("ingest", 5), ("serve", 2),
])
def test_gate_measures_fresh_and_compares_every_committed_metric(
    bench, compared
):
    # the verdict depends on this host's speed; the comparison must not
    report = run_gate(_committed(bench), allow_machine_mismatch=True)
    assert report.compared == compared
    assert f"fresh quick {bench} run" in report.text


def test_unknown_benches_have_no_quick_measurement(tmp_path):
    with pytest.raises(ValueError, match="unknown bench 'fig2'"):
        measure("fig2")
    baseline = _trajectory(
        tmp_path / "fig2.json", {"rounds_per_s": 1.0}, bench="fig2"
    )
    with pytest.raises(ValueError, match="pass --current"):
        run_gate(baseline)


def test_import_repro_leaves_the_bench_sweeps_unloaded():
    # only the gate and the bench scripts need the sweeps; `import repro`,
    # whose cost the repo benchmark reports as setup_s, must not load them
    src = os.path.dirname(os.path.dirname(repro.__file__))
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import repro; "
        f"assert 'repro.obs.benches' not in sys.modules"
    )
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120)


def test_flatten_metrics_keeps_numeric_leaves_only():
    flat = flatten_metrics(
        {
            "a": {"records_per_s": 10, "note": "text", "deep": {"x": 1.5}},
            "quick": True,  # bools are flags, not measurements
            "n": 3,
        }
    )
    assert flat == {"a.records_per_s": 10.0, "a.deep.x": 1.5, "n": 3.0}


def test_committed_quick_example_expands_cleanly():
    import os

    path = os.path.join(
        os.path.dirname(__file__), os.pardir, "examples",
        "experiment_quick.json",
    )
    config = load_experiment_config(path)
    assert config.name == "quick"
    table = expand_run_table(config)
    assert len(table) == 2 * 2 * 2  # shards x backend x overlap
    assert len({cell.run_id for cell in table}) == 8


# ----------------------------------------------------------------------
# the diff stage
# ----------------------------------------------------------------------
def _fabricate_run(root, run_id, rate, status="ok"):
    """One synthetic persisted cell: spec manifest + result artifact."""
    run_dir = root / run_id
    run_dir.mkdir(parents=True)
    (run_dir / SPEC_FILE).write_text(json.dumps({"run_id": run_id}))
    artifact = {"status": status, "timestamp": "t0"}
    if status == "ok":
        artifact["summary"] = {"records_per_s": rate, "records": 32}
    else:
        artifact["error"] = "injected"
    (run_dir / RESULT_FILE).write_text(json.dumps(artifact))


def test_diff_passes_within_tolerance_and_fails_beyond(tmp_path):
    from repro.obs import run_diff

    a = tmp_path / "a"
    b = tmp_path / "b"
    for root, rates in ((a, (1000.0, 2000.0)), (b, (950.0, 2900.0))):
        _fabricate_run(root, "000-shards=1-r0", rates[0])
        _fabricate_run(root, "001-shards=2-r0", rates[1])
    report = run_diff(str(a), str(b))
    assert report.ok
    assert report.compared == 2
    assert report.regressions == 0
    assert report.improvements == 1  # +45% on the second cell
    assert "diff: PASS" in report.text
    assert "improved" in report.text

    worse = tmp_path / "worse"
    _fabricate_run(worse, "000-shards=1-r0", 100.0)
    _fabricate_run(worse, "001-shards=2-r0", 2000.0)
    report = run_diff(str(a), str(worse))
    assert not report.ok
    assert report.regressions == 1
    assert "diff: FAIL" in report.text
    assert "REGRESSION" in report.text
    assert "-90.0%" in report.text


def test_diff_skips_unmatched_and_errored_cells(tmp_path):
    from repro.obs import run_diff

    a = tmp_path / "a"
    b = tmp_path / "b"
    _fabricate_run(a, "000-shards=1-r0", 1000.0)
    _fabricate_run(a, "001-shards=2-r0", 1000.0)
    _fabricate_run(b, "000-shards=1-r0", 1000.0)
    _fabricate_run(b, "002-shards=4-r0", 1000.0)
    _fabricate_run(a, "003-shards=8-r0", 1000.0)
    _fabricate_run(b, "003-shards=8-r0", 0.0, status="error")
    report = run_diff(str(a), str(b))
    assert report.ok  # nothing comparable regressed
    assert report.compared == 1
    assert "only in A: 001-shards=2-r0" in report.text
    assert "only in B: 002-shards=4-r0" in report.text
    assert "not completed in B: 003-shards=8-r0" in report.text


def test_diff_validates_tolerance_and_directories(tmp_path):
    from repro.obs import run_diff

    with pytest.raises(ValueError, match="tolerance"):
        run_diff(str(tmp_path), str(tmp_path), tolerance=1.5)
    with pytest.raises(ValueError, match="experiment directory"):
        run_diff(str(tmp_path / "nope"), str(tmp_path / "nope"))
