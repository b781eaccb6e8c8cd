"""Tests for the CLI entry point."""

import argparse
import json
import os
import subprocess
import sys
import threading
import time

import pytest

import repro
from repro import SAPConfig
from repro.cli import build_parser, main
from repro.streaming import StreamConfig


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 0
    return captured.out


def test_parser_rejects_unknown_command():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["unknown-command"])


def test_datasets_command(capsys):
    out = run_cli(capsys, "datasets")
    assert "iris" in out and "shuttle" in out


def test_fig2_command(capsys):
    out = run_cli(capsys, "fig2", "--dataset", "iris", "--rounds", "4")
    assert "Figure 2" in out
    assert "optimized perturbations" in out


def test_fig4_command(capsys):
    out = run_cli(capsys, "fig4")
    assert "Figure 4" in out
    assert "shuttle" in out


def test_risk_command(capsys):
    out = run_cli(capsys, "risk", "--runs", "200")
    assert "identifiability" in out
    assert "analytic" in out


def test_session_command(capsys):
    out = run_cli(capsys, "session", "--dataset", "iris", "--k", "3")
    assert "SAP session" in out
    assert "deviation" in out


def test_session_command_with_svm(capsys):
    out = run_cli(
        capsys, "session", "--dataset", "iris", "--k", "3",
        "--classifier", "linear_svm",
    )
    assert "linear_svm" in out


def test_ablation_noise_command(capsys):
    out = run_cli(capsys, "ablation", "--which", "noise", "--dataset", "iris")
    assert "sigma" in out


def test_ablation_optimizer_command(capsys):
    out = run_cli(capsys, "ablation", "--which", "optimizer", "--dataset", "iris")
    assert "hill_climbing" in out


def test_fig3_command_small(capsys):
    out = run_cli(
        capsys, "fig3", "--rounds", "2", "--k-min", "3", "--k-max", "4"
    )
    assert "Figure 3" in out
    assert "diabetes" in out


def test_stream_command(capsys):
    out = run_cli(
        capsys, "stream", "--dataset", "iris", "--windows", "6",
        "--window-size", "32", "--seed", "0",
    )
    assert "Streaming SAP" in out
    assert "re-adaptations" in out
    assert "throughput" in out
    assert "accuracy deviation over time" in out
    assert "initial" in out


def test_stream_command_with_trust_change(capsys):
    out = run_cli(
        capsys, "stream", "--dataset", "iris", "--windows", "6",
        "--window-size", "32", "--trust-change", "3:0:0.5",
    )
    assert "trust" in out


def test_unknown_dataset_exits_cleanly(capsys):
    code = main(["session", "--dataset", "atlantis"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:")
    assert "unknown dataset" in captured.err
    assert "Traceback" not in captured.err


def test_unknown_dataset_in_stream_exits_cleanly(capsys):
    code = main(["stream", "--dataset", "atlantis", "--windows", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert "unknown dataset" in captured.err


def test_malformed_trust_change_exits_cleanly(capsys):
    code = main(["stream", "--dataset", "iris", "--trust-change", "nonsense"])
    captured = capsys.readouterr()
    assert code == 2
    assert "trust-change" in captured.err


def test_stream_command_with_shards(capsys):
    out = run_cli(
        capsys, "stream", "--dataset", "iris", "--windows", "4",
        "--window-size", "32", "--shards", "2", "--shard-backend", "thread",
    )
    assert "shards            : 2" in out
    assert "shard traffic" in out


@pytest.mark.parametrize(
    "flag,value",
    [
        ("--windows", "0"),
        ("--windows", "-3"),
        ("--window-size", "0"),
        ("--window-step", "0"),
        ("--shards", "0"),
        ("--shards", "-1"),
    ],
)
def test_non_positive_stream_budgets_exit_cleanly(capsys, flag, value):
    code = main(["stream", "--dataset", "iris", flag, value])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:")
    assert flag in captured.err
    assert "positive integer" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "flag,value",
    [("--skew", "-1"), ("--skew", "-7"), ("--watermark", "-1")],
)
def test_negative_event_time_flags_exit_cleanly(capsys, flag, value):
    code = main(["stream", "--dataset", "iris", flag, value])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:")
    assert flag in captured.err
    assert "non-negative integer" in captured.err
    assert "Traceback" not in captured.err


def test_unknown_late_policy_exits_with_usage(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["stream", "--dataset", "iris", "--late-policy", "vanish"])
    assert excinfo.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_stream_out_of_order_text_output(capsys):
    out = run_cli(
        capsys, "stream", "--dataset", "iris", "--windows", "4",
        "--window-size", "32", "--skew", "6", "--watermark", "2",
        "--late-policy", "readmit",
    )
    assert "ingestion" in out
    assert "event-time ingestion per provider" in out
    assert "max skew" in out


def test_stream_out_of_order_json_reports_ingest_counters(capsys):
    out = run_cli(
        capsys, "stream", "--dataset", "iris", "--windows", "4",
        "--window-size", "32", "--skew", "6", "--watermark", "2",
        "--late-policy", "readmit", "--json",
    )
    payload = json.loads(out)
    ingest = payload["ingest"]
    assert ingest["records"] == payload["records_processed"]
    assert ingest["max_skew"] > 0
    assert ingest["readmitted"] == ingest["late"]
    assert len(ingest["providers"]) == 3
    assert {"late", "dropped", "readmitted", "upserted", "max_skew"} <= set(
        ingest["providers"][0]
    )


def test_session_json_output(capsys):
    out = run_cli(capsys, "session", "--dataset", "iris", "--k", "3", "--json")
    payload = json.loads(out)
    assert payload["kind"] == "batch"
    assert payload["k"] == 3
    assert "accuracy_perturbed" in payload


def test_stream_json_output(capsys):
    out = run_cli(
        capsys, "stream", "--dataset", "iris", "--windows", "3",
        "--window-size", "32", "--json",
    )
    payload = json.loads(out)
    assert payload["kind"] == "stream"
    assert payload["n_windows"] == 3
    assert len(payload["deviation_series"]) == 3


def test_invalid_session_k_exits_cleanly(capsys):
    code = main(["session", "--dataset", "iris", "--k", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:")
    assert "k >= 2" in captured.err
    assert "Traceback" not in captured.err


def test_serve_demo_workload(capsys):
    out = run_cli(
        capsys, "serve", "--sessions", "4", "--shards", "2",
        "--max-inflight", "2",
    )
    assert "Serving engine" in out
    assert "pool utilization" in out
    assert "tenant acme" in out and "tenant globex" in out
    assert "completed" in out


def test_serve_json_output(capsys):
    out = run_cli(
        capsys, "serve", "--sessions", "2", "--shards", "2", "--json"
    )
    payload = json.loads(out)
    assert len(payload["sessions"]) == 2
    assert all(s["status"] == "completed" for s in payload["sessions"])
    assert payload["service"]["completed"] == 2
    # The default thread engine runs shard tasks on its drivers, so the
    # report counts the default --max-inflight 4, not the --shards.
    assert payload["service"]["pool"]["workers"] == 4


def test_serve_workload_file(capsys, tmp_path):
    workload = {
        "sessions": [
            {"kind": "batch", "dataset": "iris", "k": 3, "tenant": "acme"},
            {
                "kind": "stream", "dataset": "iris", "k": 3, "windows": 2,
                "window_size": 32, "compute_privacy": False,
            },
        ]
    }
    path = tmp_path / "workload.json"
    path.write_text(json.dumps(workload))
    out = run_cli(capsys, "serve", "--workload", str(path), "--json")
    payload = json.loads(out)
    assert [s["status"] for s in payload["sessions"]] == ["completed"] * 2


def test_serve_bad_workload_field_exits_cleanly(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps([{"kind": "batch", "classifierr": "knn"}]))
    code = main(["serve", "--workload", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert "classifierr" in captured.err
    assert "Traceback" not in captured.err


def test_serve_failed_session_exits_1_with_error_text(capsys, tmp_path):
    # "atlantis" passes spec validation (dataset names resolve at run time)
    # but fails inside the engine; the CLI must surface that and exit 1.
    path = tmp_path / "failing.json"
    path.write_text(json.dumps([
        {"kind": "batch", "dataset": "atlantis", "k": 3},
        {"kind": "batch", "dataset": "iris", "k": 3},
    ]))
    code = main(["serve", "--workload", str(path), "--json"])
    captured = capsys.readouterr()
    assert code == 1
    payload = json.loads(captured.out)
    statuses = [s["status"] for s in payload["sessions"]]
    assert statuses == ["failed", "completed"]
    assert "atlantis" in payload["sessions"][0]["error"]
    assert payload["sessions"][1]["error"] is None

    code = main(["serve", "--workload", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert "failed" in captured.out
    assert "atlantis" in captured.out


def test_serve_missing_workload_file_exits_cleanly(capsys):
    code = main(["serve", "--workload", "/nonexistent/workload.json"])
    captured = capsys.readouterr()
    assert code == 2
    assert "workload" in captured.err


def test_serve_non_positive_budgets_exit_cleanly(capsys):
    for flag in ("--sessions", "--max-inflight", "--shards"):
        code = main(["serve", flag, "0"])
        captured = capsys.readouterr()
        assert code == 2
        assert flag in captured.err


def test_unknown_subcommand_exits_with_usage(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["not-a-command"])
    assert excinfo.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def _spans_file(tmp_path, name="spans.jsonl", rounds=2):
    path = tmp_path / name
    lines = []
    for round_id in range(rounds):
        lines.append(json.dumps({
            "name": "control", "span_id": round_id, "parent_id": None,
            "start": 0.0, "duration": 0.01, "attrs": {"round": round_id},
        }))
    path.write_text("\n".join(lines) + "\n")
    return path


def test_report_command_single_file(capsys, tmp_path):
    path = _spans_file(tmp_path)
    out = run_cli(capsys, "report", str(path))
    assert "Span latency report" in out
    assert str(path) in out
    assert "per-stage latency (ms)" in out


def test_report_command_merges_multiple_sources(capsys, tmp_path):
    one = _spans_file(tmp_path, "one.jsonl")
    nested = tmp_path / "runs" / "000-a"
    nested.mkdir(parents=True)
    _spans_file(nested, "spans.jsonl")
    out = run_cli(capsys, "report", str(one), str(tmp_path / "runs"))
    assert "2 span files merged" in out
    assert "(4 spans)" in out


def test_report_command_empty_directory_exits_cleanly(capsys, tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    code = main(["report", str(empty)])
    captured = capsys.readouterr()
    assert code == 2
    assert "no *.jsonl span files" in captured.err


def _experiment_config(tmp_path):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({
        "name": "clitest",
        "base": {
            "kind": "stream", "dataset": "wine", "k": 3, "windows": 1,
            "window_size": 32, "compute_privacy": False, "seed": 0,
        },
        "factors": {"shards": [1, 2]},
    }))
    return path


def test_experiment_run_report_and_resume(capsys, tmp_path):
    config = _experiment_config(tmp_path)
    results = str(tmp_path / "results")
    out = run_cli(
        capsys, "experiment", "run", str(config),
        "--results", results, "--timestamp", "t0",
    )
    assert "Experiment run - clitest" in out
    assert "2 cells: 2 executed, 0 resumed, 0 failed" in out
    assert "000-shards=1-r0" in out and "rec/s" in out
    # a second run resumes every cell
    out = run_cli(capsys, "experiment", "run", str(config), "--results", results)
    assert "0 executed, 2 resumed" in out
    # the report stage joins the persisted artifacts
    report_out = run_cli(
        capsys, "experiment", "report", str(tmp_path / "results" / "clitest")
    )
    assert "# Experiment report — clitest" in report_out
    assert "## Throughput by factor" in report_out
    # --html --out writes a standalone page
    html_path = tmp_path / "report.html"
    run_cli(
        capsys, "experiment", "report",
        str(tmp_path / "results" / "clitest"),
        "--html", "--out", str(html_path),
    )
    assert html_path.read_text().startswith("<!DOCTYPE html>")
    # the merged multi-file span report reads the same directory
    out = run_cli(capsys, "report", str(tmp_path / "results" / "clitest"))
    assert "span files merged" in out


def test_experiment_run_bad_config_exits_cleanly(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"name": "x", "factors": {"shards": [1]}, "oops": 1}))
    code = main(["experiment", "run", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:")
    assert "oops" in captured.err
    code = main(["experiment", "run", str(tmp_path / "missing.json")])
    captured = capsys.readouterr()
    assert code == 2
    assert "cannot read" in captured.err


def test_experiment_gate_pass_and_fail(capsys, tmp_path):
    from repro.obs.experiment import machine_fingerprint

    def trajectory(path, rate, bench="overlap"):
        path.write_text(json.dumps({
            "bench": bench,
            "entries": [{
                "timestamp": "t0",
                "machine": machine_fingerprint(),
                "metrics": {"shards=2": {"serial_records_per_s": rate}},
            }],
        }))
        return str(path)

    baseline = trajectory(tmp_path / "base.json", 1000.0)
    good = trajectory(tmp_path / "good.json", 950.0)
    bad = trajectory(tmp_path / "bad.json", 500.0)

    out = run_cli(
        capsys, "experiment", "gate", "--baseline", baseline, "--current", good
    )
    assert "gate: PASS" in out
    code = main(
        ["experiment", "gate", "--baseline", baseline, "--current", bad]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert "gate: FAIL" in captured.out
    assert "REGRESSION" in captured.out
    # tolerance is a percentage on the CLI
    code = main([
        "experiment", "gate", "--baseline", baseline, "--current", good,
        "--tolerance", "2",
    ])
    captured = capsys.readouterr()
    assert code == 1 and "FAIL" in captured.out
    code = main([
        "experiment", "gate", "--baseline", baseline, "--current", good,
        "--tolerance", "150",
    ])
    captured = capsys.readouterr()
    assert code == 2
    assert "--tolerance" in captured.err
    # a --current file of another bench is a usage error, never a pass
    serve = trajectory(tmp_path / "serve.json", 950.0, bench="serve")
    code = main([
        "experiment", "gate", "--baseline", baseline, "--current", serve,
        "--allow-machine-mismatch",
    ])
    captured = capsys.readouterr()
    assert code == 2
    assert "'serve'" in captured.err and "'overlap'" in captured.err


# ----------------------------------------------------------------------
# cluster command
# ----------------------------------------------------------------------
def test_cluster_demo_workload(capsys):
    out = run_cli(
        capsys, "cluster", "--sessions", "4", "--replicas", "2",
        "--dataset", "wine", "--seed", "1",
    )
    assert "Cluster - 4 sessions over 2 inprocess replicas" in out
    assert "hash placement" in out
    assert "replica 0" in out and "replica 1" in out
    assert "tenant acme" in out and "tenant globex" in out


def test_cluster_json_matches_single_engine_serve(capsys, tmp_path):
    workload = [
        {
            "kind": "stream", "dataset": "wine", "tenant": "acme",
            "k": 3, "windows": 6, "window_size": 32,
            "compute_privacy": False, "seed": i,
        }
        for i in range(3)
    ]
    path = tmp_path / "workload.json"
    path.write_text(json.dumps(workload))
    serve_out = run_cli(
        capsys, "serve", "--workload", str(path), "--json"
    )
    cluster_out = run_cli(
        capsys, "cluster", "--workload", str(path), "--replicas", "2",
        "--migrate-every", "1", "--checkpoint-dir", str(tmp_path / "ck"),
        "--json",
    )
    single = json.loads(serve_out)["sessions"]
    clustered = json.loads(cluster_out)["sessions"]
    assert len(single) == len(clustered) == 3
    for a, b in zip(single, clustered):
        assert a["label"] == b["label"]
        for key in (
            "deviation_series", "messages_sent", "bytes_sent",
            "data_messages_sent", "data_bytes_sent",
        ):
            assert a["result"][key] == b["result"][key]
    payload = json.loads(cluster_out)
    assert payload["cluster"]["replicas"] == 2
    assert payload["cluster"]["completed"] == 3
    assert payload["cluster"]["migrations"] == len(payload["migrations"])


def test_cluster_placement_and_budget_flags_validated(capsys):
    code = main(["cluster", "--replicas", "0"])
    captured = capsys.readouterr()
    assert code == 2 and "--replicas" in captured.err
    code = main(["cluster", "--migrate-every", "-1"])
    captured = capsys.readouterr()
    assert code == 2 and "--migrate-every" in captured.err
    with pytest.raises(SystemExit):
        build_parser().parse_args(["cluster", "--placement", "nope"])


# ----------------------------------------------------------------------
# checkpoint directory inspection + retention
# ----------------------------------------------------------------------
def _checkpoint_dir(capsys, tmp_path, retain=None):
    directory = tmp_path / "ckpts"
    argv = [
        "stream", "--dataset", "wine", "--windows", "8",
        "--window-size", "32", "--checkpoint-dir", str(directory),
        "--checkpoint-every", "2",
    ]
    if retain is not None:
        argv += ["--checkpoint-retain", str(retain)]
    run_cli(capsys, *argv)
    return directory


def test_stream_checkpoint_retain_prunes_old_files(capsys, tmp_path):
    directory = _checkpoint_dir(capsys, tmp_path, retain=2)
    files = sorted(p.name for p in directory.glob("*.ckpt"))
    assert len(files) == 2
    assert files[-1].endswith("-w00006.ckpt")


def test_stream_checkpoint_retain_needs_dir(capsys):
    code = main(["stream", "--checkpoint-retain", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert "--checkpoint-dir" in captured.err


def test_checkpoint_inspect_directory_lists_and_prunes(capsys, tmp_path):
    directory = _checkpoint_dir(capsys, tmp_path)
    before = len(list(directory.glob("*.ckpt")))
    assert before >= 3
    out = run_cli(capsys, "checkpoint", "inspect", str(directory))
    assert f"({before} files)" in out
    assert "fingerprint" in out
    pruned = run_cli(
        capsys, "checkpoint", "inspect", str(directory), "--retain", "1",
        "--json",
    )
    payload = json.loads(pruned)
    assert len(payload["checkpoints"]) == 1
    assert len(payload["pruned"]) == before - 1
    assert len(list(directory.glob("*.ckpt"))) == 1


def test_checkpoint_inspect_retain_on_file_exits_cleanly(capsys, tmp_path):
    directory = _checkpoint_dir(capsys, tmp_path)
    target = next(directory.glob("*.ckpt"))
    code = main(["checkpoint", "inspect", str(target), "--retain", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert "directory" in captured.err


def test_checkpoint_inspect_empty_directory(capsys, tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    out = run_cli(capsys, "checkpoint", "inspect", str(empty))
    assert "no checkpoint files" in out


@pytest.mark.parametrize(
    "command, payload, part",
    [
        (
            ["checkpoint", "inspect"],
            {"state": {}, "config": [1], "source": {}, "progress": {}},
            "config is a list",
        ),
        (["checkpoint", "inspect"], {"state": {}}, "no progress"),
        (["stream", "--resume-from"], {"state": {}}, "no source"),
        (
            ["stream", "--resume-from"],
            {"state": {}, "config": SAPConfig(), "source": {}, "progress": {}},
            "not a StreamConfig",
        ),
        (
            ["stream", "--resume-from"],
            {
                "state": {},
                "config": StreamConfig(),
                "source": {
                    "kind": "abrupt", "n_records": 64, "seed": 0,
                    "drift_at": 0.5, "magnitude": 1.5, "transition": 0.2,
                    "rate": 1000.0, "burst_factor": 8.0, "dimension": 13,
                },
                "progress": {},
            },
            "source lacks name",
        ),
    ],
    ids=[
        "inspect-config-list", "inspect-bare", "resume-bare", "resume-batch",
        "resume-source-without-name",
    ],
)
def test_digest_valid_checkpoint_with_a_bad_part_exits_cleanly(
    capsys, tmp_path, command, payload, part
):
    from repro.checkpoint import save_checkpoint

    path = str(tmp_path / "damaged.ckpt")
    save_checkpoint(path, payload)
    code = main(command + [path])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: checkpoint ") and err.count("\n") == 1
    assert part in err


def test_stream_resume_refuses_a_schema_2_checkpoint(capsys, tmp_path):
    import struct

    from repro.checkpoint import save_checkpoint

    path = tmp_path / "schema2.ckpt"
    save_checkpoint(str(path), {"state": {}})
    raw = bytearray(path.read_bytes())
    raw[4:6] = struct.pack(">H", 2)
    path.write_bytes(bytes(raw))
    code = main(["stream", "--resume-from", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: checkpoint ") and err.count("\n") == 1
    assert "schema version 2" in err


# ----------------------------------------------------------------------
# serve: durable sessions + park-on-interrupt resume hints
# ----------------------------------------------------------------------
def test_serve_checkpoint_every_needs_dir(capsys):
    code = main(["serve", "--checkpoint-every", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert "--checkpoint-dir" in captured.err


def test_serve_interrupt_parks_sessions_with_resume_hints(
    capsys, tmp_path, monkeypatch
):
    from repro.serve import MiningService

    workload = [
        {
            "kind": "stream", "dataset": "wine", "tenant": "acme",
            "k": 3, "windows": 40, "window_size": 32,
            "compute_privacy": False, "seed": 0,
        }
    ]
    path = tmp_path / "workload.json"
    path.write_text(json.dumps(workload))

    real_drain = MiningService.drain

    def interrupted_drain(self, *args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(MiningService, "drain", interrupted_drain)
    code = main([
        "serve", "--workload", str(path),
        "--checkpoint-dir", str(tmp_path / "ck"), "--checkpoint-every", "2",
    ])
    captured = capsys.readouterr()
    monkeypatch.setattr(MiningService, "drain", real_drain)
    assert code == 130
    assert "interrupted" in captured.err
    assert "parked live sessions:" in captured.err
    assert "repro stream --resume-from" in captured.err
    # The hinted checkpoint file exists and resumes to completion.
    parked = [
        line.split("--resume-from", 1)[1].strip()
        for line in captured.err.splitlines()
        if "--resume-from" in line
    ]
    assert len(parked) == 1
    out = run_cli(capsys, "stream", "--resume-from", parked[0], "--json")
    assert json.loads(out)["records_processed"] == 40 * 32


# ----------------------------------------------------------------------
# experiment diff
# ----------------------------------------------------------------------
def test_experiment_diff_pass_and_fail(capsys, tmp_path):
    config = _experiment_config(tmp_path)
    dir_a = str(tmp_path / "a")
    dir_b = str(tmp_path / "b")
    run_cli(capsys, "experiment", "run", str(config), "--results", dir_a,
            "--timestamp", "t0")
    run_cli(capsys, "experiment", "run", str(config), "--results", dir_b,
            "--timestamp", "t1")
    out = run_cli(
        capsys, "experiment", "diff", f"{dir_a}/clitest", f"{dir_b}/clitest",
        "--tolerance", "99",
    )
    assert "diff: PASS" in out
    assert "records_per_s" in out
    # an absurd negative-tolerance percentage is a usage error
    code = main([
        "experiment", "diff", f"{dir_a}/clitest", f"{dir_b}/clitest",
        "--tolerance", "150",
    ])
    captured = capsys.readouterr()
    assert code == 2 and "--tolerance" in captured.err
    # a missing directory is a friendly error, not a traceback
    code = main(["experiment", "diff", f"{dir_a}/clitest", str(tmp_path / "nope")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:")


# ----------------------------------------------------------------------
# serve + cluster: the shared driver's contract
# ----------------------------------------------------------------------
@pytest.mark.parametrize("command", ["serve", "cluster"])
def test_malformed_workload_entry_exits_2_with_one_error_line(
    capsys, tmp_path, command
):
    path = tmp_path / "workload.json"
    path.write_text(json.dumps([5]))
    code = main([command, "--workload", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def test_oversized_sliding_step_exits_2_before_any_service(
    capsys, tmp_path, monkeypatch
):
    def no_service(*args, **kwargs):
        raise AssertionError("a service was built for a refused workload")

    monkeypatch.setattr("repro.cli.MiningService", no_service)
    path = tmp_path / "workload.json"
    path.write_text(json.dumps([{
        "kind": "stream", "window_kind": "sliding", "window_size": 4,
        "window_step": 9,
    }]))
    code = main(["serve", "--workload", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert "sliding step" in captured.err


def _interrupt_workload(tmp_path):
    path = tmp_path / "workload.json"
    path.write_text(json.dumps([
        {
            "kind": "stream", "dataset": "wine", "tenant": "acme", "k": 3,
            "windows": 40, "window_size": 32, "compute_privacy": False,
            "seed": seed,
        }
        for seed in range(4)
    ]))
    return path


@pytest.mark.parametrize("durable", [True, False])
@pytest.mark.parametrize("command", ["serve", "cluster"])
def test_interrupt_parks_with_a_directory_and_cancels_without(
    capsys, tmp_path, monkeypatch, command, durable
):
    from repro.cluster import ClusterController
    from repro.serve import MiningService, engine

    calls = {"started": 0, "finished": 0}
    lock = threading.Lock()
    real_execute = engine.execute_spec

    def counting_execute(*args, **kwargs):
        with lock:
            calls["started"] += 1
        try:
            return real_execute(*args, **kwargs)
        finally:
            with lock:
                calls["finished"] += 1

    def interrupted(self, *args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(engine, "execute_spec", counting_execute)
    monkeypatch.setattr(MiningService, "drain", interrupted)
    monkeypatch.setattr(ClusterController, "wait_all", interrupted)
    argv = [
        command, "--workload", str(_interrupt_workload(tmp_path)),
        "--max-inflight", "1", "--shard-backend", "serial",
    ]
    if durable:
        argv += ["--checkpoint-dir", str(tmp_path / "ck"), "--checkpoint-every", "2"]
    code = main(argv)
    captured = capsys.readouterr()
    # Sessions left running finish on their own driver threads.
    deadline = time.monotonic() + 60
    while calls["finished"] < calls["started"] and time.monotonic() < deadline:
        time.sleep(0.05)
    assert calls["finished"] == calls["started"]
    assert code == 130
    assert "interrupted" in captured.err
    if durable:
        assert "parked live sessions:" in captured.err
        assert "resume with: repro stream --resume-from" in captured.err
    else:
        assert "parked" not in captured.err
        assert calls["started"] < 4


_STATS_TENANT = [
    "submitted", "rejected", "completed", "failed", "cancelled", "evicted",
    "privacy_sessions", "records", "messages", "bytes", "busy_seconds",
    "sessions_per_second",
]
_STATS_POOL = [
    "backend", "workers", "tasks", "batches", "busy_seconds", "utilization",
]
_SERVICE_STATS = [
    "elapsed_seconds", "submitted", "rejected", "completed", "failed",
    "cancelled", "evicted", "active", "sessions_per_second", "records",
    "messages", "bytes", ("tenants", _STATS_TENANT), ("pool", _STATS_POOL),
]
_CLUSTER_STATS = [
    "elapsed_seconds", "replicas", "placement", "backend",
    "healthy_replicas", "submitted", "rejected", "migrations", "recoveries",
    "rebalances", "parked", "completed", "failed", "cancelled", "evicted",
    "active", "sessions_per_second", "records", "messages", "bytes",
    ("tenants", [
        "submitted", "rejected", "completed", "evicted", "privacy_sessions",
        "records", "messages", "bytes",
    ]),
    ("per_replica", _SERVICE_STATS),
]


def _key_tree(value, tenants):
    """Nested key lists of a JSON value; tenant-keyed maps collapse to
    their first tenant's keys, lists to their first item's."""
    if isinstance(value, list):
        return _key_tree(value[0], tenants) if value else []
    if not isinstance(value, dict):
        return None
    if value and set(value) <= tenants:
        return _key_tree(next(iter(value.values())), tenants)
    return [
        key if _key_tree(item, tenants) is None else (key, _key_tree(item, tenants))
        for key, item in value.items()
    ]


@pytest.mark.parametrize(
    "argv,top,row,stats_key,stats",
    [
        (
            ["serve"],
            ["sessions", "rejections", "service"],
            ["id", "label", "status", "queue_seconds", "wall_seconds",
             "error", "result"],
            "service",
            _SERVICE_STATS,
        ),
        (
            ["cluster", "--replicas", "2"],
            ["sessions", "rejections", "migrations", "chaos_killed", "cluster"],
            ["id", "label", "status", "replica", "migrations", "error",
             "result"],
            "cluster",
            _CLUSTER_STATS,
        ),
    ],
)
def test_json_key_tree_is_pinned(capsys, tmp_path, argv, top, row, stats_key, stats):
    path = tmp_path / "workload.json"
    path.write_text(json.dumps([
        {"kind": "batch", "dataset": "iris", "k": 3, "tenant": "acme"},
        {"kind": "stream", "dataset": "wine", "k": 3, "windows": 4,
         "window_size": 32, "compute_privacy": False, "tenant": "globex"},
    ]))
    payload = json.loads(
        run_cli(capsys, *argv, "--workload", str(path), "--json")
    )
    assert list(payload) == top
    assert all(list(session) == row for session in payload["sessions"])
    assert _key_tree(payload[stats_key], {"acme", "globex"}) == stats


@pytest.mark.parametrize(
    "flags", [["--checkpoint-every", "2"], ["--checkpoint-retain", "2"]]
)
def test_cluster_checkpoint_flags_need_a_directory(capsys, monkeypatch, flags):
    import repro.cli

    def no_cluster(*args, **kwargs):
        raise AssertionError("a cluster was built")

    monkeypatch.setattr(repro.cli, "ClusterController", no_cluster)
    code = main(["cluster", *flags])
    captured = capsys.readouterr()
    assert code == 2
    assert "--checkpoint-dir" in captured.err


def test_cluster_migration_scratch_directory_takes_checkpoint_every(capsys):
    out = run_cli(
        capsys, "cluster", "--sessions", "2", "--migrate-every", "1",
        "--checkpoint-every", "2", "--json",
    )
    assert json.loads(out)["cluster"]["completed"] == 2


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1"])
@pytest.mark.parametrize("flag", ["--poll-interval", "--heartbeat-interval"])
def test_cluster_wait_intervals_refused_before_any_spawn(
    capsys, monkeypatch, flag, value
):
    from repro.cluster import transport

    def no_spawn(*args, **kwargs):
        raise AssertionError("a replica was spawned")

    monkeypatch.setattr(transport.subprocess, "Popen", no_spawn)
    code = main(["cluster", "--backend", "process", f"{flag}={value}"])
    captured = capsys.readouterr()
    assert code == 2
    assert flag in captured.err


_LOGGING = {"-v/--verbose": (0, None, None), "-q/--quiet": (False, None, None)}
_BACKENDS = ("serial", "thread", "process")
_OPTIONS = {
    "stream": {
        "--dataset": ("wine", None, None),
        "--drift": ("stationary", ("stationary", "abrupt", "gradual", "bursty"), None),
        "--windows": (20, None, int),
        "--window-size": (64, None, int),
        "--window-kind": ("tumbling", ("tumbling", "sliding"), None),
        "--window-step": (None, None, int),
        "--k": (3, None, int),
        "--classifier": ("knn", ("knn", "linear_svm"), None),
        "--noise": (0.05, None, float),
        "--detector": ("meanvar", ("meanvar", "ks"), None),
        "--shards": (1, None, int),
        "--shard-backend": ("serial", _BACKENDS, None),
        "--shard-plan": ("round_robin", ("round_robin", "hash", "party"), None),
        "--overlap/--no-overlap": (None, None, None),
        "--trust-change": ([], None, None),
        "--skew": (0, None, int),
        "--watermark": (0, None, int),
        "--late-policy": ("drop", ("drop", "readmit", "upsert"), None),
        "--seed": (0, None, int),
        "--checkpoint-dir": (None, None, None),
        "--checkpoint-every": (None, None, int),
        "--checkpoint-retain": (None, None, int),
        "--stop-after": (None, None, int),
        "--resume-from": (None, None, None),
        "--json": (False, None, None),
        "--trace-out": (None, None, None),
        "--metrics-out": (None, None, None),
        **_LOGGING,
    },
    "serve": {
        "--workload": (None, None, None),
        "--sessions": (8, None, int),
        "--dataset": ("iris", None, None),
        "--max-inflight": (4, None, int),
        "--queue-limit": (None, None, int),
        "--shards": (2, None, int),
        "--shard-backend": ("thread", _BACKENDS, None),
        "--checkpoint-dir": (None, None, None),
        "--checkpoint-every": (None, None, int),
        "--seed": (0, None, int),
        "--json": (False, None, None),
        "--metrics-out": (None, None, None),
        **_LOGGING,
    },
    "cluster": {
        "--workload": (None, None, None),
        "--sessions": (6, None, int),
        "--dataset": ("iris", None, None),
        "--replicas": (2, None, int),
        "--backend": ("inprocess", ("inprocess", "process"), None),
        "--heartbeat-interval": (0.2, None, float),
        "--placement": ("hash", ("hash", "least_loaded", "tenant"), None),
        "--serve": (False, None, None),
        "--poll-interval": (0.5, None, float),
        "--serve-idle-exit": (0, None, int),
        "--chaos-kill": (0, None, int),
        "--migrate-every": (0, None, int),
        "--max-inflight": (2, None, int),
        "--queue-limit": (None, None, int),
        "--shards": (2, None, int),
        "--shard-backend": ("thread", _BACKENDS, None),
        "--checkpoint-dir": (None, None, None),
        "--checkpoint-every": (None, None, int),
        "--checkpoint-retain": (None, None, int),
        "--seed": (0, None, int),
        "--json": (False, None, None),
        "--metrics-out": (None, None, None),
        **_LOGGING,
    },
}


@pytest.mark.parametrize("command", sorted(_OPTIONS))
def test_serving_commands_keep_their_options(command):
    commands = next(
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    options = {
        "/".join(action.option_strings): (
            action.default,
            None if action.choices is None else tuple(action.choices),
            action.type,
        )
        for action in commands.choices[command]._actions
        if not isinstance(action, argparse._HelpAction)
    }
    assert options == _OPTIONS[command]


def test_a_closed_stdout_ends_the_output_quietly():
    # The pipe's read end is closed before the command starts, so its
    # first write meets a broken pipe, as a ``| head -1`` reader that is
    # already gone would make it.
    read, write = os.pipe()
    os.close(read)
    src = os.path.dirname(os.path.dirname(repro.__file__))
    try:
        done = subprocess.run(
            [sys.executable, "-m", "repro", "datasets"],
            stdout=write, stderr=subprocess.PIPE, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=src),
        )
    finally:
        os.close(write)
    assert done.stderr == ""
    assert done.returncode == 0
