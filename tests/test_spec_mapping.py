"""The session spec is described once, by its own field list.

``SessionSpec.to_mapping`` writes every field's raw value, so it is the
exact inverse of ``from_mapping`` on every path a spec travels: workload
files, replica ``submit`` frames and checkpoints.  A knob that only the
other kind uses is refused by name unless it keeps its default.  Files
whose spec is in the earlier form (effective values, per-kind keys) still
resume, and a process replica resumes from the bytes it is sent without
writing them to a file.  A mapping names its dataset, so an in-memory table
is written down only when that name loads the same table.
"""

import io
import json
import os
import pathlib
from dataclasses import MISSING, fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checkpoint import Checkpointer, SessionEvicted
from repro.cli import _cluster_demo_workload, _demo_workload, build_parser, main
from repro.cluster import ClusterController
from repro.cluster.protocol import read_frame, unwrap_response, write_frame
from repro.cluster.replica import ReplicaServer
from repro.datasets import DATASET_NAMES, Dataset, load_dataset
from repro.datasets.partition import PartitionScheme
from repro.obs import Telemetry
from repro.obs.experiment import expand_run_table, load_experiment_config
from repro.parties.config import CLASSIFIER_NAMES, ClassifierSpec, SAPConfig
from repro.serve import MiningService, SessionSpec, execute_spec
from repro.serve.spec import SESSION_KINDS, _FOREIGN
from repro.sharding import BACKENDS, SHARD_STRATEGIES
from repro.streaming import (
    DETECTOR_KINDS,
    LATE_POLICIES,
    NORMALIZER_KINDS,
    ONLINE_CLASSIFIERS,
    STREAM_KINDS,
    WINDOW_KINDS,
    StreamConfig,
    TrustChange,
    make_stream,
)

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"


def _round_trips(spec):
    mapping = spec.to_mapping()
    assert SessionSpec.from_mapping(mapping) == spec
    assert SessionSpec.from_mapping(json.loads(json.dumps(mapping))) == spec


# ----------------------------------------------------------------------
# to_mapping is the exact inverse of from_mapping
# ----------------------------------------------------------------------
_PARAMS = st.dictionaries(
    st.text("abcdefgh_", min_size=1, max_size=8),
    st.one_of(
        st.integers(-5, 50), st.floats(0.0, 10.0), st.booleans(),
        st.text(max_size=4),
    ),
    max_size=3,
)


def _knobs(kind, classifiers):
    """Strategies for the knobs both kinds use."""
    return {
        "kind": st.just(kind),
        "dataset": st.sampled_from(DATASET_NAMES),
        "tenant": st.sampled_from(["default", "acme", "globex"]),
        "label": st.none() | st.text(max_size=12),
        "seed": st.integers(0, 2**63 - 1),
        "k": st.none() | st.integers(2, 9),
        "noise_sigma": st.floats(0.0, 1.0),
        "classifier": st.none() | st.sampled_from(classifiers),
        "classifier_params": _PARAMS,
        "compute_privacy": st.none() | st.booleans(),
        "shards": st.integers(1, 8),
        "shard_backend": st.sampled_from(BACKENDS),
    }


_BATCH = st.fixed_dictionaries({
    **_knobs("batch", CLASSIFIER_NAMES),
    "scheme": st.sampled_from([scheme.value for scheme in PartitionScheme]),
    "test_fraction": st.floats(0.05, 0.95),
    "optimize_locally": st.booleans(),
    "optimizer_rounds": st.integers(1, 20),
    "optimizer_local_steps": st.integers(1, 20),
    "target_candidates": st.integers(1, 5),
    "round_timeout": st.none() | st.floats(0.5, 100.0),
})

_STREAM = st.fixed_dictionaries({
    **_knobs("stream", ONLINE_CLASSIFIERS),
    "stream": st.sampled_from(STREAM_KINDS),
    "windows": st.integers(1, 50),
    "window_size": st.integers(2, 256),
    "window_kind": st.sampled_from(WINDOW_KINDS),
    "window_step": st.none() | st.integers(1, 64),
    "normalizer": st.sampled_from(NORMALIZER_KINDS),
    "detector": st.sampled_from(DETECTOR_KINDS),
    "detector_params": _PARAMS,
    "readapt_cooldown": st.integers(0, 10),
    "trust_changes": st.lists(
        st.tuples(st.integers(0, 50), st.integers(0, 8), st.floats(0.01, 1.0)),
        max_size=3,
    ),
    "n_records": st.none() | st.integers(1, 10_000),
    "watermark_delay": st.integers(0, 20),
    "late_policy": st.sampled_from(LATE_POLICIES),
    "skew": st.integers(0, 20),
    "shard_plan": st.sampled_from(SHARD_STRATEGIES),
    "overlap": st.none() | st.booleans(),
}).filter(
    # a sliding step may not exceed the window
    lambda knobs: knobs["window_kind"] == "tumbling"
    or (knobs["window_step"] or 0) <= knobs["window_size"]
)


@settings(max_examples=200, deadline=None)
@given(st.one_of(_BATCH, _STREAM))
def test_every_valid_spec_round_trips_exactly(knobs):
    _round_trips(SessionSpec(**knobs))


def _shipped_workload(name):
    """The entries of one workload this repository ships, by name."""
    if name.endswith("demo"):
        args = build_parser().parse_args([name.split()[0]])
        demo = _demo_workload if args.command == "serve" else _cluster_demo_workload
        return demo(args.sessions, args.dataset, args.seed)
    if name == "serve_demo.json":
        with open(EXAMPLES_DIR / name) as stream:
            return json.load(stream)
    cells = expand_run_table(load_experiment_config(str(EXAMPLES_DIR / name)))
    return [dict(cell.spec_mapping) for cell in cells]


@pytest.mark.parametrize(
    "name",
    ["serve demo", "cluster demo", "serve_demo.json", "experiment_quick.json"],
)
def test_shipped_workloads_round_trip_exactly(name):
    entries = _shipped_workload(name)
    assert entries
    for entry in entries:
        _round_trips(SessionSpec.from_mapping(entry))


# ----------------------------------------------------------------------
# a knob the kind does not use is refused by name
# ----------------------------------------------------------------------
#: a valid, non-default value of every knob only one kind uses
_ONE_KIND_VALUES = {
    "window_size": 32, "window_kind": "sliding", "window_step": 16,
    "normalizer": "zscore", "detector": "ks",
    "detector_params": {"threshold": 0.5}, "readapt_cooldown": 3,
    "trust_changes": ((2, 0, 0.5),), "shard_plan": "hash", "overlap": False,
    "watermark_delay": 2, "late_policy": "readmit", "skew": 3,
    "stream": "abrupt", "windows": 4, "n_records": 128,
    "test_fraction": 0.25, "optimize_locally": True, "optimizer_rounds": 3,
    "optimizer_local_steps": 2, "target_candidates": 2, "round_timeout": 9.5,
    "scheme": "class",
}


def test_the_foreign_sets_follow_the_config_tables():
    assert _FOREIGN["batch"] == {
        "window_size", "window_kind", "window_step", "normalizer",
        "detector", "detector_params", "readapt_cooldown", "trust_changes",
        "shard_plan", "overlap", "watermark_delay", "late_policy", "skew",
        "stream", "windows", "n_records",
    }
    assert _FOREIGN["stream"] == {
        "test_fraction", "optimize_locally", "optimizer_rounds",
        "optimizer_local_steps", "target_candidates", "round_timeout",
        "scheme",
    }
    assert set(_ONE_KIND_VALUES) == _FOREIGN["batch"] | _FOREIGN["stream"]


@pytest.mark.parametrize(
    "kind,knob",
    [(kind, knob) for kind in SESSION_KINDS for knob in sorted(_FOREIGN[kind])],
)
def test_a_knob_the_kind_does_not_use_is_refused_by_name(kind, knob):
    value = _ONE_KIND_VALUES[knob]
    with pytest.raises(ValueError, match=f"do not use {knob};"):
        SessionSpec(kind=kind, **{knob: value})
    # The value itself is valid: the kind that uses the knob takes it.
    (other,) = set(SESSION_KINDS) - {kind}
    SessionSpec(kind=other, **{knob: value})


@pytest.mark.parametrize("kind", SESSION_KINDS)
def test_each_kind_accepts_the_other_kinds_defaults(kind):
    defaults = {
        f.name: f.default for f in fields(SessionSpec) if f.name in _FOREIGN[kind]
    }
    assert SessionSpec(kind=kind, **defaults) == SessionSpec(kind=kind)


def _all_non_default(config):
    for f in fields(config):
        default = f.default_factory() if f.default is MISSING else f.default
        assert getattr(config, f.name) != default, f.name
    return config


def test_the_config_lifts_never_trip_the_refusal():
    batch = SessionSpec.from_batch("wine", _all_non_default(SAPConfig(
        k=4, noise_sigma=0.1,
        classifier=ClassifierSpec("linear_svm", {"epochs": 3}),
        test_fraction=0.25, optimize_locally=True, optimizer_rounds=3,
        optimizer_local_steps=2, target_candidates=2, round_timeout=9.5,
        shards=2, shard_backend="thread", seed=11,
    )), scheme="class", compute_privacy=True)
    stream = SessionSpec.from_stream(
        make_stream("iris", kind="gradual", n_records=128, seed=9),
        _all_non_default(StreamConfig(
            k=4, window_size=32, window_kind="sliding", window_step=16,
            noise_sigma=0.1, classifier="linear_svm",
            classifier_params=(("epochs", 2),), normalizer="zscore",
            detector="ks", detector_params=(("threshold", 0.5),),
            readapt_cooldown=3,
            trust_changes=(TrustChange(window=2, party=0, trust=0.5),),
            compute_privacy=False, shards=2, shard_backend="thread",
            shard_plan="hash", overlap=False, watermark_delay=2,
            late_policy="readmit", skew=3, seed=9,
            telemetry=Telemetry.disabled(),
        )),
    )
    for spec in (batch, stream):
        # A dataset object travels by name.
        _round_trips(replace(spec, dataset=spec.dataset_name))


def test_serve_refuses_a_foreign_knob_before_any_service(
    capsys, tmp_path, monkeypatch
):
    def no_service(*args, **kwargs):
        raise AssertionError("a service was built for a refused workload")

    monkeypatch.setattr("repro.cli.MiningService", no_service)
    path = tmp_path / "workload.json"
    path.write_text(json.dumps([{"kind": "stream", "optimize_locally": True}]))
    code = main(["serve", "--workload", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert "optimize_locally" in captured.err


# ----------------------------------------------------------------------
# checkpoints and replica frames carry the spec as written
# ----------------------------------------------------------------------
SPEC = SessionSpec(
    kind="stream", dataset="wine", tenant="acme", label="wine-6x32",
    windows=6, window_size=32, seed=5, trust_changes=((2, 0, 0.5),),
)

#: ``SPEC`` as earlier builds wrote it: effective ``k``, ``classifier``,
#: ``compute_privacy`` and ``n_records``, and only the stream keys
EARLIER_FORM = {
    "kind": "stream", "dataset": "wine", "tenant": "acme", "seed": 5, "k": 3,
    "noise_sigma": 0.05, "classifier": "knn", "compute_privacy": True,
    "shards": 1, "shard_backend": "serial", "shard_plan": "round_robin",
    "label": "wine-6x32", "stream": "stationary", "windows": 6,
    "window_size": 32, "window_kind": "tumbling", "normalizer": "minmax",
    "detector": "meanvar", "readapt_cooldown": 2, "n_records": 192,
    "overlap": None, "watermark_delay": 0, "late_policy": "drop", "skew": 0,
    "trust_changes": [{"window": 2, "party": 0, "trust": 0.5}],
}


def _fingerprint(result):
    return (
        result.deviation_series(),
        result.messages_sent,
        result.bytes_sent,
        result.data_messages_sent,
        result.data_bytes_sent,
        result.records_processed,
    )


def _evicted(directory, spec_mapping):
    """The path of a checkpoint of ``SPEC`` 3 windows in."""
    checkpointer = Checkpointer(
        directory=str(directory), stop_after=3, spec_mapping=spec_mapping
    )
    with pytest.raises(SessionEvicted) as excinfo:
        execute_spec(SPEC, checkpointer=checkpointer)
    return excinfo.value.path


def test_a_checkpoint_with_an_earlier_form_spec_resumes(tmp_path):
    path = _evicted(tmp_path, EARLIER_FORM)
    with MiningService(max_inflight=1) as service:
        result = service.resume(path).result(timeout=120)
    assert _fingerprint(result) == _fingerprint(execute_spec(SPEC))


def _over_the_wire(request):
    buffer = io.BytesIO()
    write_frame(buffer, request)
    buffer.seek(0)
    return read_frame(buffer)


def test_a_replica_admits_the_spec_it_is_sent_and_writes_no_file(
    tmp_path, monkeypatch
):
    with open(_evicted(tmp_path / "evicted", SPEC.to_mapping()), "rb") as stream:
        raw = stream.read()
    directory = tmp_path / "replica"
    directory.mkdir()
    admitted = []
    with MiningService(max_inflight=1, checkpoint_dir=str(directory)) as service:
        submit = service.submit

        def recording(*args, **kwargs):
            admitted.append(submit(*args, **kwargs))
            return admitted[-1]

        monkeypatch.setattr(service, "submit", recording)
        server = ReplicaServer(service)
        for request in (
            {"op": "submit", "spec": SPEC.to_mapping()},
            {"op": "submit", "resume": raw},
        ):
            response, _ = server.handle_request(_over_the_wire(request))
            unwrap_response(response)
        results = [handle.result(timeout=120) for handle in admitted]
    assert [handle.spec for handle in admitted] == [SPEC, SPEC]
    assert _fingerprint(results[0]) == _fingerprint(results[1])
    assert os.listdir(directory) == []


# ----------------------------------------------------------------------
# an in-memory table is written down by name only when its name loads it
# ----------------------------------------------------------------------
def _moved_iris():
    """The registry's iris with its rows reversed and rescaled."""
    iris = load_dataset("iris")
    return Dataset("iris", iris.X[::-1] * 2.0, iris.y[::-1], iris.feature_names)


def _over(dataset):
    return SessionSpec(
        kind="stream", dataset=dataset, windows=4, window_size=32,
        compute_privacy=False,
    )


@pytest.mark.parametrize(
    "table",
    [
        _moved_iris,
        lambda: Dataset("nowhere", load_dataset("iris").X, load_dataset("iris").y),
        lambda: replace(load_dataset("iris"), feature_names=tuple("abcd")),
        lambda: replace(load_dataset("iris"), y=load_dataset("iris").y + 0.0),
    ],
    ids=["other-rows", "unknown-name", "other-features", "other-label-dtype"],
)
def test_a_table_its_name_does_not_load_cannot_be_written_down(table):
    dataset = table()
    with pytest.raises(ValueError, match=repr(dataset.name)):
        _over(dataset).to_mapping()


def _what_it_saw(result):
    """The fingerprint plus the per-window accuracies, which the rows set."""
    return _fingerprint(result), [w.accuracy_perturbed for w in result.windows]


def _counts(stats):
    return (
        stats.submitted, stats.rejected, stats.active, stats.completed,
        stats.failed, tuple(replica.submitted for replica in stats.per_replica),
    )


def test_a_spec_that_cannot_be_written_down_is_refused_before_it_counts(
    tmp_path,
):
    spec = _over(_moved_iris())
    inline = _what_it_saw(execute_spec(spec))
    # The table matters: the registry's iris under the same spec differs.
    assert inline != _what_it_saw(execute_spec(_over("iris")))
    with ClusterController(replicas=1) as cluster:
        hosted = cluster.submit(spec).result(timeout=120)
    assert _what_it_saw(hosted) == inline
    with ClusterController(replicas=1, backend="process") as cluster:
        before = _counts(cluster.stats())
        with pytest.raises(ValueError, match="'iris'"):
            cluster.submit(spec)
        assert _counts(cluster.stats()) == before
    with MiningService(max_inflight=1, checkpoint_dir=str(tmp_path)) as service:
        with pytest.raises(ValueError, match="'iris'"):
            service.submit(spec)
        stats = service.stats()
    assert (stats.submitted, stats.rejected, stats.active) == (0, 0, 0)
    assert os.listdir(tmp_path) == []
