"""SessionSpec: construction-time validation, conversions, JSON round trip."""

from dataclasses import MISSING, fields

import pytest

from repro.obs import Telemetry
from repro.parties.config import SAPConfig, ClassifierSpec
from repro.serve import SessionSpec, execute_spec
from repro.streaming import StreamConfig, TrustChange, make_stream


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "overrides,needle",
    [
        ({"kind": "nope"}, "session kind"),
        ({"tenant": ""}, "tenant"),
        ({"k": 1}, "k must be"),
        ({"k": -3}, "k must be"),
        ({"noise_sigma": -0.1}, "noise_sigma"),
        ({"scheme": "zigzag"}, "partition scheme"),
        ({"stream": "tsunami"}, "stream kind"),
        ({"windows": 0}, "windows"),
        ({"window_size": 1}, "window_size"),
        ({"window_kind": "hopping"}, "window kind"),
        ({"window_step": 0}, "window_step"),
        ({"normalizer": "robust"}, "normalizer"),
        ({"detector": "page-hinkley"}, "drift detector"),
        ({"n_records": 0}, "n_records"),
        ({"shards": 0}, "shards"),
        ({"shard_backend": "gpu"}, "shard backend"),
        ({"shard_plan": "random"}, "shard plan"),
        ({"kind": "batch", "classifier": "resnet"}, "batch classifier"),
        ({"kind": "stream", "classifier": "svm_rbf"}, "stream classifier"),
        ({"watermark_delay": -1}, "watermark_delay"),
        ({"late_policy": "vanish"}, "late policy"),
        ({"skew": -1}, "skew"),
        ({"test_fraction": 1.5}, "test_fraction"),
        ({"optimizer_rounds": 0}, "optimizer_rounds"),
        ({"optimizer_local_steps": -1}, "optimizer_local_steps"),
        ({"target_candidates": 0}, "target_candidates"),
        ({"round_timeout": 0.0}, "round_timeout"),
        ({"readapt_cooldown": -1}, "readapt_cooldown"),
        ({"dataset": 5}, "dataset"),
        ({"seed": "x"}, "seed"),
        ({"seed": 1.5}, "seed"),
        ({"noise_sigma": "a"}, "noise_sigma"),
        ({"test_fraction": "x"}, "test_fraction"),
        ({"round_timeout": "x"}, "round_timeout"),
        ({"trust_changes": [5]}, "trust_changes"),
        ({"classifier_params": 5}, "classifier_params"),
        ({"detector_params": 5}, "detector_params"),
        ({"trust_changes": [{"window": 2.5, "party": 0, "trust": 0.5}]},
         "trust_changes"),
        ({"trust_changes": [{"window": 2, "party": 0.5, "trust": 0.5}]},
         "trust_changes"),
        ({"trust_changes": [(2.5, 0.7, 0.5)]}, "trust_changes"),
        ({"trust_changes": [{"window": True, "party": 0, "trust": 0.5}]},
         "trust_changes"),
        ({"trust_changes": [{"window": 2, "party": -1, "trust": 0.5}]},
         "trust_changes"),
        ({"kind": "stream", "window_kind": "sliding", "window_size": 4,
          "window_step": 9}, "sliding step"),
        ({"classifier_params": [[["n_neighbors"], 3]]}, "classifier_params"),
        ({"kind": "stream", "dataset": "iris", "compute_privacy": "false"},
         "compute_privacy"),
    ],
)
def test_bad_field_raises_friendly_valueerror(overrides, needle):
    with pytest.raises(ValueError) as excinfo:
        SessionSpec(**overrides)
    assert needle in str(excinfo.value)


def test_stream_classifier_names_differ_from_batch():
    # svm_rbf is batch-only, knn is valid in both worlds.
    SessionSpec(kind="batch", classifier="svm_rbf")
    SessionSpec(kind="stream", classifier="linear_svm")
    SessionSpec(kind="stream", classifier="knn")


def test_defaults_depend_on_kind():
    batch = SessionSpec(kind="batch")
    stream = SessionSpec(kind="stream")
    assert batch.effective_k == 5
    assert stream.effective_k == 3
    assert batch.effective_classifier == "knn"
    assert stream.effective_records == stream.windows * stream.window_size
    # compute_privacy mirrors each kind's legacy default.
    assert batch.effective_privacy is False
    assert stream.effective_privacy is True
    assert stream.to_stream_config().compute_privacy is True
    assert SessionSpec(kind="stream", compute_privacy=False).effective_privacy is False


# ----------------------------------------------------------------------
# tenant seed namespacing
# ----------------------------------------------------------------------
def test_default_tenant_keeps_raw_seed():
    assert SessionSpec(seed=42).resolved_seed() == 42


def test_tenants_get_independent_deterministic_seeds():
    a = SessionSpec(seed=42, tenant="acme")
    b = SessionSpec(seed=42, tenant="globex")
    assert a.resolved_seed() != 42
    assert a.resolved_seed() != b.resolved_seed()
    assert a.resolved_seed() == SessionSpec(seed=42, tenant="acme").resolved_seed()
    # Different seeds stay different inside one tenant's namespace.
    assert a.resolved_seed() != SessionSpec(seed=43, tenant="acme").resolved_seed()


def test_for_tenant_renamespaces():
    spec = SessionSpec(seed=5)
    assert spec.for_tenant("acme").resolved_seed() != spec.resolved_seed()
    assert spec.for_tenant("acme").dataset == spec.dataset


# ----------------------------------------------------------------------
# conversions to the execution configs
# ----------------------------------------------------------------------
def test_to_sap_config_round_trips_the_legacy_config():
    config = SAPConfig(
        k=4,
        noise_sigma=0.1,
        classifier=ClassifierSpec("linear_svm", {"epochs": 3}),
        seed=11,
        shards=2,
        shard_backend="thread",
    )
    spec = SessionSpec.from_batch("wine", config, scheme="class")
    assert spec.to_sap_config() == config
    assert spec.scheme == "class"


def test_to_stream_config_round_trips_the_legacy_config():
    config = StreamConfig(
        k=3,
        window_size=32,
        classifier="linear_svm",
        normalizer="zscore",
        detector="ks",
        trust_changes=(TrustChange(window=2, party=0, trust=0.5),),
        seed=9,
    )
    source = make_stream("iris", kind="gradual", n_records=128, seed=9)
    spec = SessionSpec.from_stream(source, config)
    assert spec.to_stream_config() == config
    assert spec.stream == "gradual"
    assert spec.effective_records == 128


def test_event_time_knobs_round_trip_to_stream_config():
    config = StreamConfig(
        k=3,
        window_size=32,
        watermark_delay=4,
        late_policy="readmit",
        skew=6,
        seed=2,
    )
    source = make_stream("iris", n_records=128, seed=2)
    spec = SessionSpec.from_stream(source, config)
    assert spec.watermark_delay == 4
    assert spec.late_policy == "readmit"
    assert spec.skew == 6
    assert spec.to_stream_config() == config
    # ...and through the JSON workload representation too.
    again = SessionSpec.from_mapping(spec.to_mapping())
    assert again.to_stream_config() == config
    mapping = spec.to_mapping()
    assert mapping["watermark_delay"] == 4
    assert mapping["late_policy"] == "readmit"
    assert mapping["skew"] == 6


def test_overlap_round_trips_through_spec_and_mapping():
    for overlap in (True, False, None):
        config = StreamConfig(k=3, window_size=32, overlap=overlap, seed=2)
        source = make_stream("iris", n_records=128, seed=2)
        spec = SessionSpec.from_stream(source, config)
        assert spec.overlap is overlap
        assert spec.to_stream_config() == config
        # ...and through the JSON workload representation too.
        mapping = spec.to_mapping()
        assert mapping["overlap"] is overlap
        again = SessionSpec.from_mapping(mapping)
        assert again.overlap is overlap
        assert again.to_stream_config() == config


def test_overlap_rejects_non_bool():
    with pytest.raises(ValueError, match="overlap"):
        SessionSpec(kind="stream", overlap="yes")


def test_wrong_kind_conversion_raises():
    with pytest.raises(ValueError, match="not a stream session"):
        SessionSpec(kind="batch").to_stream_config()
    with pytest.raises(ValueError, match="not a batch session"):
        SessionSpec(kind="stream").to_sap_config()
    with pytest.raises(ValueError, match="not a stream session"):
        SessionSpec(kind="batch").make_source()


def test_trust_changes_accept_mappings_and_triples():
    spec = SessionSpec(
        kind="stream",
        trust_changes=(
            {"window": 3, "party": 1, "trust": 0.5},
            (5, 0, 0.25),
        ),
    )
    assert spec.trust_changes == (
        TrustChange(window=3, party=1, trust=0.5),
        TrustChange(window=5, party=0, trust=0.25),
    )


# ----------------------------------------------------------------------
# JSON workload round trip
# ----------------------------------------------------------------------
def test_from_mapping_rejects_unknown_keys():
    with pytest.raises(ValueError) as excinfo:
        SessionSpec.from_mapping({"kind": "batch", "classifierr": "knn"})
    assert "classifierr" in str(excinfo.value)


def test_from_mapping_rejects_a_non_mapping():
    with pytest.raises(ValueError) as excinfo:
        SessionSpec.from_mapping(5)
    assert "mapping" in str(excinfo.value)


def test_mapping_round_trip_batch_and_stream():
    for spec in (
        SessionSpec(kind="batch", dataset="wine", k=4, tenant="acme", seed=3,
                    classifier="lda", compute_privacy=True,
                    optimize_locally=True, optimizer_rounds=3,
                    optimizer_local_steps=2, target_candidates=2,
                    round_timeout=9.5, test_fraction=0.25),
        SessionSpec(kind="stream", dataset="iris", windows=4, window_size=32,
                    stream="abrupt", detector="ks", tenant="globex",
                    readapt_cooldown=5, trust_changes=((2, 0, 0.5),)),
    ):
        again = SessionSpec.from_mapping(spec.to_mapping())
        assert again.kind == spec.kind
        assert again.tenant == spec.tenant
        assert again.resolved_seed() == spec.resolved_seed()
        if spec.kind == "batch":
            assert again.to_sap_config() == spec.to_sap_config()
        else:
            assert again.to_stream_config() == spec.to_stream_config()


def test_classifier_params_accept_mapping_in_workload_entries():
    spec = SessionSpec.from_mapping(
        {"kind": "batch", "classifier": "knn", "classifier_params": {"n_neighbors": 3}}
    )
    assert spec.to_sap_config().classifier.params == {"n_neighbors": 3}


def test_params_accept_mappings_in_the_constructor_too():
    spec = SessionSpec(
        kind="batch", classifier="knn", classifier_params={"n_neighbors": 3}
    )
    assert spec.classifier_params == (("n_neighbors", 3),)
    assert spec.to_sap_config().classifier.params == {"n_neighbors": 3}
    stream = SessionSpec(kind="stream", detector_params={"threshold": 0.5})
    assert stream.to_stream_config().detector_params == (("threshold", 0.5),)


def test_display_label():
    assert SessionSpec(kind="batch", dataset="wine").display_label == (
        "default/batch:wine"
    )
    assert SessionSpec(label="my-run").display_label == "my-run"


@pytest.mark.parametrize(
    "spec",
    [
        SessionSpec(kind="batch", dataset="iris", classifier="knn",
                    classifier_params={"batch_size": -1}, seed=3),
        SessionSpec(kind="stream", dataset="iris", windows=3, window_size=32,
                    classifier_params={"n_neighbors": 2.5}, seed=3),
    ],
)
def test_bad_knn_params_fail_the_session_instead_of_scoring(spec):
    with pytest.raises(ValueError, match="batch_size|n_neighbors"):
        execute_spec(spec)


# ----------------------------------------------------------------------
# one set of knobs: the spec carries the configs' fields by name
# ----------------------------------------------------------------------
def test_every_config_field_is_a_spec_field():
    spec_fields = {f.name for f in fields(SessionSpec)}
    for config in (SAPConfig, StreamConfig):
        assert {f.name for f in fields(config)} <= spec_fields, config


def _all_non_default(config):
    for f in fields(config):
        default = f.default_factory() if f.default is MISSING else f.default
        assert getattr(config, f.name) != default, f.name
    return config


def test_a_stream_config_with_every_field_set_round_trips():
    telemetry = Telemetry.disabled()
    config = _all_non_default(StreamConfig(
        k=4, window_size=32, window_kind="sliding", window_step=16,
        noise_sigma=0.1, classifier="linear_svm",
        classifier_params=(("epochs", 2),), normalizer="zscore",
        detector="ks", detector_params=(("threshold", 0.5),),
        readapt_cooldown=3,
        trust_changes=(TrustChange(window=2, party=0, trust=0.5),),
        compute_privacy=False, shards=2, shard_backend="thread",
        shard_plan="hash", overlap=False, watermark_delay=2,
        late_policy="readmit", skew=3, seed=9, telemetry=telemetry,
    ))
    source = make_stream("iris", kind="gradual", n_records=128, seed=9)
    spec = SessionSpec.from_stream(source, config)
    again = spec.to_stream_config()
    assert again == config
    assert again.telemetry is telemetry
    assert SessionSpec.from_mapping(spec.to_mapping()).to_stream_config() == config


def test_a_batch_config_with_every_field_set_round_trips():
    config = _all_non_default(SAPConfig(
        k=4, noise_sigma=0.1,
        classifier=ClassifierSpec("linear_svm", {"epochs": 3}),
        test_fraction=0.25, optimize_locally=True, optimizer_rounds=3,
        optimizer_local_steps=2, target_candidates=2, round_timeout=9.5,
        shards=2, shard_backend="thread", seed=11,
    ))
    spec = SessionSpec.from_batch("wine", config, scheme="class")
    assert spec.to_sap_config() == config
    assert SessionSpec.from_mapping(spec.to_mapping()).to_sap_config() == config


@pytest.mark.parametrize(
    "config,overrides,needle",
    [
        (StreamConfig, {"window_size": 2.5}, "window_size"),
        (StreamConfig, {"shards": 2.0}, "shards"),
        (StreamConfig, {"noise_sigma": float("nan")}, "noise_sigma"),
        (StreamConfig, {"noise_sigma": "a"}, "noise_sigma"),
        (StreamConfig, {"window_kind": "sliding", "window_size": 4,
                        "window_step": 9}, "sliding step"),
        (SAPConfig, {"k": 2.5}, "k must be"),
        (SAPConfig, {"noise_sigma": float("inf")}, "noise_sigma"),
        (SAPConfig, {"round_timeout": float("nan")}, "round_timeout"),
        (SAPConfig, {"test_fraction": "x"}, "test_fraction"),
        (StreamConfig, {"window_size": 32, "compute_privacy": "no"},
         "compute_privacy"),
        (SAPConfig, {"k": 3, "optimize_locally": "no"}, "optimize_locally"),
        (SAPConfig, {"classifier": "knn"}, "classifier"),
    ],
)
def test_configs_refuse_a_bad_knob_by_name(config, overrides, needle):
    with pytest.raises(ValueError, match=needle):
        config(**overrides)


def test_trust_change_refuses_a_trust_that_is_not_a_number():
    with pytest.raises(ValueError, match="trust"):
        TrustChange(window=1, party=0, trust="x")
