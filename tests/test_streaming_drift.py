"""Drift-detector behaviour: fire on shift, stay quiet when stationary."""

import numpy as np
import pytest

from repro.checkpoint import decode, encode
from repro.streaming.drift import KSDetector, MeanVarianceDetector, make_detector
from repro.streaming.sources import make_stream
from repro.streaming.windows import TumblingWindow


def windows_of(source, size=64):
    buf = TumblingWindow(size)
    windows = []
    for record in source:
        windows.extend(buf.push(record.x, record.y, record.time))
    return windows


@pytest.mark.parametrize("kind", ["meanvar", "ks"])
def test_quiet_on_stationary_stream(kind):
    detector = make_detector(kind)
    source = make_stream("wine", kind="stationary", n_records=64 * 20, seed=0)
    fired = [detector.observe(w.X).fired for w in windows_of(source)]
    assert not any(fired)


@pytest.mark.parametrize("kind", ["meanvar", "ks"])
def test_fires_on_abrupt_drift(kind):
    detector = make_detector(kind)
    source = make_stream("wine", kind="abrupt", n_records=64 * 20, seed=0)
    windows = windows_of(source)
    drift_window = source.drift_index // 64
    reports = [detector.observe(w.X) for w in windows]
    assert not any(r.fired for r in reports[:drift_window])
    assert reports[drift_window].fired
    assert reports[drift_window].column is not None


def test_first_window_installs_reference_without_firing():
    detector = MeanVarianceDetector()
    rng = np.random.default_rng(0)
    report = detector.observe(rng.normal(size=(50, 3)))
    assert not report.fired and detector.has_reference


def test_rebase_silences_a_sustained_shift():
    detector = MeanVarianceDetector()
    rng = np.random.default_rng(1)
    before = rng.normal(size=(100, 4))
    after = before + 3.0
    detector.observe(before)
    report = detector.observe(after + 0.01 * rng.normal(size=after.shape))
    assert report.fired and report.kind == "mean"
    detector.rebase(after)
    report = detector.observe(after + 0.01 * rng.normal(size=after.shape))
    assert not report.fired


def test_variance_collapse_fires():
    """A column freezing to a constant (stuck sensor) is extreme scale
    drift and must fire, while an always-constant column stays quiet."""
    rng = np.random.default_rng(3)
    detector = MeanVarianceDetector()
    reference = np.column_stack(
        [rng.normal(size=100), np.full(100, 7.0)]  # varying + constant
    )
    detector.observe(reference)
    frozen = np.column_stack([np.zeros(100), np.full(100, 7.0)])
    report = detector.observe(frozen)
    assert report.fired and report.kind == "variance" and report.column == 0
    # Both columns constant and unchanged from a constant reference: quiet.
    detector2 = MeanVarianceDetector()
    detector2.observe(np.column_stack([np.full(50, 1.0), np.full(50, 7.0)]))
    report2 = detector2.observe(np.column_stack([np.full(50, 1.0), np.full(50, 7.0)]))
    assert not report2.fired


def test_variance_criterion_fires_on_scale_change():
    detector = MeanVarianceDetector()
    rng = np.random.default_rng(2)
    reference = rng.normal(size=(200, 3))
    detector.observe(reference)
    scaled = rng.normal(size=(200, 3)) * np.array([3.0, 1.0, 1.0])
    report = detector.observe(scaled)
    assert report.fired and report.kind == "variance" and report.column == 0


def test_ks_statistic_known_values():
    a = np.array([0.0, 1.0, 2.0, 3.0])
    assert KSDetector.ks_statistic(a, a) == 0.0
    b = a + 100.0
    assert KSDetector.ks_statistic(a, b) == 1.0


def test_validation_errors():
    detector = MeanVarianceDetector()
    with pytest.raises(ValueError):
        detector.observe(np.zeros(3))
    detector.observe(np.random.default_rng(0).normal(size=(10, 3)))
    with pytest.raises(ValueError):
        detector.observe(np.zeros((10, 4)))
    with pytest.raises(ValueError):
        MeanVarianceDetector(mean_threshold=0.0)
    with pytest.raises(ValueError):
        KSDetector(alpha=0.2)
    with pytest.raises(ValueError):
        make_detector("page-hinkley")


@pytest.mark.parametrize("kind", ["meanvar", "ks"])
def test_reference_round_trip_continues_identically(kind):
    rng = np.random.default_rng(4)
    live = make_detector(kind)
    assert live.reference is None
    live.observe(rng.normal(size=(64, 3)))
    restored = make_detector(kind)
    restored.rebase(decode(encode(live.reference)))
    window = rng.normal(loc=0.5, size=(64, 3))
    assert live.observe(window) == restored.observe(window)
    assert encode(restored.reference) == encode(live.reference)
