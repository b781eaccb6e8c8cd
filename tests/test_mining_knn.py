"""Tests for the KNN classifier, including the rotation-invariance claim."""

import os
import subprocess
import sys
import textwrap
import threading

import numpy as np
import pytest

import repro
from repro.core.perturbation import perturb_rows, sample_perturbation
from repro.mining.knn import KNNClassifier


class TestBasics:
    def test_fit_predict_separable(self, small_dataset):
        model = KNNClassifier(n_neighbors=3).fit(small_dataset.X, small_dataset.y)
        accuracy = model.score(small_dataset.X, small_dataset.y)
        assert accuracy > 0.9

    def test_single_neighbor_memorizes_training_data(self, small_dataset):
        model = KNNClassifier(n_neighbors=1).fit(small_dataset.X, small_dataset.y)
        predictions = model.predict(small_dataset.X)
        np.testing.assert_array_equal(predictions, small_dataset.y)

    def test_multiclass(self, multiclass_dataset):
        model = KNNClassifier(n_neighbors=5).fit(
            multiclass_dataset.X, multiclass_dataset.y
        )
        assert model.score(multiclass_dataset.X, multiclass_dataset.y) > 0.85

    def test_k_larger_than_train_set_degrades_gracefully(self, rng):
        X = rng.normal(size=(5, 2))
        y = np.array([0, 0, 0, 1, 1])
        model = KNNClassifier(n_neighbors=50).fit(X, y)
        predictions = model.predict(X)
        # With k capped at n=5, the majority class wins everywhere.
        np.testing.assert_array_equal(predictions, np.zeros(5))

    def test_distance_weighting_prefers_closer_points(self):
        X = np.array([[0.0], [0.1], [10.0], [10.1], [10.2]])
        y = np.array([0, 0, 1, 1, 1])
        uniform = KNNClassifier(n_neighbors=5, weights="uniform").fit(X, y)
        weighted = KNNClassifier(n_neighbors=5, weights="distance").fit(X, y)
        probe = np.array([[0.05]])
        assert uniform.predict(probe)[0] == 1  # majority of all 5
        assert weighted.predict(probe)[0] == 0  # the two nearby points win

    def test_batched_prediction_matches_unbatched(self, small_dataset):
        big = KNNClassifier(n_neighbors=3, batch_size=7).fit(
            small_dataset.X, small_dataset.y
        )
        small = KNNClassifier(n_neighbors=3, batch_size=10_000).fit(
            small_dataset.X, small_dataset.y
        )
        np.testing.assert_array_equal(
            big.predict(small_dataset.X), small.predict(small_dataset.X)
        )

    def test_string_labels_supported(self, rng):
        X = np.vstack([rng.normal(size=(10, 2)), rng.normal(size=(10, 2)) + 5])
        y = np.array(["neg"] * 10 + ["pos"] * 10)
        model = KNNClassifier(n_neighbors=3).fit(X, y)
        assert set(model.predict(X)) <= {"neg", "pos"}


class TestValidation:
    def test_predict_before_fit_raises(self, small_dataset):
        with pytest.raises(RuntimeError):
            KNNClassifier().predict(small_dataset.X)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            KNNClassifier(n_neighbors=0)
        with pytest.raises(ValueError):
            KNNClassifier(weights="quadratic")

    @pytest.mark.parametrize("name", ["n_neighbors", "batch_size"])
    @pytest.mark.parametrize("value", [0, -1, 2.5, 3.0, True, "3", None])
    def test_counts_must_be_positive_integers(self, name, value):
        with pytest.raises(ValueError, match=name):
            KNNClassifier(**{name: value})

    def test_numpy_integer_counts_accepted(self, small_dataset):
        model = KNNClassifier(n_neighbors=np.int64(3), batch_size=np.int32(8))
        model.fit(small_dataset.X, small_dataset.y)
        assert model.score(small_dataset.X, small_dataset.y) > 0.9

    def test_non_finite_input_rejected(self, small_dataset):
        X = small_dataset.X.copy()
        X[0, 0] = np.nan
        with pytest.raises(ValueError):
            KNNClassifier().fit(X, small_dataset.y)

    def test_label_shape_mismatch(self, small_dataset):
        with pytest.raises(ValueError):
            KNNClassifier().fit(small_dataset.X, small_dataset.y[:-1])


class TestRotationInvariance:
    """The paper's core claim for KNN: exact invariance to rotation +
    translation, graceful degradation with noise."""

    def test_exact_invariance_without_noise(self, small_dataset, rng):
        perturbation = sample_perturbation(small_dataset.n_features, rng)
        X_train_p = perturb_rows(perturbation, small_dataset.X)

        plain = KNNClassifier(n_neighbors=5).fit(small_dataset.X, small_dataset.y)
        perturbed = KNNClassifier(n_neighbors=5).fit(X_train_p, small_dataset.y)

        probes = rng.uniform(0, 1, size=(25, small_dataset.n_features))
        probes_p = perturb_rows(perturbation, probes)
        np.testing.assert_array_equal(
            plain.predict(probes), perturbed.predict(probes_p)
        )

    def test_small_noise_keeps_most_predictions(self, small_dataset, rng):
        perturbation = sample_perturbation(
            small_dataset.n_features, rng, noise_sigma=0.03
        )
        X_p = perturb_rows(perturbation, small_dataset.X, rng=rng)
        plain = KNNClassifier(n_neighbors=5).fit(small_dataset.X, small_dataset.y)
        noisy = KNNClassifier(n_neighbors=5).fit(X_p, small_dataset.y)

        probes = small_dataset.X
        probes_p = perturb_rows(perturbation, probes, rng=rng)
        agreement = np.mean(plain.predict(probes) == noisy.predict(probes_p))
        assert agreement > 0.85


class TestScratch:
    """The set vote's per-thread scratch buffers change no prediction."""

    @staticmethod
    def _in_fresh_thread(fn):
        out = []
        thread = threading.Thread(target=lambda: out.append(fn()))
        thread.start()
        thread.join()
        return out[0]

    def test_reused_buffers_predict_as_fresh_ones(self, rng):
        # Shapes grow, shrink and grow again, so later calls see views of
        # buffers a larger call left dirty; one block is past the cap.
        cases = []
        for n_train, n_test, batch_size in (
            (300, 700, 512), (40, 9, 512), (512, 600, 256), (512, 1100, 1024),
            (7, 3, 512),
        ):
            X = rng.normal(size=(n_train, 4))
            y = rng.integers(0, 3, size=n_train)
            model = KNNClassifier(n_neighbors=5, batch_size=batch_size).fit(X, y)
            cases.append((model, rng.normal(size=(n_test, 4))))
        here = [model.predict(queries) for model, queries in cases]
        for (model, queries), got in zip(cases, here):
            fresh = self._in_fresh_thread(lambda: model.predict(queries))
            np.testing.assert_array_equal(got, fresh)

    @pytest.mark.skipif(
        sys.platform != "linux", reason="counts Linux minor page faults"
    )
    def test_a_fresh_process_stops_faulting_on_a_stream_session(self):
        # A stream-long-shaped session, run twice in a fresh process: the
        # second run's minor faults.  Freed distance blocks used to be
        # handed back to the system and faulted in again on every block
        # (about 4,000 per session); one BLAS thread, as the benchmark
        # runs, keeps OpenBLAS's own per-call buffers out of the count.
        code = textwrap.dedent(
            """
            import resource
            from repro.serve import SessionSpec, execute_spec
            spec = SessionSpec(
                kind="stream", dataset="wine", stream="abrupt", windows=10,
                window_size=256, shards=2, late_policy="readmit",
                trust_changes=((4, 0, 0.5),), skew=6, watermark_delay=2,
                k=3, seed=1, compute_privacy=False,
            )
            execute_spec(spec)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            execute_spec(spec)
            print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
            """
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            timeout=120,
            env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1"),
        )
        assert done.returncode == 0, done.stderr
        assert int(done.stdout) <= 100
