"""Tests for the geometric perturbation G(X) = RX + Psi + Delta."""

import numpy as np
import pytest

from repro.core.perturbation import (
    GeometricPerturbation,
    perturb_rows,
    sample_perturbation,
)
from repro.core.rotation import haar_orthogonal


@pytest.fixture
def perturbation(rng):
    return sample_perturbation(4, rng, noise_sigma=0.0)


@pytest.fixture
def noisy_perturbation(rng):
    return sample_perturbation(4, rng, noise_sigma=0.1)


class TestConstruction:
    def test_sample_has_requested_shape(self, perturbation):
        assert perturbation.rotation.shape == (4, 4)
        assert perturbation.translation.shape == (4,)
        assert perturbation.dimension == 4

    def test_translation_within_unit_cube(self, rng):
        p = sample_perturbation(200, rng)
        assert p.translation.min() >= -1.0 and p.translation.max() <= 1.0

    def test_non_orthogonal_rotation_rejected(self):
        with pytest.raises(ValueError):
            GeometricPerturbation(
                rotation=np.ones((3, 3)), translation=np.zeros(3)
            )

    def test_dimension_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            GeometricPerturbation(
                rotation=haar_orthogonal(3, rng), translation=np.zeros(4)
            )
        with pytest.raises(ValueError, match="vector"):
            GeometricPerturbation(rotation=np.eye(1), translation=np.asarray(1.0))

    def test_negative_noise_rejected(self, rng):
        with pytest.raises(ValueError):
            GeometricPerturbation(
                rotation=haar_orthogonal(3, rng),
                translation=np.zeros(3),
                noise_sigma=-0.1,
            )

    def test_equality_semantics(self, perturbation):
        clone = GeometricPerturbation(
            rotation=perturbation.rotation.copy(),
            translation=perturbation.translation.copy(),
            noise_sigma=perturbation.noise_sigma,
        )
        assert clone == perturbation
        assert clone != perturbation.with_rotation(-perturbation.rotation)


class TestApply:
    def test_noise_free_apply_matches_formula(self, perturbation, columns_matrix):
        Y = perturbation.apply(columns_matrix)
        expected = (
            perturbation.rotation @ columns_matrix
            + perturbation.translation[:, None]
        )
        np.testing.assert_allclose(Y, expected)

    def test_apply_preserves_pairwise_distances_without_noise(
        self, perturbation, columns_matrix
    ):
        Y = np.asarray(perturbation.apply(columns_matrix))
        original = np.linalg.norm(
            columns_matrix[:, :1] - columns_matrix[:, 1:2]
        )
        perturbed = np.linalg.norm(Y[:, :1] - Y[:, 1:2])
        assert perturbed == pytest.approx(original)

    def test_noise_requires_rng(self, noisy_perturbation, columns_matrix):
        with pytest.raises(ValueError):
            noisy_perturbation.apply(columns_matrix)

    def test_return_noise_reconstructs_exactly(
        self, noisy_perturbation, columns_matrix, rng
    ):
        Y, noise = noisy_perturbation.apply(
            columns_matrix, rng=rng, return_noise=True
        )
        clean = noisy_perturbation.transform_clean(columns_matrix)
        np.testing.assert_allclose(Y, clean + noise)

    def test_noise_has_requested_scale(self, columns_matrix, rng):
        p = sample_perturbation(4, rng, noise_sigma=0.5)
        _, noise = p.apply(columns_matrix, rng=rng, return_noise=True)
        assert noise.std() == pytest.approx(0.5, rel=0.2)

    def test_wrong_orientation_rejected(self, perturbation, small_dataset):
        with pytest.raises(ValueError):
            perturbation.apply(small_dataset.X)  # rows, not columns


class TestInvert:
    def test_invert_recovers_clean_data(self, perturbation, columns_matrix):
        Y = perturbation.apply(columns_matrix)
        np.testing.assert_allclose(
            perturbation.invert(np.asarray(Y)), columns_matrix, atol=1e-10
        )

    def test_invert_leaves_rotated_noise(
        self, noisy_perturbation, columns_matrix, rng
    ):
        Y, noise = noisy_perturbation.apply(
            columns_matrix, rng=rng, return_noise=True
        )
        recovered = noisy_perturbation.invert(np.asarray(Y))
        residual = recovered - columns_matrix
        np.testing.assert_allclose(
            residual, noisy_perturbation.rotation.T @ noise, atol=1e-10
        )


class TestConveniences:
    def test_without_noise(self, noisy_perturbation):
        clean = noisy_perturbation.without_noise()
        assert clean.noise_sigma == 0.0
        np.testing.assert_array_equal(clean.rotation, noisy_perturbation.rotation)

    def test_with_rotation(self, perturbation, rng):
        new_rotation = haar_orthogonal(4, rng)
        updated = perturbation.with_rotation(new_rotation)
        np.testing.assert_array_equal(updated.rotation, new_rotation)
        np.testing.assert_array_equal(
            updated.translation, perturbation.translation
        )

    def test_perturb_rows_matches_column_path(self, perturbation, small_dataset):
        via_rows = perturb_rows(perturbation, small_dataset.X)
        via_columns = np.asarray(perturbation.apply(small_dataset.columns())).T
        np.testing.assert_allclose(via_rows, via_columns)

    def test_perturb_rows_rejects_1d(self, perturbation):
        with pytest.raises(ValueError):
            perturb_rows(perturbation, np.zeros(4))
