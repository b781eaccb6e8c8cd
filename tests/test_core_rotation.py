"""Tests for random orthogonal matrices and local moves."""

import numpy as np
import pytest

from repro.core.rotation import (
    assert_rotation_shapes,
    givens_perturbation,
    haar_orthogonal,
    is_orthogonal,
    random_translation,
    rotation_distance,
    swap_rows,
)


class TestHaarOrthogonal:
    @pytest.mark.parametrize("d", [1, 2, 5, 20])
    def test_is_orthogonal(self, d, rng):
        R = haar_orthogonal(d, rng)
        assert is_orthogonal(R)

    def test_preserves_norms(self, rng):
        R = haar_orthogonal(6, rng)
        x = rng.normal(size=6)
        assert np.linalg.norm(R @ x) == pytest.approx(np.linalg.norm(x))

    def test_preserves_distances(self, rng):
        R = haar_orthogonal(4, rng)
        x, z = rng.normal(size=4), rng.normal(size=4)
        assert np.linalg.norm(R @ x - R @ z) == pytest.approx(
            np.linalg.norm(x - z)
        )

    def test_distribution_is_not_degenerate(self, rng):
        """First-column direction should roughly cover the sphere: the mean
        over many draws is near the origin."""
        draws = np.stack([haar_orthogonal(3, rng)[:, 0] for _ in range(400)])
        assert np.linalg.norm(draws.mean(axis=0)) < 0.15

    def test_invalid_dimension(self, rng):
        with pytest.raises(ValueError):
            haar_orthogonal(0, rng)

    def test_deterministic_under_seed(self):
        a = haar_orthogonal(5, np.random.default_rng(3))
        b = haar_orthogonal(5, np.random.default_rng(3))
        np.testing.assert_array_equal(a, b)


class TestMoves:
    def test_swap_rows_keeps_orthogonality(self, rng):
        R = haar_orthogonal(5, rng)
        assert is_orthogonal(swap_rows(R, 0, 3))

    def test_swap_rows_is_involution(self, rng):
        R = haar_orthogonal(4, rng)
        np.testing.assert_array_equal(swap_rows(swap_rows(R, 1, 2), 1, 2), R)

    def test_swap_rows_does_not_mutate(self, rng):
        R = haar_orthogonal(4, rng)
        original = R.copy()
        swap_rows(R, 0, 1)
        np.testing.assert_array_equal(R, original)

    def test_swap_rows_bounds_checked(self, rng):
        R = haar_orthogonal(3, rng)
        with pytest.raises(IndexError):
            swap_rows(R, 0, 5)

    def test_givens_keeps_orthogonality(self, rng):
        R = haar_orthogonal(6, rng)
        assert is_orthogonal(givens_perturbation(R, rng))

    def test_givens_is_a_small_move(self, rng):
        R = haar_orthogonal(6, rng)
        moved = givens_perturbation(R, rng, max_angle=0.01)
        assert rotation_distance(R, moved) < 0.05

    def test_givens_on_1d_is_identity(self, rng):
        R = np.array([[1.0]])
        np.testing.assert_array_equal(givens_perturbation(R, rng), R)


class TestHelpers:
    def test_is_orthogonal_rejects_non_square(self):
        assert not is_orthogonal(np.ones((2, 3)))

    def test_is_orthogonal_rejects_scaled_identity(self):
        assert not is_orthogonal(2 * np.eye(3))

    def test_random_translation_in_range(self, rng):
        t = random_translation(1000, rng)
        assert t.min() >= -1.0 and t.max() <= 1.0
        assert abs(t.mean()) < 0.1  # roughly centred

    def test_random_translation_invalid_dim(self, rng):
        with pytest.raises(ValueError):
            random_translation(0, rng)

    def test_assert_rotation_shapes(self, rng):
        R = haar_orthogonal(3, rng)
        assert_rotation_shapes(R, 3)
        with pytest.raises(ValueError):
            assert_rotation_shapes(R, 4)
        with pytest.raises(ValueError):
            assert_rotation_shapes(np.ones((3, 3)), 3)


def allclose_reference(R, atol=1e-8):
    """The ``np.allclose`` form :func:`is_orthogonal` writes out."""
    R = np.asarray(R, dtype=float)
    if R.ndim != 2 or R.shape[0] != R.shape[1]:
        return False
    return bool(np.allclose(R.T @ R, np.eye(R.shape[0]), atol=atol))


def ulps_around(value, count):
    """``2 * count + 1`` consecutive floats centred on ``value``."""
    below, above = [value], [value]
    for _ in range(count):
        below.append(np.nextafter(below[-1], -np.inf))
        above.append(np.nextafter(above[-1], np.inf))
    return below[:0:-1] + above


class TestIsOrthogonalMatchesAllclose:
    @pytest.mark.parametrize("d", [1, 2, 4, 13, 20])
    def test_orthogonal_and_perturbed(self, d, rng):
        R = haar_orthogonal(d, rng)
        for candidate in (R, swap_rows(R, 0, d - 1), R + 1e-7, 1.00001 * R):
            for atol in (0.0, 1e-8, 1e-6):
                assert is_orthogonal(candidate, atol) == allclose_reference(
                    candidate, atol
                )
        assert is_orthogonal(R)

    @pytest.mark.parametrize("atol", [0.0, 1e-8, 1e-6])
    def test_off_diagonal_entries_either_side_of_the_tolerance(self, atol):
        # [[1, 0], [e, 1]]' [[1, 0], [e, 1]] has e off the diagonal exactly
        # and 1 + e**2, which rounds to 1, on it.
        outcomes = set()
        for e in ulps_around(atol, 3) + [-x for x in ulps_around(atol, 3)]:
            R = np.array([[1.0, 0.0], [e, 1.0]])
            assert is_orthogonal(R, atol) == allclose_reference(R, atol)
            outcomes.add(is_orthogonal(R, atol))
        assert outcomes == {True, False}

    @pytest.mark.parametrize("atol", [0.0, 1e-8, 1e-6])
    def test_diagonal_entries_either_side_of_the_tolerance(self, atol):
        # [[c]]' [[c]] is c * c; sweep c so that it crosses 1 +- (atol + 1e-5).
        for side in (1.0, -1.0):
            outcomes = set()
            for c in ulps_around(np.sqrt(1.0 + side * (atol + 1e-5)), 8):
                R = np.array([[c]])
                assert is_orthogonal(R, atol) == allclose_reference(R, atol)
                outcomes.add(is_orthogonal(R, atol))
            assert outcomes == {True, False}

    @pytest.mark.parametrize(
        "bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"]
    )
    def test_non_finite_entries(self, bad, rng):
        R = haar_orthogonal(4, rng)
        for index in [(0, 0), (1, 2)]:
            damaged = R.copy()
            damaged[index] = bad
            assert not is_orthogonal(damaged)
            assert not allclose_reference(damaged)

    def test_non_square_and_empty(self):
        for shape in [(2, 3), (3, 2), (4,), (2, 2, 2)]:
            assert not is_orthogonal(np.ones(shape))
            assert not allclose_reference(np.ones(shape))
        assert is_orthogonal(np.empty((0, 0))) == allclose_reference(np.empty((0, 0)))
