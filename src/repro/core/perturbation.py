"""Geometric data perturbation ``G(X) = R X + Psi + Delta``.

This is the paper's Section 2 object.  ``X`` is the normalized dataset in
the paper's column orientation (``d x N``: columns are records), ``R`` a
``d x d`` random orthogonal matrix, ``Psi = t * 1'`` a rank-one random
translation with ``t ~ U[-1, 1]^d``, and ``Delta`` an i.i.d. noise matrix
"used to perturb distances".

Design notes
------------
* The rotation and translation are *parameters* (stored on the object); the
  noise matrix is drawn per application from a caller-supplied generator,
  because each transmitted table carries its own noise realization while
  the *level* (``noise_sigma``) is the protocol-wide "common noise
  component" the paper prescribes.
* :meth:`GeometricPerturbation.invert` exists for attack analysis and for
  proving adaptor identities; it recovers ``X + R^{-1} Delta`` — the noise
  is irrecoverable by design.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from ..checkpoint.codec import register
from .rotation import assert_rotation_shapes, haar_orthogonal, random_translation

__all__ = ["GeometricPerturbation", "sample_perturbation", "perturb_rows"]


@register
@dataclass(frozen=True)
class GeometricPerturbation:
    """Parameters of one geometric perturbation ``G : (R, t, sigma)``.

    Attributes
    ----------
    rotation:
        Orthogonal ``d x d`` matrix ``R``.
    translation:
        Vector ``t`` of length ``d``; the paper's ``Psi`` is ``t * 1'``.
    noise_sigma:
        Standard deviation of the i.i.d. Gaussian noise ``Delta``.  ``0``
        gives a pure rotation + translation (the *target* perturbation in
        SAP "has no noise component").
    """

    rotation: np.ndarray
    translation: np.ndarray
    noise_sigma: float = 0.0

    def __post_init__(self) -> None:
        rotation = np.asarray(self.rotation, dtype=float)
        translation = np.asarray(self.translation, dtype=float)
        object.__setattr__(self, "rotation", rotation)
        object.__setattr__(self, "translation", translation)
        if translation.ndim != 1:
            raise ValueError("translation must be a vector")
        assert_rotation_shapes(rotation, translation.shape[0])
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")

    # ------------------------------------------------------------------
    # shape helpers
    # ------------------------------------------------------------------
    @property
    def dimension(self) -> int:
        """Number of data dimensions ``d``."""
        return self.translation.shape[0]

    def _check_columns(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[0] != self.dimension:
            raise ValueError(
                f"expected column-oriented data with {self.dimension} rows, "
                f"got shape {X.shape}"
            )
        return X

    # ------------------------------------------------------------------
    # forward / inverse maps (column orientation, d x N)
    # ------------------------------------------------------------------
    def apply(
        self,
        X: np.ndarray,
        rng: Optional[np.random.Generator] = None,
        return_noise: bool = False,
    ) -> np.ndarray | Tuple[np.ndarray, np.ndarray]:
        """Perturb ``X`` (``d x N``): ``R X + t 1' + Delta``.

        ``rng`` is required when ``noise_sigma > 0``; pass
        ``return_noise=True`` to also receive the drawn ``Delta`` (used by
        tests and by the complementary-noise analysis).
        """
        X = self._check_columns(X)
        rotated = self.rotation @ X + self.translation[:, None]
        if self.noise_sigma == 0.0:
            noise = np.zeros_like(rotated)
        else:
            if rng is None:
                raise ValueError("an rng is required when noise_sigma > 0")
            noise = rng.normal(scale=self.noise_sigma, size=rotated.shape)
        perturbed = rotated + noise
        if return_noise:
            return perturbed, noise
        return perturbed

    def transform_clean(self, X: np.ndarray) -> np.ndarray:
        """Rotation + translation only (what the *target* space applies)."""
        X = self._check_columns(X)
        return self.rotation @ X + self.translation[:, None]

    def invert(self, Y: np.ndarray) -> np.ndarray:
        """Recover ``R^{-1}(Y - t 1')`` = ``X + R^{-1} Delta``."""
        Y = self._check_columns(Y)
        return self.rotation.T @ (Y - self.translation[:, None])

    # ------------------------------------------------------------------
    # conveniences
    # ------------------------------------------------------------------
    def without_noise(self) -> "GeometricPerturbation":
        """The same rotation/translation with ``noise_sigma = 0``."""
        return GeometricPerturbation(
            rotation=self.rotation, translation=self.translation, noise_sigma=0.0
        )

    def with_rotation(self, rotation: np.ndarray) -> "GeometricPerturbation":
        """Copy with a different rotation (used by the optimizer's moves)."""
        return GeometricPerturbation(
            rotation=rotation,
            translation=self.translation,
            noise_sigma=self.noise_sigma,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GeometricPerturbation):
            return NotImplemented
        return (
            np.array_equal(self.rotation, other.rotation)
            and np.array_equal(self.translation, other.translation)
            and self.noise_sigma == other.noise_sigma
        )


def sample_perturbation(
    d: int, rng: np.random.Generator, noise_sigma: float = 0.0
) -> GeometricPerturbation:
    """Draw a fresh random perturbation: Haar rotation, ``U[-1,1]`` translation."""
    return GeometricPerturbation(
        rotation=haar_orthogonal(d, rng),
        translation=random_translation(d, rng),
        noise_sigma=noise_sigma,
    )


def perturb_rows(
    perturbation: GeometricPerturbation,
    X_rows: np.ndarray,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Row-major convenience: perturb an ``(n, d)`` matrix, return ``(n, d)``."""
    X_rows = np.asarray(X_rows, dtype=float)
    if X_rows.ndim != 2:
        raise ValueError("X_rows must be 2-D")
    return np.asarray(perturbation.apply(X_rows.T, rng=rng)).T
