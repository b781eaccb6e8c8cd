"""Random orthogonal (rotation) matrices and local moves over them.

The rotation component ``R`` of a geometric perturbation is a ``d x d``
random orthogonal matrix.  :func:`haar_orthogonal` samples from the Haar
(uniform) measure on the orthogonal group via the QR decomposition of a
Gaussian matrix with the standard sign correction (Mezzadri 2007), so
no direction is privileged.

The perturbation optimizer explores the neighbourhood of a rotation with
two orthogonality-preserving local moves: swapping two rows (which re-maps
which perturbed dimension carries which mixture) and applying a random
Givens rotation on a pair of coordinates.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = [
    "haar_orthogonal",
    "is_orthogonal",
    "swap_rows",
    "givens_perturbation",
    "random_translation",
    "rotation_distance",
    "assert_rotation_shapes",
]


def haar_orthogonal(d: int, rng: np.random.Generator) -> np.ndarray:
    """Sample a ``d x d`` orthogonal matrix from the Haar measure."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    gaussian = rng.normal(size=(d, d))
    q, r = np.linalg.qr(gaussian)
    # Sign correction: make the distribution exactly Haar rather than
    # biased by LAPACK's deterministic sign choices.
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs


def is_orthogonal(R: np.ndarray, atol: float = 1e-8) -> bool:
    """Check ``R' R = I`` within tolerance.

    Elementwise ``|R' R - I| <= atol + 1e-5 * I``: the test
    ``np.allclose(R' R, I, atol=atol)`` makes, written out without its
    per-call overhead.  As ``I`` is finite, the two agree on every input,
    NaN and infinities included.
    """
    R = np.asarray(R, dtype=float)
    if R.ndim != 2 or R.shape[0] != R.shape[1]:
        return False
    identity = np.eye(R.shape[0])
    return bool((np.abs(R.T @ R - identity) <= atol + 1e-5 * identity).all())


def swap_rows(R: np.ndarray, i: int, j: int) -> np.ndarray:
    """Return a copy of ``R`` with rows ``i`` and ``j`` exchanged.

    Row permutations of an orthogonal matrix are orthogonal; in perturbation
    terms the move re-assigns which output dimension receives which mixed
    component, which changes per-column privacy without touching distances.
    """
    d = R.shape[0]
    if not (0 <= i < d and 0 <= j < d):
        raise IndexError("row indices out of range")
    out = R.copy()
    out[[i, j]] = out[[j, i]]
    return out


def givens_perturbation(
    R: np.ndarray, rng: np.random.Generator, max_angle: float = np.pi / 4
) -> np.ndarray:
    """Left-multiply ``R`` by a random Givens rotation.

    Picks a random coordinate pair and angle in ``[-max_angle, max_angle]``;
    the result stays orthogonal and is a "small" move when the angle is
    small, giving the optimizer a continuous neighbourhood to climb in.
    """
    d = R.shape[0]
    if d < 2:
        return R.copy()
    i, j = rng.choice(d, size=2, replace=False)
    theta = rng.uniform(-max_angle, max_angle)
    c, s = np.cos(theta), np.sin(theta)
    out = R.copy()
    row_i, row_j = out[i].copy(), out[j].copy()
    out[i] = c * row_i - s * row_j
    out[j] = s * row_i + c * row_j
    return out


def random_translation(d: int, rng: np.random.Generator) -> np.ndarray:
    """The paper's translation vector: ``t[j] ~ U[-1, 1]`` per dimension."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    return rng.uniform(-1.0, 1.0, size=d)


def rotation_distance(R1: np.ndarray, R2: np.ndarray) -> float:
    """Frobenius distance between two rotations (used in tests/diagnostics)."""
    return float(np.linalg.norm(np.asarray(R1) - np.asarray(R2)))


def assert_rotation_shapes(R: np.ndarray, d: int) -> None:
    """Raise ``ValueError`` unless ``R`` is a ``d x d`` orthogonal matrix."""
    R = np.asarray(R)
    if R.shape != (d, d):
        raise ValueError(f"rotation must be {d}x{d}, got {R.shape}")
    if not is_orthogonal(R):
        raise ValueError("matrix is not orthogonal within tolerance")
