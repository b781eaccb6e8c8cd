"""Kernel functions for the SVM learners.

The rotation-invariance claim at the heart of the paper holds exactly for
kernels that depend only on Euclidean geometry: the RBF kernel depends on
pairwise distances and the linear/polynomial kernels on inner products,
both of which an orthogonal transform preserves.  (Translation additionally
preserves distances, hence RBF; inner products shift, which is why the
paper's analysis centres on distance-based learners like KNN and SVM-RBF.)
"""

from __future__ import annotations

from typing import Callable, Optional, Union

import numpy as np

__all__ = [
    "Kernel",
    "linear_kernel",
    "polynomial_kernel",
    "rbf_kernel",
    "resolve_gamma",
    "pairwise_sq_distances",
]

Kernel = Callable[[np.ndarray, np.ndarray], np.ndarray]


def pairwise_sq_distances(
    X: np.ndarray,
    Z: np.ndarray,
    out: Optional[np.ndarray] = None,
    work: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Squared Euclidean distances between rows of ``X`` and rows of ``Z``.

    Uses the expansion ``|x - z|^2 = (|x|^2 + |z|^2) - 2 x.z`` and clamps
    tiny negatives produced by floating-point cancellation.  The product
    is finished in place: doubling is exact, so every entry rounds as the
    expression with fresh temporaries would.

    ``out`` and ``work``, when given, are float64 arrays of the result's
    shape ``(len(X), len(Z))``: the distances are written to ``out`` and
    the norm sums formed in ``work``, so the call allocates nothing of
    that size.  The values are the same either way.
    """
    if out is None:
        sq = X @ Z.T
        # Integer rows give float distances, as ``2.0 * (X @ Z.T)`` would.
        sq = sq.astype(np.result_type(sq, 2.0), copy=False)
    else:
        sq = np.matmul(X, Z.T, out=out)
    sq *= 2.0
    norms = np.add(np.sum(X * X, axis=1)[:, None], np.sum(Z * Z, axis=1), out=work)
    np.subtract(norms, sq, out=sq)
    np.maximum(sq, 0.0, out=sq)
    return sq


def resolve_gamma(gamma: Union[float, str], X: np.ndarray) -> float:
    """Resolve an RBF bandwidth specification against training data.

    ``"scale"`` is ``1 / (d * mean_j var(X_j))`` — the mean per-column
    variance (trace of the covariance over ``d``) rather than the grand
    variance some libraries use, because the trace is *invariant under
    rotation and translation*: the miner resolves the same bandwidth on
    perturbed data as it would have on the original, which keeps the
    SVM-RBF pipeline exactly rotation-invariant end to end.  ``"auto"`` is
    ``1 / d``; a float passes through.
    """
    if isinstance(gamma, str):
        d = X.shape[1]
        if gamma == "scale":
            variance = float(X.var(axis=0).mean())
            return 1.0 / (d * variance) if variance > 0 else 1.0 / d
        if gamma == "auto":
            return 1.0 / d
        raise ValueError(f"unknown gamma spec {gamma!r}")
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    return float(gamma)


def linear_kernel(X: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """Plain inner-product kernel."""
    return X @ Z.T


def polynomial_kernel(
    X: np.ndarray, Z: np.ndarray, degree: int = 3, coef0: float = 1.0
) -> np.ndarray:
    """Polynomial kernel ``(x.z + coef0)^degree``."""
    if degree < 1:
        raise ValueError("degree must be >= 1")
    return (X @ Z.T + coef0) ** degree


def rbf_kernel(X: np.ndarray, Z: np.ndarray, gamma: float = 1.0) -> np.ndarray:
    """Gaussian radial basis function kernel ``exp(-gamma |x - z|^2)``."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    return np.exp(-gamma * pairwise_sq_distances(X, Z))
