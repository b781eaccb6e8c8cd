"""Independent Component Analysis reconstruction attack.

A rotation perturbation is a *mixing* of the original columns; when those
columns are statistically independent and non-Gaussian, ICA can unmix them
up to permutation, sign, and scale.  The SDM'07 analysis treats this as the
strongest statistics-only attack against pure rotation, and it is the
reason the geometric perturbation adds translation and noise.

This module implements FastICA from scratch (no sklearn offline):

1. centre and whiten the perturbed table (eigendecomposition of the
   covariance, small eigenvalues clamped);
2. symmetric fixed-point iteration with the ``logcosh`` contrast;
3. symmetric decorrelation ``W <- (W W')^{-1/2} W``.

The attack then resolves ICA's indeterminacies with the adversary's
background knowledge: each recovered component is matched to an original
column by comparing quantile profiles (both signs tried), the assignment is
solved with the Hungarian algorithm, and each matched component is
re-scaled to the column's known mean/std.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .base import Attack, AttackContext

__all__ = ["fast_ica", "ICAAttack"]

_QUANTILE_GRID = np.linspace(0.0, 1.0, 21)


def _symmetric_decorrelation(W: np.ndarray) -> np.ndarray:
    """Return ``(W W')^{-1/2} W`` (makes the unmixing rows orthonormal)."""
    values, vectors = np.linalg.eigh(W @ W.T)
    values = np.maximum(values, 1e-12)
    inv_sqrt = vectors @ np.diag(1.0 / np.sqrt(values)) @ vectors.T
    return inv_sqrt @ W


def fast_ica(
    Y: np.ndarray,
    rng: np.random.Generator,
    max_iter: int = 200,
    tol: float = 1e-5,
) -> Tuple[np.ndarray, np.ndarray]:
    """FastICA with the logcosh contrast on a ``d x N`` matrix.

    Returns
    -------
    (components, unmixing):
        ``components`` is ``d x N`` with unit-variance rows;
        ``unmixing @ (Y - mean)`` reproduces them.
    """
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != 2:
        raise ValueError("Y must be 2-D (d x N)")
    d, n = Y.shape
    if n < 2:
        raise ValueError("need at least 2 observations")
    mean = Y.mean(axis=1, keepdims=True)
    centred = Y - mean

    covariance = centred @ centred.T / n
    values, vectors = np.linalg.eigh(covariance)
    values = np.maximum(values, 1e-10)
    whiten = np.diag(1.0 / np.sqrt(values)) @ vectors.T
    Z = whiten @ centred  # identity covariance

    W = _symmetric_decorrelation(rng.normal(size=(d, d)))
    for _ in range(max_iter):
        WZ = W @ Z
        g = np.tanh(WZ)
        g_prime = 1.0 - g * g
        W_new = (g @ Z.T) / n - np.diag(g_prime.mean(axis=1)) @ W
        W_new = _symmetric_decorrelation(W_new)
        # Convergence: rows aligned with previous iteration (sign-agnostic).
        alignment = np.abs(np.einsum("ij,ij->i", W_new, W))
        W = W_new
        if np.max(1.0 - alignment) < tol:
            break

    components = W @ Z
    # Normalize rows to unit variance for downstream matching.
    stds = components.std(axis=1, keepdims=True)
    stds = np.where(stds > 1e-12, stds, 1.0)
    components = components / stds
    unmixing = (W / stds) @ whiten
    return components, unmixing


class ICAAttack(Attack):
    """FastICA unmixing + background-knowledge component matching.

    Parameters
    ----------
    max_iter / tol:
        FastICA iteration controls.
    """

    name = "ica"

    def __init__(self, max_iter: int = 200, tol: float = 1e-5) -> None:
        self.max_iter = max_iter
        self.tol = tol

    def reconstruct(self, context: AttackContext) -> np.ndarray:
        # Imported on use: scipy serves only this attack, and importing it
        # costs more than the rest of the package's imports together.
        from scipy.optimize import linear_sum_assignment

        components, _ = fast_ica(
            context.perturbed,
            rng=context.rng,
            max_iter=self.max_iter,
            tol=self.tol,
        )
        d = context.d

        # Candidate estimates: each component, both signs, re-scaled to each
        # column's known moments.  Cost matrix compares quantile profiles.
        target_profiles = context.column_quantiles  # (d, q) of original columns
        cost = np.zeros((d, d))
        best_sign = np.ones((d, d))
        for c in range(d):
            component = components[c]
            for sign in (1.0, -1.0):
                profile_source = np.quantile(sign * component, _QUANTILE_GRID)
                for j in range(d):
                    scaled = (
                        context.column_means[j]
                        + context.column_stds[j] * profile_source
                    )
                    distance = float(np.linalg.norm(scaled - target_profiles[j]))
                    if sign > 0 or distance < cost[c, j]:
                        if sign > 0:
                            cost[c, j] = distance
                            best_sign[c, j] = 1.0
                        elif distance < cost[c, j]:
                            cost[c, j] = distance
                            best_sign[c, j] = -1.0

        component_idx, column_idx = linear_sum_assignment(cost)
        estimate = np.empty_like(context.perturbed)
        for c, j in zip(component_idx, column_idx):
            sign = best_sign[c, j]
            estimate[j] = (
                context.column_means[j]
                + context.column_stds[j] * sign * components[c]
            )
        return estimate
