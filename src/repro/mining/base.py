"""Classifier interface shared by every learner in :mod:`repro.mining`.

The geometric-perturbation argument in the paper is about a *family* of
classifiers (distance/inner-product based learners), so the library keeps
them behind one small contract: ``fit(X, y) -> self`` and
``predict(X) -> labels``.  Everything trains on row-major ``(n, d)``
matrices.
"""

from __future__ import annotations

import abc
from typing import Optional, Tuple

import numpy as np

__all__ = ["Classifier", "check_count", "check_fitted", "validate_Xy"]


def validate_Xy(X: np.ndarray, y: Optional[np.ndarray] = None) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Coerce and sanity-check a training or prediction matrix.

    Returns float64 ``X`` (2-D) and, when given, ``y`` as a 1-D array of the
    same length.  Raises ``ValueError`` on shape mismatch or non-finite
    entries — perturbed data with NaNs means an upstream bug and must not
    silently propagate into a model.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X.reshape(1, -1)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-D, got shape {X.shape}")
    if not np.isfinite(X).all():
        raise ValueError("X contains non-finite values")
    if y is None:
        return X, None
    y = np.asarray(y)
    if y.shape != (X.shape[0],):
        raise ValueError(f"y has shape {y.shape}, expected ({X.shape[0]},)")
    return X, y


def check_count(name: str, value: object) -> None:
    """Raise ``ValueError`` unless ``value`` is an integer >= 1 (not a bool)."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


def check_fitted(classifier: "Classifier") -> None:
    """Raise if ``classifier`` has not been fitted yet."""
    if not getattr(classifier, "_fitted", False):
        raise RuntimeError(
            f"{type(classifier).__name__} must be fitted before predicting"
        )


class Classifier(abc.ABC):
    """Abstract base class for all classifiers.

    Subclasses set ``self._fitted = True`` at the end of :meth:`fit` and may
    expose extra introspection attributes (support vectors, weights, ...).
    """

    _fitted: bool = False

    @abc.abstractmethod
    def fit(self, X: np.ndarray, y: np.ndarray) -> "Classifier":
        """Train on rows ``X`` with labels ``y``; returns ``self``."""

    @abc.abstractmethod
    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predict a label for each row of ``X``."""

    def score(self, X: np.ndarray, y: np.ndarray) -> float:
        """Accuracy on ``(X, y)`` (fraction of exact label matches)."""
        X, y = validate_Xy(X, y)
        predictions = self.predict(X)
        return float(np.mean(predictions == y))

    @property
    def classes_(self) -> np.ndarray:
        """Sorted class labels seen during :meth:`fit`."""
        check_fitted(self)
        return self._classes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        status = "fitted" if self._fitted else "unfitted"
        return f"<{type(self).__name__} {status}>"
