"""Incremental classifiers for mining in the unified perturbed space.

The batch miners in :mod:`repro.mining` retrain from scratch; a stream
needs models that absorb one window at a time *and* survive a space
re-adaptation.  Both learners here support the second requirement through
:meth:`OnlineClassifier.adapt_space`: when the session negotiates a new
target perturbation, the model's state is migrated with the same
rotation/translation adaptor algebra the protocol uses for data
(:mod:`repro.core.adaptation`), so nothing ever needs to be un-perturbed:

* :class:`ReservoirKNN` — Vitter reservoir sampling over the stream,
  wrapping the batch :class:`~repro.mining.knn.KNNClassifier`; the stored
  reservoir rows are simply pushed through the adaptor;
* :class:`OnlineLinearSVM` — one-vs-rest Pegasos-style SGD hinge updates;
  under ``x' = R x + psi`` the weight vectors rotate (``w' = R w``) and the
  biases absorb the translation (``b' = b - w' . psi``), which preserves
  every decision value exactly — the linear-invariance argument of the
  companion paper, applied online.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

import numpy as np

from ..checkpoint import CheckpointError, register
from ..core.adaptation import SpaceAdaptor
from ..mining.base import check_count, validate_Xy
from ..mining.knn import KNNClassifier

__all__ = [
    "ONLINE_CLASSIFIERS",
    "OnlineClassifier",
    "ReservoirKNN",
    "OnlineLinearSVM",
    "ReservoirKNNState",
    "LinearSVMState",
    "make_online_classifier",
    "predict_from_state",
]

#: names accepted by :func:`make_online_classifier`
ONLINE_CLASSIFIERS = ("knn", "linear_svm")


class OnlineClassifier(abc.ABC):
    """Contract for incremental learners used by the stream session."""

    @abc.abstractmethod
    def partial_fit(self, X: np.ndarray, y: np.ndarray) -> "OnlineClassifier":
        """Absorb one window of rows ``(n, d)`` with labels ``y``."""

    @abc.abstractmethod
    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predict a label per row; rows seen before any fit get label 0."""

    @abc.abstractmethod
    def adapt_space(self, adaptor: SpaceAdaptor) -> None:
        """Migrate internal state from the old target space to the new one."""

    @property
    @abc.abstractmethod
    def n_seen(self) -> int:
        """Total records absorbed so far."""

    @abc.abstractmethod
    def export_predict_state(self) -> Dict[str, object]:
        """Freeze everything :func:`predict_from_state` needs into a dict.

        The dict holds only plain numpy arrays and scalars, so it crosses
        the process-pool pickle boundary of :mod:`repro.sharding.backends`
        cheaply; it is a *copy* — later ``partial_fit`` calls never mutate
        an exported snapshot (the sharded engine snapshots before training,
        preserving prequential test-then-train semantics).
        """


@register
@dataclass(eq=False)
class ReservoirKNNState:
    """A :class:`ReservoirKNN`'s checkpoint state (``rows`` is ``None``
    before the first fit)."""

    rng: Dict[str, Any]
    rows: Optional[np.ndarray]
    labels: List[Any]
    n_seen: int


@register
@dataclass(eq=False)
class LinearSVMState:
    """An :class:`OnlineLinearSVM`'s checkpoint state."""

    rng: Dict[str, Any]
    weights: Dict[Any, np.ndarray]
    biases: Dict[Any, float]
    t: int
    n_seen: int
    dim: Optional[int]


class ReservoirKNN(OnlineClassifier):
    """KNN over a bounded uniform sample of the stream (Vitter's R).

    Parameters
    ----------
    capacity:
        Reservoir size; memory and prediction cost stay bounded by it.
    n_neighbors:
        Forwarded to the wrapped batch KNN.
    seed:
        Reservoir-replacement seed (the *only* randomness; the same seed
        on perturbed and baseline copies keeps their reservoirs row-aligned
        so accuracy deviation isolates the perturbation's effect).
    """

    def __init__(self, capacity: int = 256, n_neighbors: int = 5, seed: int = 0) -> None:
        check_count("capacity", capacity)
        check_count("n_neighbors", n_neighbors)
        self.capacity = capacity
        self.n_neighbors = n_neighbors
        self.rng = np.random.default_rng(seed)
        # Pre-allocated row buffer: appends and replacements are O(1) writes
        # and snapshots are one memcpy, instead of growing/stacking a list
        # of row objects on the per-window hot path.  Labels stay in a plain
        # list so arbitrary label types (mixed widths, strings) are kept
        # exactly; converting them per snapshot is cheap.
        self._X_buf: Optional[np.ndarray] = None
        self._labels: list = []
        self._size = 0
        self._n_seen = 0
        self._model: Optional[KNNClassifier] = None

    @property
    def n_seen(self) -> int:
        return self._n_seen

    @property
    def reservoir_size(self) -> int:
        """Rows currently held (<= capacity)."""
        return self._size

    @property
    def reservoir_rows(self) -> np.ndarray:
        """The retained sample, ``(reservoir_size, d)`` (a view; don't mutate)."""
        if self._X_buf is None:
            return np.empty((0, 0))
        return self._X_buf[: self._size]

    def partial_fit(self, X: np.ndarray, y: np.ndarray) -> "ReservoirKNN":
        X, y = validate_Xy(X, y)
        n = X.shape[0]
        if n == 0:
            return self
        if self._X_buf is None:
            self._X_buf = np.empty((self.capacity, X.shape[1]))

        # Fill phase: the first `capacity` records are always kept.
        take = min(self.capacity - self._size, n)
        if take:
            self._X_buf[self._size : self._size + take] = X[:take]
            self._labels.extend(y[:take])
            self._size += take
            self._n_seen += take

        # Replacement phase (Vitter's R): record number m keeps a slot with
        # probability capacity/m.  The slot draws are batched into a single
        # vectorized call — one uniform integer in [0, m) per record, with
        # the per-record upper bound supplied as an array — and only the
        # (increasingly rare) accepted replacements touch the buffer, in
        # stream order so later records overwrite earlier ones as in the
        # sequential algorithm.
        rest = n - take
        if rest:
            highs = np.arange(self._n_seen + 1, self._n_seen + rest + 1)
            slots = self.rng.integers(highs)
            self._n_seen += rest
            for offset in np.flatnonzero(slots < self.capacity):
                slot = int(slots[offset])
                self._X_buf[slot] = X[take + offset]
                self._labels[slot] = y[take + offset]
        self._model = None  # refit lazily on next predict
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        X, _ = validate_Xy(X)
        if self._size == 0:
            return np.zeros(X.shape[0], dtype=int)
        if self._model is None:
            self._model = KNNClassifier(n_neighbors=self.n_neighbors).fit(
                self._X_buf[: self._size], np.asarray(self._labels)
            )
        return self._model.predict(X)

    def adapt_space(self, adaptor: SpaceAdaptor) -> None:
        if self._size == 0:
            return
        self._X_buf[: self._size] = np.asarray(
            adaptor.apply(self._X_buf[: self._size].T)
        ).T
        self._model = None

    def snapshot(self) -> ReservoirKNNState:
        """The reservoir's checkpoint state (a copy)."""
        return ReservoirKNNState(
            rng=self.rng.bit_generator.state,
            rows=None if self._X_buf is None else self._X_buf[: self._size].copy(),
            labels=list(self._labels),
            n_seen=self._n_seen,
        )

    def restore(self, state: ReservoirKNNState, dimension: Optional[int] = None) -> None:
        """Load a :meth:`snapshot` into a fresh reservoir; refuses a misfit."""
        rows = getattr(state, "rows", None)
        if not isinstance(state, ReservoirKNNState) or not (
            rows is None
            or (
                isinstance(rows, np.ndarray)
                and rows.ndim == 2
                and len(rows) == len(state.labels) <= self.capacity
                and dimension in (None, rows.shape[1])
            )
        ):
            raise CheckpointError(
                f"checkpoint miner state does not fit a reservoir KNN of "
                f"{self.capacity} rows of {dimension} features"
            )
        self.rng.bit_generator.state = state.rng
        self._X_buf = None
        if rows is not None:
            self._X_buf = np.empty((self.capacity, rows.shape[1]))
            self._X_buf[: len(rows)] = rows
        self._labels = list(state.labels)
        self._size = len(self._labels)
        self._n_seen = state.n_seen
        self._model = None  # refit lazily from the restored reservoir

    def export_predict_state(self) -> Dict[str, object]:
        """Snapshot the reservoir for out-of-process prediction."""
        if self._size == 0:
            return {"kind": "knn", "rows": None, "labels": None,
                    "n_neighbors": self.n_neighbors}
        return {
            "kind": "knn",
            "rows": self._X_buf[: self._size].copy(),
            "labels": np.asarray(self._labels),
            "n_neighbors": self.n_neighbors,
        }


class OnlineLinearSVM(OnlineClassifier):
    """One-vs-rest linear SVM trained by Pegasos-style SGD, one window at a
    time.

    Classes are discovered online: the first time a label appears a fresh
    zero weight vector is added for it.  The global step counter ``t``
    spans windows, so the learning-rate schedule matches a single long
    Pegasos run over the concatenated stream.
    """

    def __init__(self, lam: float = 1e-3, seed: int = 0) -> None:
        if lam <= 0:
            raise ValueError("lam must be positive")
        self.lam = lam
        self.rng = np.random.default_rng(seed)
        self._weights: Dict[object, np.ndarray] = {}
        self._biases: Dict[object, float] = {}
        self._t = 0
        self._n_seen = 0
        self._dim: Optional[int] = None

    @property
    def n_seen(self) -> int:
        return self._n_seen

    @property
    def classes_(self) -> np.ndarray:
        """Labels discovered so far, sorted."""
        return np.asarray(sorted(self._weights, key=str))

    def partial_fit(self, X: np.ndarray, y: np.ndarray) -> "OnlineLinearSVM":
        X, y = validate_Xy(X, y)
        if self._dim is None:
            self._dim = X.shape[1]
        elif X.shape[1] != self._dim:
            raise ValueError(f"expected {self._dim} features, got {X.shape[1]}")
        for label in np.unique(y):
            if label not in self._weights:
                self._weights[label] = np.zeros(self._dim)
                self._biases[label] = 0.0
        for i in self.rng.permutation(X.shape[0]):
            self._t += 1
            self._n_seen += 1
            eta = 1.0 / (self.lam * self._t)
            for label, w in self._weights.items():
                sign = 1.0 if y[i] == label else -1.0
                margin = sign * (X[i] @ w + self._biases[label])
                w *= 1.0 - eta * self.lam
                if margin < 1:
                    w += eta * sign * X[i]
                    self._biases[label] += eta * sign
        return self

    def decision_matrix(self, X: np.ndarray) -> np.ndarray:
        """Per-class decision values, columns ordered like :attr:`classes_`."""
        X, _ = validate_Xy(X)
        classes = self.classes_
        scores = np.empty((X.shape[0], len(classes)))
        for c, label in enumerate(classes):
            scores[:, c] = X @ self._weights[label] + self._biases[label]
        return scores

    def predict(self, X: np.ndarray) -> np.ndarray:
        X, _ = validate_Xy(X)
        if not self._weights:
            return np.zeros(X.shape[0], dtype=int)
        classes = self.classes_
        return classes[np.argmax(self.decision_matrix(X), axis=1)]

    def adapt_space(self, adaptor: SpaceAdaptor) -> None:
        if not self._weights:
            return
        R = adaptor.rotation_adaptor
        psi = adaptor.translation_adaptor
        for label, w in list(self._weights.items()):
            w_new = R @ w
            self._weights[label] = w_new
            self._biases[label] = self._biases[label] - float(w_new @ psi)

    def snapshot(self) -> LinearSVMState:
        """The learner's checkpoint state (a copy)."""
        return LinearSVMState(
            rng=self.rng.bit_generator.state,
            weights={label: w.copy() for label, w in self._weights.items()},
            biases=dict(self._biases),
            t=self._t,
            n_seen=self._n_seen,
            dim=self._dim,
        )

    def restore(self, state: LinearSVMState, dimension: Optional[int] = None) -> None:
        """Load a :meth:`snapshot` into a fresh learner; refuses a misfit."""
        misfit = dimension is not None and getattr(state, "dim", None) not in (
            None, dimension
        )
        if not isinstance(state, LinearSVMState) or misfit:
            raise CheckpointError(
                f"checkpoint miner state does not fit a linear SVM of "
                f"{dimension} features"
            )
        self.rng.bit_generator.state = state.rng
        self._weights = {label: w.copy() for label, w in state.weights.items()}
        self._biases = dict(state.biases)
        self._t = state.t
        self._n_seen = state.n_seen
        self._dim = state.dim

    def export_predict_state(self) -> Dict[str, object]:
        """Snapshot the per-class weights/biases for out-of-process prediction."""
        if not self._weights:
            return {"kind": "linear_svm", "classes": None,
                    "weights": None, "biases": None}
        classes = self.classes_
        return {
            "kind": "linear_svm",
            "classes": classes,
            "weights": np.vstack([self._weights[label] for label in classes]),
            "biases": np.asarray([self._biases[label] for label in classes]),
        }


def predict_from_state(state: Dict[str, object], X: np.ndarray) -> np.ndarray:
    """Predict from a frozen :meth:`OnlineClassifier.export_predict_state` dict.

    A pure function of ``(state, X)`` — the sharded engine runs it inside
    worker shards (any backend) and the result is bit-identical to calling
    ``predict`` on the live model the state was exported from, because it
    performs the same operations on the same arrays:

    * ``knn`` states rebuild the batch :class:`KNNClassifier` exactly like
      :meth:`ReservoirKNN.predict` does on a reservoir change;
    * ``linear_svm`` states replay the one-vs-rest argmax over
      ``X @ W' + b`` with the class columns in the same sorted order.

    Rows predicted before any training data exists get label 0, matching
    the live models.
    """
    X, _ = validate_Xy(X)
    kind = state["kind"]
    if kind == "knn":
        if state["rows"] is None:
            return np.zeros(X.shape[0], dtype=int)
        model = KNNClassifier(n_neighbors=state["n_neighbors"]).fit(
            np.asarray(state["rows"]), np.asarray(state["labels"])
        )
        return model.predict(X)
    if kind == "linear_svm":
        if state["classes"] is None:
            return np.zeros(X.shape[0], dtype=int)
        classes = np.asarray(state["classes"])
        scores = X @ np.asarray(state["weights"]).T + np.asarray(state["biases"])
        return classes[np.argmax(scores, axis=1)]
    raise ValueError(f"unknown predict-state kind {kind!r}")


def make_online_classifier(
    name: str, seed: int = 0, **params
) -> OnlineClassifier:
    """Factory: ``"knn"`` -> :class:`ReservoirKNN`, ``"linear_svm"`` ->
    :class:`OnlineLinearSVM`."""
    if name == "knn":
        return ReservoirKNN(seed=seed, **params)
    if name == "linear_svm":
        return OnlineLinearSVM(seed=seed, **params)
    raise ValueError(
        f"unknown online classifier {name!r}; use 'knn' or 'linear_svm'"
    )
