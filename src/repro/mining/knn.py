"""K-nearest-neighbour classifier.

KNN is the paper's first representative learner (Figure 5): it classifies
by Euclidean distance alone, so it is *exactly* invariant under the
rotation + translation part of a geometric perturbation and degrades only
with the additive-noise component.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .base import Classifier, check_count, check_fitted, validate_Xy
from .kernels import pairwise_sq_distances

__all__ = ["KNNClassifier"]

#: training sets of more rows than this vote over argpartition's pick.
#: On one thread, the set vote takes 0.5-0.9x argpartition's time on rows
#: of up to 512 distances, but 0.9-1.2x at 1,024 and 1.0-1.8x at
#: 1,600-4,096: its compare and matmul pass over the whole row, where the
#: index vote gathers only k entries.
_SET_VOTE_MAX_TRAIN = 512


class KNNClassifier(Classifier):
    """Majority-vote K-nearest-neighbour classifier.

    A uniform vote depends only on *which* ``k`` training rows are
    nearest, so it is counted over that set: each row's k-th smallest
    distance comes from a value partition (``np.partition``), and the
    labels of the rows at or below it are counted.  When a tie at the k-th
    distance straddles position ``k`` and every tied row carries one
    label, that label gives back the surplus, so the votes equal those of
    any choice among the tied rows.  The rows that do depend on a choice —
    ties whose labels differ, or a NaN k-th distance — fall back to
    ``np.argpartition`` and vote over the indices it picks, as do
    ``weights="distance"`` (its float sums follow argpartition's order),
    ``n_neighbors >= n_train`` and training sets of more than 512 rows,
    on which the set vote is the slower.  Which tied indices argpartition
    picks depends on numpy's CPU dispatch, so a label-mixed tie can vote
    differently on different machines.

    Parameters
    ----------
    n_neighbors:
        Number of neighbours consulted (the paper's experiments use small
        odd values; 5 is the default here).
    weights:
        ``"uniform"`` for plain majority vote or ``"distance"`` for
        inverse-distance weighting (a standard refinement; used by the
        ablation benchmarks).
    batch_size:
        Prediction computes a distance block of ``batch_size x n_train`` at
        a time to bound memory on larger tables.
    """

    def __init__(
        self,
        n_neighbors: int = 5,
        weights: str = "uniform",
        batch_size: int = 512,
    ) -> None:
        check_count("n_neighbors", n_neighbors)
        check_count("batch_size", batch_size)
        if weights not in ("uniform", "distance"):
            raise ValueError("weights must be 'uniform' or 'distance'")
        self.n_neighbors = n_neighbors
        self.weights = weights
        self.batch_size = batch_size
        self._X: Optional[np.ndarray] = None
        self._y_index: Optional[np.ndarray] = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "KNNClassifier":
        X, y = validate_Xy(X, y)
        self._classes, y_index = np.unique(y, return_inverse=True)
        self._X = X.copy()
        self._y_index = y_index
        self._fitted = True
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        check_fitted(self)
        X, _ = validate_Xy(X)
        n_train = self._X.shape[0]
        k = min(self.n_neighbors, n_train)
        by_set = self.weights == "uniform" and k < n_train <= _SET_VOTE_MAX_TRAIN
        out = np.empty(X.shape[0], dtype=self._classes.dtype)

        for start in range(0, X.shape[0], self.batch_size):
            block = X[start : start + self.batch_size]
            # One product per block: BLAS rounds some entries differently
            # when the same rows are multiplied in smaller pieces.
            sq = pairwise_sq_distances(block, self._X)
            votes = self._set_votes(sq, k) if by_set else self._index_votes(sq, k)
            # Ties break toward the smaller class label (argmax is stable),
            # which keeps predictions deterministic run to run.
            out[start : start + len(block)] = self._classes[np.argmax(votes, axis=1)]
        return out

    def _set_votes(self, sq: np.ndarray, k: int) -> np.ndarray:
        """Uniform votes of each row's ``k`` nearest training rows."""
        # A 0/1 neighbour mask times this counts each class's votes exactly.
        classes = np.arange(len(self._classes))
        one_hot = (self._y_index[:, None] == classes).astype(float)
        mask = np.partition(sq, k - 1, axis=1)
        kth = mask[:, k - 1 : k].copy()
        np.less_equal(sq, kth, out=mask)
        votes = mask @ one_hot
        # More than k rows at or below the k-th distance: a tie straddles
        # position k.  None at all: the k-th distance is NaN.
        surplus = votes.sum(axis=1) - k
        rows = np.flatnonzero(surplus)
        if rows.size:
            # A single-label tie hands its label the surplus back; the
            # other rows vote over argpartition's pick.
            tied = np.equal(sq[rows], kth[rows]) @ one_hot
            single = (surplus[rows] > 0) & (np.count_nonzero(tied, axis=1) == 1)
            one = rows[single]
            votes[one, np.argmax(tied[single], axis=1)] -= surplus[one]
            mixed = rows[~single]
            if mixed.size:
                votes[mixed] = self._index_votes(sq[mixed], k)
        return votes

    def _index_votes(self, sq: np.ndarray, k: int) -> np.ndarray:
        """Votes of the ``k`` rows ``np.argpartition`` picks per row."""
        neighbour_idx = np.argpartition(sq, kth=k - 1, axis=1)[:, :k]
        rows = np.arange(sq.shape[0])[:, None]
        neighbour_sq = sq[rows, neighbour_idx]
        neighbour_labels = self._y_index[neighbour_idx]

        if self.weights == "uniform":
            vote_weights = np.ones_like(neighbour_sq)
        else:
            vote_weights = 1.0 / (np.sqrt(neighbour_sq) + 1e-12)

        votes = np.zeros((sq.shape[0], len(self._classes)))
        for c in range(len(self._classes)):
            votes[:, c] = np.where(neighbour_labels == c, vote_weights, 0.0).sum(
                axis=1
            )
        return votes
