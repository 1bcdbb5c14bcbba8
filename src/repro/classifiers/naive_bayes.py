"""Incremental Gaussian Naive Bayes.

Used standalone as the DWM expert, and as the statistics and scorer of
every Hoeffding-tree leaf. Per-class, per-feature running Gaussian
statistics via Welford updates, and a running observation count
(``total``); O(d) per observation.

One scorer serves a row (:meth:`GaussianNB.predict_proba`) and a block
of rows (:meth:`GaussianNB.predict_proba_batch`): each class's
log-likelihood is a sum over the contiguous last axis of a
``(C, d)`` block per row, grouped as numpy groups a 1-D sum, and
class masks keep the prior alone for classes seen fewer than twice.
It is bit-identical to the per-class loop ``naive_bayes_proba`` in
``tests/reference.py``.
"""
from __future__ import annotations

import numpy as np

_EPS = 1e-9
# the ufunc reductions behind ndarray.sum / ndarray.max, without their wrappers
_sum, _max = np.add.reduce, np.maximum.reduce


class GaussianNB:
    """Online Gaussian NB over ``n_features`` numeric features."""

    def __init__(self, n_features: int, n_classes: int):
        self.n_features = n_features
        self.n_classes = n_classes
        self.class_counts = np.zeros(n_classes)
        # ``class_counts.sum()``, kept exactly: a sum of integer-valued
        # floats is exact below 2**53
        self.total = 0.0
        # Welford per (class, feature)
        self.mean = np.zeros((n_classes, n_features))
        self.m2 = np.zeros((n_classes, n_features))

    def partial_fit(self, x: np.ndarray, y: int) -> None:
        self.class_counts[y] += 1
        self.total += 1.0
        n = self.class_counts[y]
        mean, m2 = self.mean[y], self.m2[y]  # views, updated in place
        delta = x - mean
        mean += delta / n
        m2 += delta * (x - mean)

    def _proba(self, X: np.ndarray) -> np.ndarray:
        """Class probabilities of a row ``(d,)`` or a block ``(n, d)``:
        the prior of every seen class (-inf for the others), less half the
        Gaussian log-likelihood sum for every class seen at least twice,
        normalised over the last axis."""
        counts, total = self.class_counts, self.total
        if total == 0:
            return np.full(X.shape[:-1] + (self.n_classes,), 1.0 / self.n_classes)
        prior = np.log(counts / total, out=np.full(self.n_classes, -np.inf), where=counts > 0)
        # every class's (d,) row, so the sums run over a contiguous last axis
        # of a (C, d) or (n, C, d) block; classes seen fewer than twice keep
        # their prior
        var = self.m2 / np.maximum(counts, 1)[:, None] + _EPS
        terms = np.log(2 * np.pi * var) + (X[..., None, :] - self.mean) ** 2 / var
        log_p = np.where(counts >= 2, prior - 0.5 * _sum(terms, axis=-1), prior)
        log_p -= _max(log_p, axis=-1, keepdims=True)
        p = np.exp(log_p)
        return p / _sum(p, axis=-1, keepdims=True)

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        return self._proba(x)

    def predict_proba_batch(self, X: np.ndarray) -> np.ndarray:
        """:meth:`predict_proba` of every row of ``X``, as a
        (len(X), n_classes) block bit-identical to stacking the per-row
        calls."""
        return self._proba(X)

    def predict(self, x: np.ndarray) -> int:
        return int(np.argmax(self._proba(x)))
