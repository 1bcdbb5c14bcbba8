"""Incremental Gaussian Naive Bayes.

Used standalone as the DWM expert, and as the statistics and scorer of
every Hoeffding-tree leaf. Per-class, per-feature running Gaussian
statistics via Welford updates; O(d) per observation.
"""
from __future__ import annotations

import numpy as np

_EPS = 1e-9


class GaussianNB:
    """Online Gaussian NB over ``n_features`` numeric features."""

    def __init__(self, n_features: int, n_classes: int):
        self.n_features = n_features
        self.n_classes = n_classes
        self.class_counts = np.zeros(n_classes)
        # Welford per (class, feature)
        self.mean = np.zeros((n_classes, n_features))
        self.m2 = np.zeros((n_classes, n_features))

    @property
    def total(self) -> float:
        return float(self.class_counts.sum())

    def partial_fit(self, x: np.ndarray, y: int) -> None:
        self.class_counts[y] += 1
        n = self.class_counts[y]
        delta = x - self.mean[y]
        self.mean[y] += delta / n
        self.m2[y] += delta * (x - self.mean[y])

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        total = self.total
        if total == 0:
            return np.full(self.n_classes, 1.0 / self.n_classes)
        log_p = np.full(self.n_classes, -np.inf)
        for c in range(self.n_classes):
            nc = self.class_counts[c]
            if nc == 0:
                continue
            prior = np.log(nc / total)
            if nc < 2:
                log_p[c] = prior
                continue
            var = self.m2[c] / nc + _EPS
            log_p[c] = prior - 0.5 * np.sum(
                np.log(2 * np.pi * var) + (x - self.mean[c]) ** 2 / var
            )
        log_p -= log_p.max()
        p = np.exp(log_p)
        return p / p.sum()

    def predict_proba_batch(self, X: np.ndarray) -> np.ndarray:
        """:meth:`predict_proba` of every row of ``X``, as a
        (len(X), n_classes) block bit-identical to stacking the per-row
        calls: the same elementwise steps, with each per-row sum a
        reduction over the contiguous last axis (numpy's pairwise sum,
        grouped as for a 1-D array)."""
        total = self.total
        if total == 0:
            return np.full((len(X), self.n_classes), 1.0 / self.n_classes)
        log_p = np.full((len(X), self.n_classes), -np.inf)
        counts = self.class_counts
        seen = counts > 0
        log_p[:, seen] = np.log(counts[seen] / total)  # the prior; nc >= 2 adds the Gaussian term
        nb = np.flatnonzero(counts >= 2)
        if nb.size:
            nc = counts[nb]
            var = self.m2[nb] / nc[:, None] + _EPS
            terms = np.log(2 * np.pi * var) + (X[:, None, :] - self.mean[nb]) ** 2 / var
            log_p[:, nb] -= 0.5 * terms.sum(axis=2)
        log_p -= log_p.max(axis=1, keepdims=True)
        p = np.exp(log_p)
        return p / p.sum(axis=1, keepdims=True)

    def predict(self, x: np.ndarray) -> int:
        return int(np.argmax(self.predict_proba(x)))
