"""RCD baseline (Gonçalves & De Barros 2013) — Table VI.

Recurring Concept Drift framework: one classifier per concept plus a
stored buffer of observations describing the concept's p(X). EDDM on
prequential errors signals warning/drift; during warning, observations
accumulate in a candidate buffer. On drift, the candidate buffer is
tested against every stored concept's buffer with a multivariate
two-sample test; a match reactivates that concept's classifier,
otherwise a new concept is created.

Substitution (DESIGN.md #5): RCD's nearest-neighbour multivariate test
is replaced by per-feature Kolmogorov–Smirnov statistics with a
Bonferroni-style acceptance (match iff no feature rejects at the scaled
critical value) — the same accept/reject recurrence decision on stored
observation buffers.
"""
from __future__ import annotations

import numpy as np

from repro.classifiers.hoeffding_tree import HoeffdingTree
from repro.detectors.eddm import EDDM

_BUFFER = 100
_KS_ALPHA = 0.005  # family-wise level of the per-feature KS tests


def _ks_stat(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample KS statistic."""
    allv = np.sort(np.concatenate([a, b]))
    cdf_a = np.searchsorted(np.sort(a), allv, side="right") / len(a)
    cdf_b = np.searchsorted(np.sort(b), allv, side="right") / len(b)
    return float(np.max(np.abs(cdf_a - cdf_b)))


def buffers_match(a: np.ndarray, b: np.ndarray) -> bool:
    """True iff no feature's KS test rejects at Bonferroni-corrected ``_KS_ALPHA``."""
    d = a.shape[1]
    alpha_c = _KS_ALPHA / d
    # asymptotic KS critical value
    c = np.sqrt(-0.5 * np.log(alpha_c / 2.0))
    crit = c * np.sqrt((len(a) + len(b)) / (len(a) * len(b)))
    return all(_ks_stat(a[:, j], b[:, j]) <= crit for j in range(d))


class _Concept:
    def __init__(self, cid: int, classifier, buffer: np.ndarray):
        self.id = cid
        self.classifier = classifier
        self.buffer = buffer


class RCD:
    def __init__(self, n_features: int, n_classes: int):
        self.n_features = n_features
        self.n_classes = n_classes
        self.detector = EDDM()
        self._recent: list[np.ndarray] = []
        self._next_id = 1
        self.concepts: list[_Concept] = []
        self.active = _Concept(0, self._new_tree(), np.empty((0, n_features)))
        self.concepts.append(self.active)
        self.n_drifts = 0

    def _new_tree(self) -> HoeffdingTree:
        return HoeffdingTree(self.n_features, self.n_classes)

    def process(self, x: np.ndarray, y: int):
        pred = self.active.classifier.predict(x)
        self.active.classifier.partial_fit(x, y)
        self._recent.append(x)
        if len(self._recent) > _BUFFER:
            self._recent.pop(0)
        signal = self.detector.add(int(pred != y))
        if signal == "drift" and len(self._recent) >= 30:
            self.n_drifts += 1
            window = np.stack(self._recent)
            # snapshot the outgoing concept's buffer
            self.active.buffer = window
            match = None
            for c in self.concepts:
                if c is self.active or len(c.buffer) < 30:
                    continue
                if buffers_match(window, c.buffer):
                    match = c
                    break
            if match is not None:
                self.active = match
            else:
                self.active = _Concept(self._next_id, self._new_tree(), window)
                self._next_id += 1
                self.concepts.append(self.active)
            self._recent = []
        return pred, self.active.id
