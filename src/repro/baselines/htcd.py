"""HTCD baseline: Hoeffding Tree reset on ADWIN error drift (Table VI).

A single incremental tree; 0/1 prequential errors feed ADWIN; on drift
the tree is discarded and a fresh one built — no repository, so every
segment gets a new model id (its C-F1 is bounded by segment length).
"""
from __future__ import annotations

import numpy as np

from repro.classifiers.hoeffding_tree import HoeffdingTree
from repro.detectors.adwin import ADWIN

_DELTA = 0.002  # ADWIN's δ over the 0/1 errors


class HTCD:
    def __init__(self, n_features: int, n_classes: int):
        self.n_features = n_features
        self.n_classes = n_classes
        self.tree = HoeffdingTree(n_features, n_classes)
        self.detector = ADWIN(delta=_DELTA)
        self.model_id = 0
        self.n_drifts = 0

    def process(self, x: np.ndarray, y: int):
        pred = self.tree.predict(x)
        self.tree.partial_fit(x, y)
        if self.detector.add(float(pred != y)):
            self.n_drifts += 1
            self.model_id += 1
            self.tree = HoeffdingTree(self.n_features, self.n_classes)
            self.detector.reset()
        return pred, self.model_id
