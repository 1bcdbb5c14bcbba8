"""Ensemble baselines for Table VI: DWM and ARF.

Both present a single evolving "model" to the stream (model_id is
constant), which is exactly why the paper's C-F1 for them collapses to
2/(k+... ) — they cannot track recurring concepts.

DWM — Dynamic Weighted Majority (Kolter & Maloof): Gaussian NB experts,
weight β-decay on expert error every ``period`` observations, pruning at
``theta``, new expert when the ensemble errs.

ARF — Adaptive Random Forest (Gomes et al.): ``n_trees`` Hoeffding
trees, Poisson(6) online bagging, per-tree random feature subspace
(sqrt(d)+1), per-tree ADWIN on errors that resets the tree on drift.
Simplification (DESIGN.md): no warning-triggered background trees —
drift resets in place.
"""
from __future__ import annotations

import numpy as np

from repro.classifiers.hoeffding_tree import HoeffdingTree
from repro.classifiers.naive_bayes import GaussianNB
from repro.detectors.adwin import ADWIN


class DWM:
    beta = 0.5        # weight factor of an expert that errs on an update step
    theta = 0.01      # experts whose weight falls below this are pruned
    period = 50       # observations between weight updates
    max_experts = 10

    def __init__(self, n_features: int, n_classes: int):
        self.n_features = n_features
        self.n_classes = n_classes
        self.experts = [GaussianNB(n_features, n_classes)]
        self.weights = [1.0]
        self._i = 0
        self.n_drifts = 0

    def _vote(self, x: np.ndarray) -> tuple[int, list[int]]:
        scores = np.zeros(self.n_classes)
        preds = []
        for e, w in zip(self.experts, self.weights):
            p = e.predict(x)
            preds.append(p)
            scores[p] += w
        return int(np.argmax(scores)), preds

    def process(self, x: np.ndarray, y: int):
        self._i += 1
        pred, preds = self._vote(x)
        update_step = self._i % self.period == 0
        for k, e in enumerate(self.experts):
            if preds[k] != y and update_step:
                self.weights[k] *= self.beta
        if update_step:
            mx = max(self.weights)
            if mx > 0:
                self.weights = [w / mx for w in self.weights]
            keep = [k for k, w in enumerate(self.weights) if w >= self.theta]
            if keep:
                self.experts = [self.experts[k] for k in keep]
                self.weights = [self.weights[k] for k in keep]
            if pred != y and len(self.experts) < self.max_experts:
                self.experts.append(GaussianNB(self.n_features, self.n_classes))
                self.weights.append(1.0)
        for e in self.experts:
            e.partial_fit(x, y)
        return pred, 0


class ARF:
    n_trees = 10
    adwin_delta = 0.01  # each tree's ADWIN δ over its 0/1 errors

    def __init__(self, n_features: int, n_classes: int, *, seed: int = 0):
        self.n_features = n_features
        self.n_classes = n_classes
        self.rng = np.random.default_rng(seed)
        k = max(1, int(np.sqrt(n_features)) + 1)
        self.subspaces = [
            self.rng.choice(n_features, size=min(k, n_features), replace=False)
            for _ in range(self.n_trees)
        ]
        self.trees = [self._new_tree(t) for t in range(self.n_trees)]
        self.detectors = [ADWIN(delta=self.adwin_delta) for _ in range(self.n_trees)]
        self.acc_correct = np.ones(self.n_trees)
        self.acc_total = np.full(self.n_trees, 2.0)
        self.n_drifts = 0

    def _new_tree(self, t: int) -> HoeffdingTree:
        k = len(self.subspaces[t])
        return HoeffdingTree(k, self.n_classes, grace_period=50)

    def process(self, x: np.ndarray, y: int):
        votes = np.zeros(self.n_classes)
        preds = np.empty(self.n_trees, dtype=int)
        for t in range(self.n_trees):
            xt = x[self.subspaces[t]]
            p = self.trees[t].predict(xt)
            preds[t] = p
            votes[p] += self.acc_correct[t] / self.acc_total[t]
        pred = int(np.argmax(votes))
        for t in range(self.n_trees):
            xt = x[self.subspaces[t]]
            err = float(preds[t] != y)
            self.acc_correct[t] += 1 - err
            self.acc_total[t] += 1
            k = self.rng.poisson(6.0)
            for _ in range(min(k, 10)):
                self.trees[t].partial_fit(xt, y)
            if self.detectors[t].add(err):
                self.n_drifts += 1
                self.trees[t] = self._new_tree(t)
                self.detectors[t].reset()
                self.acc_correct[t] = 1.0
                self.acc_total[t] = 2.0
        return pred, 0
