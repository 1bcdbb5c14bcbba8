"""Evaluation metrics (Section II): Cohen's κ and co-occurrence C-F1.

Discrimination ability lives in ``repro.core.discrimination``."""
from __future__ import annotations

import numpy as np

_EPS = 1e-12


def kappa(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Cohen's kappa of prequential predictions against ground truth."""
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    n = len(y_true)
    if n == 0:
        return 0.0
    labels = np.unique(np.concatenate([y_true, y_pred]))
    p0 = float(np.mean(y_true == y_pred))
    pe = 0.0
    for c in labels:
        pe += float(np.mean(y_true == c)) * float(np.mean(y_pred == c))
    if 1.0 - pe < _EPS:
        return 0.0
    return (p0 - pe) / (1.0 - pe)


def c_f1(concept_ids: np.ndarray, model_ids: np.ndarray) -> float:
    """Co-occurrence F1 (Section II).

    For each ground-truth concept C, the best-tracking model M maximizes
    F1 of the co-occurrence contingency; C-F1 averages that maximum over
    concepts.
    """
    concept_ids = np.asarray(concept_ids)
    model_ids = np.asarray(model_ids)
    concepts = np.unique(concept_ids)
    models = np.unique(model_ids)
    scores = []
    for c in concepts:
        in_c = concept_ids == c
        best = 0.0
        for m in models:
            in_m = model_ids == m
            tp = float(np.sum(in_c & in_m))
            if tp == 0:
                continue
            prec = tp / float(np.sum(in_m))
            rec = tp / float(np.sum(in_c))
            best = max(best, 2 * prec * rec / (prec + rec))
        scores.append(best)
    return float(np.mean(scores)) if scores else 0.0

