"""Weighted similarity and dynamic weights (Section III-B).

``similarity`` is weighted cosine for multi-dimensional fingerprints.
For the degenerate 1-dimensional ER variant cosine is uninformative
(sign only), so similarity falls back to ``1 - |a - b|`` on the
normalized values — the paper's univariate "inverse absolute
difference" idea bounded to [0, 1].

``dynamic_weights`` implements w_mi = w_sigma * w_d with
w_sigma = 1/σ_mi (scale) and w_d = max(inter-concept Fisher score,
intra-classifier Fisher score) (discrimination). w_d depends only on
the repository's statistics, so ``discrimination_factor`` computes it
apart and :meth:`repro.core.repository.Repository.discrimination`
caches it per repository state.
"""
from __future__ import annotations

import math

import numpy as np

_EPS = 1e-6


_CENTER = 0.5  # midpoint of the [0,1] normalized fingerprint range


def similarity(a: np.ndarray, b: np.ndarray, w: np.ndarray | None = None) -> float:
    """Weighted cosine similarity of fingerprints ``a`` and ``b``.

    Vectors are centered at 0.5 before the cosine: normalized
    fingerprints are all-positive, and raw cosine between positive
    high-dimensional vectors saturates near 1 regardless of concept
    (verified empirically during development), which starves ADWIN of
    signal. Centering restores sensitivity while keeping the paper's
    weighted-cosine form (documented deviation).
    """
    if len(a) == 1:
        return float(1.0 - abs(a[0] - b[0]))
    if w is None:
        w = np.ones_like(a)
    wa, wb = w * (a - _CENTER), w * (b - _CENTER)
    # np.add.reduce, not BLAS: its summation order does not depend on the
    # kernel OpenBLAS picks for the CPU (DESIGN.md, the reduction rule)
    na, nb = math.sqrt(np.add.reduce(wa * wa)), math.sqrt(np.add.reduce(wb * wb))
    if na < _EPS or nb < _EPS:
        return 1.0 if na < _EPS and nb < _EPS else 0.0
    return float(np.add.reduce(wa * wb)) / (na * nb)


_SIGMA_FLOOR = 0.01  # on the [0,1] normalized scale


def sigma_weight(sigma: np.ndarray) -> np.ndarray:
    """w_sigma = 1/σ, floored so near-constant dims cannot dominate."""
    return 1.0 / np.maximum(sigma, _SIGMA_FLOOR)


def inter_concept_fisher(mus: np.ndarray, sigmas: np.ndarray) -> np.ndarray:
    """v_s: std of per-concept means over the max within-concept std.

    ``mus``/``sigmas`` are (n_concepts, dim) stacks of repository
    fingerprint statistics.
    """
    spread = np.std(mus, axis=0)
    max_sigma = np.max(sigmas, axis=0)
    return spread / np.maximum(max_sigma, _EPS)


def intra_classifier_fisher(
    sc_sigmas: np.ndarray, own_sigmas: np.ndarray
) -> np.ndarray:
    """v_sc: mean over stored concepts of σ(μ^SC)/σ^S.

    ``sc_sigmas`` is the (n_concepts, dim) stack of the per-concept
    spread of fingerprints produced by that concept's classifier on
    foreign windows (F_SC); ``own_sigmas`` the concepts' own σ.
    """
    ratio = sc_sigmas / np.maximum(own_sigmas, _EPS)
    return np.mean(ratio, axis=0)


def discrimination_factor(
    mus: np.ndarray, sigmas: np.ndarray, sc_sigmas: np.ndarray | None = None
) -> np.ndarray:
    """w_d over (n_concepts, dim) stacks of at least two concepts'
    statistics: the inter-concept Fisher score, or its max with the
    intra-classifier one when ``sc_sigmas`` is given, scaled by its
    median and clipped to [0.25, 4]."""
    w_d = inter_concept_fisher(mus, sigmas)
    if sc_sigmas is not None and len(sc_sigmas) >= 1:
        w_d = np.maximum(w_d, intra_classifier_fisher(sc_sigmas, sigmas[: len(sc_sigmas)]))
    # clamp the discrimination factor: unbounded Fisher scores would
    # concentrate all weight on a handful of dims, making similarity
    # a noisy ±1 sign (observed during development)
    med = np.median(w_d[w_d > _EPS]) if np.any(w_d > _EPS) else 1.0
    return np.clip(w_d / max(med, _EPS), 0.25, 4.0)


def dynamic_weights(ref_sigma: np.ndarray, w_d: np.ndarray | None = None) -> np.ndarray:
    """Combined weight vector w_sigma * w_d, normalized to mean 1 and clipped.

    ``ref_sigma`` — σ of the concept fingerprint being compared against
    (scale weight). ``w_d`` is :func:`discrimination_factor` of the
    repository, or None while it holds fewer than two trained concepts:
    the discrimination weight is then uniform (nothing to discriminate yet).
    """
    w = sigma_weight(ref_sigma)
    if w_d is not None:
        w = w * w_d
    mean = w.mean()
    if mean > _EPS:
        w = w / mean
    return np.clip(w, 0.1, 10.0)
