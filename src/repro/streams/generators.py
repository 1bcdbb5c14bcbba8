"""Concept generators: labelling functions and p(X) modulation.

A *concept* is a pair (labeler, channel):

- the **labeler** defines p(y|X) on a latent uniform feature vector
  ``u`` ∈ [0,1]^d — STAGGER rules, RBF centroid mixtures, random
  decision trees, or hyperplanes;
- the **channel** defines p(X): the observed features are a per-concept
  transform of the latent Gaussian process behind ``u`` — mean/scale/
  skew shifts (distribution drift), an AR(1) coefficient (autocorrelation
  drift) and a sine overlay (frequency drift), mirroring how the paper
  injects p(X) change in HPLANE-U / RTREE-U / Synth_{D,A,F}.

Keeping the labeler on the latent ``u`` while drifting the observation
transform lets Synth_* streams drift purely in p(X) (fixed labeler),
while the -U datasets change labeler *and* channel per concept.

``generate_segment`` builds a segment in array passes. Each labeler has
one method, ``labels(U)``, which labels a whole ``(n, d)`` block and is
called once per segment. Only the features with ρ ≠ 0 run the AR(1)
recursion row by row; for ρ = 0 the step ``0·z + 1.0·ε`` is exactly ε,
so those columns are the innovations themselves. The block forms give
the same floats as labelling and recursing one row at a time (the
per-row forms are references in ``tests/reference.py``).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.classifiers.hoeffding_tree import _erf


def _norm_cdf(z: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + _erf(z / np.sqrt(2.0)))


# --------------------------------------------------------------- labelers
class StaggerLabeler:
    """Classic STAGGER rules over 3 categorical features (encoded 0/1/2).

    variant 0: size=small AND color=red; 1: color=green OR shape=circle;
    2: size in {medium, large}.
    """

    n_features = 3
    n_classes = 2

    def __init__(self, variant: int):
        self.variant = variant % 3

    def labels(self, U: np.ndarray) -> np.ndarray:
        size, color, shape = np.minimum((U[:, :3] * 3).astype(int), 2).T
        if self.variant == 0:
            hit = (size == 0) & (color == 0)
        elif self.variant == 1:
            hit = (color == 1) | (shape == 0)
        else:
            hit = size >= 1
        return hit.astype(np.int64)


class RBFLabeler:
    """Radial-basis labeler: fixed centroids, per-concept class permutation.

    Centroid positions are shared across concepts of a dataset (seeded by
    ``base_seed``); each concept permutes the centroid→class map, so the
    drift is purely in p(y|X) — matching the paper's note that RBF's main
    discriminant is the labelling function.
    """

    n_centroids = 12

    def __init__(self, n_features: int, n_classes: int, base_seed: int, concept_seed: int):
        self.n_features = n_features
        self.n_classes = n_classes
        g = np.random.default_rng(base_seed)
        self.centroids = g.random((self.n_centroids, n_features))
        gc = np.random.default_rng(concept_seed)
        base = np.arange(self.n_centroids) % n_classes
        self.classes = gc.permutation(base)

    def labels(self, U: np.ndarray) -> np.ndarray:
        # (n, 12, d): each norm reduces the same contiguous last axis as
        # one row's norm, and argmin keeps the first of tied centroids
        diff = self.centroids - U[:, None, : self.n_features]
        return self.classes[np.argmin(np.linalg.norm(diff, axis=2), axis=1)]


class RandomTreeLabeler:
    """Random binary decision tree over [0,1]^d (scikit-multiflow style)."""

    min_depth = 2

    def __init__(self, n_features: int, n_classes: int, seed: int):
        self.n_features = n_features
        self.n_classes = n_classes
        # leaves must cover all classes; shallow trees keep concepts
        # learnable at our scaled segment lengths (see EXPERIMENTS.md)
        depth = max(self.min_depth, int(np.ceil(np.log2(max(n_classes, 2)))))
        g = np.random.default_rng(seed)
        n_internal = 2**depth - 1
        self.feats = g.integers(0, n_features, n_internal)
        self.thrs = g.random(n_internal) * 0.6 + 0.2
        n_leaves = 2**depth
        # round-robin base guarantees every class appears, then shuffle
        base = np.arange(n_leaves) % n_classes
        self.leaves = g.permutation(base)
        self.depth = depth

    def labels(self, U: np.ndarray) -> np.ndarray:
        rows = np.arange(len(U))
        node = np.zeros(len(U), dtype=np.int64)
        for _ in range(self.depth):
            node = 2 * node + np.where(U[rows, self.feats[node]] > self.thrs[node], 1, 2)
        return self.leaves[node - (2**self.depth - 1)]


class HyperplaneLabeler:
    """label = 1 iff w·u > w·0.5 (through-the-center hyperplane)."""

    n_classes = 2

    def __init__(self, n_features: int, seed: int):
        self.n_features = n_features
        g = np.random.default_rng(seed)
        self.w = g.normal(size=n_features)

    def labels(self, U: np.ndarray) -> np.ndarray:
        # w @ (d, 1) per row makes the same BLAS ddot call, with w first,
        # as np.dot(w, u). U @ w (gemv) and u @ w (ddot with u first) can
        # both round the last bit differently: with d odd, the kernel's
        # result depends on which operand comes first.
        wu = np.matmul(self.w, U[:, : self.n_features, None])[:, 0]
        return (wu > 0.5 * self.w.sum()).astype(np.int64)


# ---------------------------------------------------------------- channel
@dataclass
class Channel:
    """Observation transform of the latent Gaussian process.

    z_t = rho * z_{t-1} + sqrt(1-rho²) ε_t;  u_t = Φ(z_t) feeds the
    labeler;  x_t = shift + scale * g(z_t) + amp * sin(2π freq t + phase)
    with g a per-feature skew transform.
    """

    n_features: int
    shift: np.ndarray = None
    scale: np.ndarray = None
    skew: np.ndarray = None
    rho: np.ndarray = None
    amp: np.ndarray = None
    freq: np.ndarray = None
    phase: np.ndarray = None

    def __post_init__(self):
        d = self.n_features
        z = np.zeros(d)
        self.shift = z if self.shift is None else np.asarray(self.shift, float)
        self.scale = np.ones(d) if self.scale is None else np.asarray(self.scale, float)
        self.skew = z.copy() if self.skew is None else np.asarray(self.skew, float)
        self.rho = z.copy() if self.rho is None else np.asarray(self.rho, float)
        self.amp = z.copy() if self.amp is None else np.asarray(self.amp, float)
        self.freq = z.copy() if self.freq is None else np.asarray(self.freq, float)
        self.phase = z.copy() if self.phase is None else np.asarray(self.phase, float)

    @staticmethod
    def random(n_features: int, seed: int, *, distribution=False,
               autocorrelation=False, frequency=False) -> "Channel":
        """Concept-specific channel with the requested drift axes enabled."""
        g = np.random.default_rng(seed)
        kw: dict = {"n_features": n_features}
        if distribution:
            kw["shift"] = g.uniform(-1.5, 1.5, n_features)
            kw["scale"] = g.uniform(0.4, 2.0, n_features)
            kw["skew"] = g.uniform(-1.2, 1.2, n_features)
        if autocorrelation:
            kw["rho"] = g.uniform(0.0, 0.95, n_features)
        if frequency:
            kw["amp"] = g.uniform(0.3, 1.2, n_features)
            kw["freq"] = g.uniform(0.02, 0.3, n_features)
            kw["phase"] = g.uniform(0, 2 * np.pi, n_features)
        return Channel(**kw)


def generate_segment(
    labeler,
    channel: Channel,
    n: int,
    rng: np.random.Generator,
    t0: int = 0,
    z0: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Generate ``n`` observations of one concept.

    Returns (X observed features, y labels, z_final) — ``z_final`` lets
    consecutive segments of the same AR process stay continuous.
    """
    d = channel.n_features
    z = rng.normal(size=d) if z0 is None else z0.copy()
    eps = rng.normal(size=(n, d))
    # for rho = 0, 0·z + 1.0·ε is exactly ε, so only the features with
    # rho != 0 run the AR(1) recursion, over their columns of eps
    Z = eps
    ar = np.flatnonzero(channel.rho)
    if len(ar):
        rho, e = channel.rho[ar], eps[:, ar]
        innov = np.sqrt(1.0 - rho**2)
        z_ar = z[ar]
        for t in range(n):
            z_ar = rho * z_ar + innov * e[t]
            Z[t, ar] = z_ar
    if n:
        z = Z[-1].copy()
    U = _norm_cdf(Z)
    skew = channel.skew
    G = np.where(
        np.abs(skew) > 1e-9,
        (np.exp(skew * Z) - 1.0) / np.where(np.abs(skew) > 1e-9, skew, 1.0),
        Z,
    )
    tt = (t0 + np.arange(n))[:, None]
    X = channel.shift + channel.scale * G + channel.amp * np.sin(
        2 * np.pi * channel.freq * tt + channel.phase
    )
    y = labeler.labels(U)
    return X, y, z
