"""Fingerprint construction (Section III-A).

A *fingerprint* is a vector of meta-information features computed from a
window of labeled observations. The window is split into behaviour
sources — the ``d`` feature sequences, ground-truth labels ``y``,
classifier labels ``l``, the error sequence and the error-distance
sequence — and each source is distilled by the configured
meta-information functions. The classifier-derived Shapley feature
(path attribution, one value per input feature) is appended for feature
sources when a tree is supplied.

Model selection and the discrimination oracle fingerprint one window
under several classifiers. ``compute_fingerprint`` takes those
labellings as one (n, w) stack: the classifier-free sources (features
and ``y``) are distilled once, and every labelling's ``l`` and error
columns join the same batched kernel call. The stand-alone drift monitor
fingerprints every periodic window of a micro-batch the same way, as one
(m, w, d) stack of windows.

``Normalizer`` tracks the online min/max of every fingerprint dimension
and rescales to [0,1] (Section III-A "the observed range of each
meta-information feature is scaled to [0,1]").

``ConceptFingerprint`` is the online (μ, σ, count) triple per dimension
(Welford) that represents a concept across incorporated fingerprints.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.meta_features import (
    SEQUENCE_FUNCTIONS,
    compute_feature_matrix,
    compute_sequence_features,
)

SUPERVISED_SOURCES = ("y", "l", "error", "error_dist")
#: dims depending on classifier output — reset on significant tree growth
CLASSIFIER_SOURCES = ("l", "error", "error_dist")


@dataclass(frozen=True)
class FingerprintSchema:
    """Layout of a fingerprint vector.

    ``source_mode`` selects behaviour sources per the paper's variants:
    ``all`` (FiCSUM), ``supervised`` (S-MI), ``unsupervised`` (U-MI) or
    ``error_rate`` (ER: the single mean-of-errors feature).
    ``functions`` restricts the meta-information functions (Table V's
    single-function variants); "shapley" enables the tree-importance
    feature on the ``d`` feature sources.
    """

    n_features: int
    source_mode: str = "all"
    functions: tuple[str, ...] = field(
        default_factory=lambda: tuple(SEQUENCE_FUNCTIONS) + ("shapley",)
    )

    def __post_init__(self):
        if self.source_mode not in ("all", "supervised", "unsupervised", "error_rate"):
            raise ValueError(f"unknown source_mode {self.source_mode!r}")
        for f in self.functions:
            if f not in SEQUENCE_FUNCTIONS and f != "shapley":
                raise ValueError(f"unknown function {f!r}")

    @property
    def seq_functions(self) -> list[str]:
        return [f for f in self.functions if f != "shapley"]

    @property
    def use_shapley(self) -> bool:
        return "shapley" in self.functions and self.source_mode in ("all", "unsupervised")

    @property
    def sources(self) -> list[str]:
        feats = [f"x{i}" for i in range(self.n_features)]
        if self.source_mode == "all":
            return feats + list(SUPERVISED_SOURCES)
        if self.source_mode == "supervised":
            return list(SUPERVISED_SOURCES)
        if self.source_mode == "unsupervised":
            return feats
        return ["error"]  # error_rate

    def dim_labels(self) -> list[tuple[str, str]]:
        """(source, function) label per dimension, in vector order."""
        if self.source_mode == "error_rate":
            return [("error", "mean")]
        labels = [(s, f) for s in self.sources for f in self.seq_functions]
        if self.use_shapley:
            labels += [(f"x{i}", "shapley") for i in range(self.n_features)]
        return labels

    @property
    def dim(self) -> int:
        return len(self.dim_labels())

    def classifier_dim_mask(self) -> np.ndarray:
        """True for dims that depend on classifier output (plasticity reset)."""
        return np.array(
            [src in CLASSIFIER_SOURCES or fn == "shapley" for src, fn in self.dim_labels()]
        )


def error_distance_sequence(errors: np.ndarray) -> np.ndarray:
    """Gaps between consecutive errors inside the window (paper Sec III-A)."""
    idx = np.flatnonzero(errors)
    if len(idx) < 2:
        return np.array([])
    return np.diff(idx).astype(float)


def compute_fingerprint(
    X: np.ndarray,
    y: np.ndarray,
    l: np.ndarray,
    schema: FingerprintSchema,
    tree=None,
) -> np.ndarray:
    """Raw (unnormalized) fingerprint of window (X, y, l) under ``schema``.

    ``tree`` must provide ``feature_contributions(X)`` when the schema's
    shapley feature is enabled; pass None to emit zeros there (e.g. the
    classifier-free streaming path).

    ``l`` may also be an (n, w) stack of labellings of the same window, with
    ``tree`` then a sequence of n trees (or None); the result is (n, dim),
    row r equal to the call with ``l[r]`` and ``tree[r]``. The
    classifier-free columns (feature sources and ``y``) enter the one
    :func:`compute_feature_matrix` call once, followed by the (l, error)
    columns of every labelling: its kernels are exact per column, so each
    row is bit-identical to a single-labelling call.

    ``X`` may also be an (m, w, d) stack of windows, with ``y`` and ``l``
    their (m, w) labels and predictions and ``tree`` None; the result is
    (m, dim), row k equal to the call with ``X[k]``, ``y[k]`` and ``l[k]``.
    Every window's columns enter the same single kernel call.
    """
    l = np.asarray(l)
    if np.ndim(X) == 3:
        return _labelled_fingerprints(X, y, l[:, None], schema, [tree])[:, 0]
    if l.ndim == 1:
        return _labelled_fingerprints(X[None], y[None], l[None, None], schema, [tree])[0, 0]
    trees = [None] * len(l) if tree is None else list(tree)
    return _labelled_fingerprints(X[None], y[None], l[None], schema, trees)[0]


def _labelled_fingerprints(X: np.ndarray, y: np.ndarray, l: np.ndarray,
                           schema: FingerprintSchema, trees: list) -> np.ndarray:
    """:func:`compute_fingerprint` of the (m, n, w) labellings ``l`` of the
    m windows ``X`` (m, w, d) with labels ``y`` (m, w): (m, n, dim), the
    n labellings of window k scored with ``trees``."""
    errors = (y[:, None] != l).astype(float)
    if schema.source_mode == "error_rate":
        return np.array([[[float(e.mean()) if e.size else 0.0] for e in ek] for ek in errors])
    sources, functions = schema.sources, schema.seq_functions
    free = [s for s in sources if s not in CLASSIFIER_SOURCES]
    per_label = [s for s in sources if s in ("l", "error")]
    cols = [Xk[:, int(s[1:])] if s.startswith("x") else yk.astype(float)
            for Xk, yk in zip(X, y) for s in free]
    for lk, ek in zip(l, errors):
        for lr, er in zip(lk, ek):
            cols += [lr.astype(float) if s == "l" else er for s in per_label]
    mat = compute_feature_matrix(np.column_stack(cols), functions)
    nf, npl = len(free), len(per_label)
    out = []
    for k, ek in enumerate(errors):
        head = mat[k * nf: (k + 1) * nf].ravel()
        rows = []
        for r, er in enumerate(ek):
            a = nf * len(X) + (k * len(ek) + r) * npl
            parts = [head, mat[a: a + npl].ravel()]
            if "error_dist" in sources:
                # variable length: the scalar path
                parts.append(compute_sequence_features(error_distance_sequence(er), functions))
            if schema.use_shapley:
                parts.append(shapley_dims(X[k], schema, trees[r]))
            rows.append(np.concatenate(parts))
        out.append(rows)
    return np.array(out)


def shapley_dims(X: np.ndarray, schema: FingerprintSchema, tree) -> np.ndarray:
    """The Shapley (path attribution) dims of window ``X``: the mean of
    ``tree``'s per-row feature contributions, zeros without a tree."""
    if tree is None:
        return np.zeros(schema.n_features)
    return np.mean(tree.feature_contributions(X), axis=0)


class Normalizer:
    """Online per-dimension min/max scaling to [0,1]."""

    def __init__(self, dim: int):
        self.lo = np.full(dim, np.inf)
        self.hi = np.full(dim, -np.inf)

    def update(self, v: np.ndarray) -> None:
        self.lo = np.minimum(self.lo, v)
        self.hi = np.maximum(self.hi, v)

    def normalize(self, v: np.ndarray) -> np.ndarray:
        rng = self.hi - self.lo
        out = np.where(
            np.isfinite(rng) & (rng > 1e-12), (v - self.lo) / np.where(rng > 1e-12, rng, 1.0), 0.5
        )
        return np.clip(out, 0.0, 1.0)


class ConceptFingerprint:
    """Online per-dimension (μ, σ, count) over incorporated fingerprints.

    ``version`` counts the calls to the two mutators, ``incorporate`` and
    ``reset_dims``; the repository keys its cached discrimination factor
    on it.
    """

    #: a class default, so that a fingerprint pickled without it loads
    version = 0

    def __init__(self, dim: int):
        self.dim = dim
        self.count = np.zeros(dim)
        self.mu = np.zeros(dim)
        self.m2 = np.zeros(dim)

    @property
    def n_incorporated(self) -> float:
        return float(self.count.max()) if self.dim else 0.0

    @property
    def sigma(self) -> np.ndarray:
        return np.sqrt(
            np.where(self.count > 1, np.maximum(self.m2, 0.0) / np.maximum(self.count, 1), 0.0)
        )

    def incorporate(self, v: np.ndarray) -> None:
        self.version += 1
        self.count += 1
        delta = v - self.mu
        self.mu += delta / self.count
        self.m2 += delta * (v - self.mu)

    def reset_dims(self, mask: np.ndarray) -> None:
        """Increase plasticity of masked dims (Section IV).

        A soft reset: history is down-weighted (count and spread decay)
        so new fingerprints move μ faster, while μ itself stays
        continuous — a hard reset left stale means that destabilized the
        similarity series on datasets with frequent tree growth.
        """
        self.version += 1
        self.count[mask] *= 0.25
        self.m2[mask] *= 0.25
