"""Scalar reference implementations that the package's kernels must equal.

Each function computes one value the straightforward way, one sequence,
feature or call at a time. The package computes the same values in
batched or single-pass form:

- the 12 ``f_*`` functions of Table I (``FUNCTIONS``, in fingerprint
  order) against ``meta_features.compute_sequence_features`` and
  ``compute_feature_matrix``;
- :func:`f_mutual_info`, the ``np.histogram2d`` form, against
  ``meta_features.mutual_info_matrix``;
- :func:`imf_entropy` (the k-th mode alone) against
  ``emd.imf_entropies``;
- :func:`candidate_gain` (one feature's best split) against
  ``HoeffdingTree._candidate_gains``;
- :func:`feature_contributions` (one row's path attribution, walking
  :func:`path`) against ``HoeffdingTree.feature_contributions`` of a
  window;
- :func:`naive_bayes_proba` (one row, one class at a time) against
  ``GaussianNB.predict_proba`` and ``predict_proba_batch``, and
  :func:`tree_proba` (one row's leaf score, walking :func:`path`)
  against ``HoeffdingTree.predict`` and ``predict_batch``;
- :func:`label` (one row through one labeler) against each labeler's
  ``labels`` of a block, and :func:`generate_segment` (the AR(1)
  recursion over every feature, then one :func:`label` per row) against
  ``generators.generate_segment``;
- :func:`repository_discrimination` (the μ, σ and σ_SC stacks built
  afresh on every call) against ``Repository.discrimination``, which
  caches w_d per repository state, and :func:`dynamic_weights` (w_d
  recomputed inside every weight call) against
  ``similarity.dynamic_weights`` of ``similarity.discrimination_factor``.

The tests compare them with ``np.array_equal`` or exact equality unless
they say otherwise.
"""
from __future__ import annotations

import numpy as np

from repro.classifiers.hoeffding_tree import _EPS as _TREE_EPS
from repro.classifiers.hoeffding_tree import _N_CANDIDATES, _entropy, _erf
from repro.classifiers.naive_bayes import _EPS as _NB_EPS
from repro.core.emd import imf_entropies
from repro.core.similarity import _EPS as _SIM_EPS
from repro.core.similarity import (
    discrimination_factor,
    inter_concept_fisher,
    intra_classifier_fisher,
    sigma_weight,
)
from repro.streams.generators import (
    HyperplaneLabeler,
    RBFLabeler,
    RandomTreeLabeler,
    StaggerLabeler,
    _norm_cdf,
)

_EPS = 1e-12


def f_mean(x: np.ndarray) -> float:
    return float(np.mean(x)) if len(x) else 0.0


def f_std(x: np.ndarray) -> float:
    return float(np.std(x)) if len(x) else 0.0


def f_skew(x: np.ndarray) -> float:
    if len(x) < 3:
        return 0.0
    s = np.std(x)
    if s < _EPS:
        return 0.0
    return float(np.mean(((x - np.mean(x)) / s) ** 3))


def f_kurtosis(x: np.ndarray) -> float:
    """Excess kurtosis."""
    if len(x) < 4:
        return 0.0
    s = np.std(x)
    if s < _EPS:
        return 0.0
    return float(np.mean(((x - np.mean(x)) / s) ** 4) - 3.0)


def _acf(x: np.ndarray, lag: int) -> float:
    if len(x) <= lag + 1:
        return 0.0
    x = x - np.mean(x)
    denom = float(np.add.reduce(x * x))
    if denom < _EPS:
        return 0.0
    return float(np.add.reduce(x[:-lag] * x[lag:]) / denom)


def f_acf1(x: np.ndarray) -> float:
    return _acf(x, 1)


def f_acf2(x: np.ndarray) -> float:
    return _acf(x, 2)


def _pacf(x: np.ndarray, lag: int) -> float:
    """Partial autocorrelation via Durbin–Levinson on sample ACF."""
    if len(x) <= lag + 1:
        return 0.0
    r = np.array([1.0] + [_acf(x, k) for k in range(1, lag + 1)])
    phi = np.zeros((lag + 1, lag + 1))
    phi[1, 1] = r[1]
    for k in range(2, lag + 1):
        num = r[k] - np.dot(phi[k - 1, 1:k], r[1:k][::-1])
        den = 1.0 - np.dot(phi[k - 1, 1:k], r[1:k])
        phi[k, k] = num / den if abs(den) > _EPS else 0.0
        for j in range(1, k):
            phi[k, j] = phi[k - 1, j] - phi[k, k] * phi[k - 1, k - j]
    return float(np.clip(phi[lag, lag], -1.0, 1.0))


def f_pacf1(x: np.ndarray) -> float:
    return _pacf(x, 1)


def f_pacf2(x: np.ndarray) -> float:
    return _pacf(x, 2)


def f_mutual_info(x: np.ndarray, bins: int = 6) -> float:
    """Lag-1 self mutual information (nats) — temporal dependence."""
    if len(x) < 3 or np.ptp(x) < _EPS:
        return 0.0
    a, b = x[:-1], x[1:]
    joint, _, _ = np.histogram2d(a, b, bins=bins)
    n = joint.sum()
    if n == 0:
        return 0.0
    pxy = joint / n
    px = pxy.sum(axis=1, keepdims=True)
    py = pxy.sum(axis=0, keepdims=True)
    mask = pxy > 0
    return float(np.sum(pxy[mask] * np.log(pxy[mask] / (px @ py)[mask])))


def f_turning_point_rate(x: np.ndarray) -> float:
    """Fraction of interior points that are local extrema."""
    if len(x) < 3:
        return 0.0
    d1 = np.sign(np.diff(x[:-1]))
    d2 = np.sign(np.diff(x[1:]))
    turning = (d1 * d2) < 0
    return float(np.mean(turning))


def imf_entropy(x: np.ndarray, k: int, bins: int = 10) -> float:
    """Entropy of the k-th IMF (1-based); 0.0 when it does not exist."""
    return imf_entropies(x, n_imfs=k, bins=bins)[k - 1]


def f_imf1_entropy(x: np.ndarray) -> float:
    return imf_entropy(np.asarray(x, dtype=float), 1) if len(x) >= 8 else 0.0


def f_imf2_entropy(x: np.ndarray) -> float:
    return imf_entropy(np.asarray(x, dtype=float), 2) if len(x) >= 8 else 0.0


#: The 12 sequence functions, in ``meta_features.SEQUENCE_FUNCTIONS`` order.
FUNCTIONS = {
    "mean": f_mean,
    "std": f_std,
    "skew": f_skew,
    "kurtosis": f_kurtosis,
    "acf1": f_acf1,
    "acf2": f_acf2,
    "pacf1": f_pacf1,
    "pacf2": f_pacf2,
    "mutual_info": f_mutual_info,
    "turning_point_rate": f_turning_point_rate,
    "imf1_entropy": f_imf1_entropy,
    "imf2_entropy": f_imf2_entropy,
}


def sequence_features(x: np.ndarray, functions=None) -> np.ndarray:
    """The named reference functions (default: all 12) of ``x``."""
    return np.array([FUNCTIONS[f](x) for f in (FUNCTIONS if functions is None else functions)])


def candidate_gain(st, feat: int) -> tuple[float, float]:
    """Best (gain, threshold) for ``feat`` from the class Gaussians of the
    leaf statistics ``st`` (a ``GaussianNB``): the scalar reference that
    ``HoeffdingTree._candidate_gains`` must equal."""
    present = st.class_counts > 1
    if present.sum() == 0:
        return 0.0, 0.0
    means = st.mean[present, feat]
    stds = np.sqrt(st.m2[present, feat] / st.class_counts[present]) + _TREE_EPS
    lo = float(np.min(means - 2 * stds))
    hi = float(np.max(means + 2 * stds))
    if hi - lo < _TREE_EPS:
        return 0.0, 0.0
    base = _entropy(st.class_counts)
    best_gain, best_thr = 0.0, 0.0
    counts = st.class_counts
    total = counts.sum()
    for thr in np.linspace(lo, hi, _N_CANDIDATES + 2)[1:-1]:
        # P(x_feat <= thr | class) under the leaf Gaussian
        z = (thr - st.mean[:, feat]) / (
            np.sqrt(st.m2[:, feat] / np.maximum(counts, 1)) + _TREE_EPS
        )
        cdf = 0.5 * (1 + _erf(z / np.sqrt(2)))
        left = counts * cdf
        right = counts - left
        lt, rt = left.sum(), right.sum()
        if lt < 1 or rt < 1:
            continue
        gain = base - (lt / total) * _entropy(left) - (rt / total) * _entropy(right)
        if gain > best_gain:
            best_gain, best_thr = float(gain), float(thr)
    return best_gain, best_thr


def path(tree, x: np.ndarray) -> list:
    """The nodes of ``tree`` (a ``HoeffdingTree``) that row ``x`` passes,
    root to leaf."""
    node, out = tree.root, [tree.root]
    while not node.is_leaf:
        node = node.left if x[node.split_feature] <= node.threshold else node.right
        out.append(node)
    return out


def feature_contributions(tree, x: np.ndarray) -> np.ndarray:
    """Saabas path attribution of one row: walking root→leaf, each
    split's |Δ class distribution|/2 is added to the split feature; a
    node that has seen nothing keeps its parent's distribution, and an
    empty root scores uniform."""
    contrib = np.zeros(tree.n_features)
    nodes = path(tree, x)
    prev = nodes[0].stats.class_counts
    prev_p = (prev / prev.sum() if prev.sum() > 0
              else np.full(tree.n_classes, 1 / tree.n_classes))
    for parent, child in zip(nodes[:-1], nodes[1:]):
        cc = child.stats.class_counts
        cur_p = cc / cc.sum() if cc.sum() > 0 else prev_p
        contrib[parent.split_feature] += float(np.abs(cur_p - prev_p).sum()) / 2
        prev_p = cur_p
    return contrib


def naive_bayes_proba(st, x: np.ndarray) -> np.ndarray:
    """Class probabilities of one row ``x`` under the naive-Bayes
    statistics ``st`` (a ``GaussianNB``), one class at a time: the prior
    of every seen class, plus the Gaussian log-likelihood of every class
    seen at least twice; uniform before any observation."""
    total = st.class_counts.sum()
    if total == 0:
        return np.full(st.n_classes, 1.0 / st.n_classes)
    log_p = np.full(st.n_classes, -np.inf)
    for c in range(st.n_classes):
        nc = st.class_counts[c]
        if nc == 0:
            continue
        prior = np.log(nc / total)
        if nc < 2:
            log_p[c] = prior
            continue
        var = st.m2[c] / nc + _NB_EPS
        log_p[c] = prior - 0.5 * np.sum(np.log(2 * np.pi * var) + (x - st.mean[c]) ** 2 / var)
    log_p -= log_p.max()
    p = np.exp(log_p)
    return p / p.sum()


def tree_proba(tree, x: np.ndarray) -> np.ndarray:
    """The class distribution that ``tree`` (a ``HoeffdingTree``) scores
    row ``x`` with at its leaf: the leaf's class frequencies while it has
    seen fewer than 2·C observations, otherwise its naive Bayes score."""
    st = path(tree, x)[-1].stats
    total = st.class_counts.sum()
    if 0 < total < 2 * tree.n_classes:
        return st.class_counts / total
    return naive_bayes_proba(st, x)


def label(labeler, u: np.ndarray) -> int:
    """The class that ``labeler`` gives one latent row ``u``."""
    if isinstance(labeler, StaggerLabeler):
        size, color, shape = (np.minimum((u * 3).astype(int), 2))[:3]
        if labeler.variant == 0:
            return int(size == 0 and color == 0)
        if labeler.variant == 1:
            return int(color == 1 or shape == 0)
        return int(size >= 1)
    if isinstance(labeler, RBFLabeler):
        d = np.linalg.norm(labeler.centroids - u[: labeler.n_features], axis=1)
        return int(labeler.classes[int(np.argmin(d))])
    if isinstance(labeler, RandomTreeLabeler):
        node = 0
        for _ in range(labeler.depth):
            node = 2 * node + (1 if u[labeler.feats[node]] > labeler.thrs[node] else 2)
        return int(labeler.leaves[node - (2**labeler.depth - 1)])
    if isinstance(labeler, HyperplaneLabeler):
        w = labeler.w
        return int(np.dot(w, u[: labeler.n_features]) > 0.5 * w.sum())
    raise TypeError(type(labeler).__name__)


def generate_segment(labeler, channel, n: int, rng: np.random.Generator,
                     t0: int = 0, z0: np.ndarray | None = None):
    """One concept segment, one row at a time: the AR(1) step over every
    feature, whatever its rho, then :func:`label` per row. Returns
    (X, y, z_final) with the same random draws, in the same order, as
    ``generators.generate_segment``."""
    d = channel.n_features
    z = rng.normal(size=d) if z0 is None else z0.copy()
    eps = rng.normal(size=(n, d))
    Z = np.empty((n, d))
    innov = np.sqrt(1.0 - channel.rho**2)
    for t in range(n):
        z = channel.rho * z + innov * eps[t]
        Z[t] = z
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
    y = np.array([label(labeler, u) for u in U])
    return X, y, z


def repository_stacks(repo):
    """(μ, σ, σ_SC) stacks over ``repo``'s records with trained
    fingerprints, in record order, or None with fewer than two; an
    untrained ``sc_stats`` contributes zeros."""
    trained = [r for r in repo if r.fingerprint.n_incorporated >= 2]
    if len(trained) < 2:
        return None
    sc = [r.sc_stats.sigma if r.sc_stats.n_incorporated >= 2 else np.zeros(repo.dim)
          for r in trained]
    return (np.stack([r.fingerprint.mu for r in trained]),
            np.stack([r.fingerprint.sigma for r in trained]), np.stack(sc))


def repository_discrimination(repo):
    """w_d of ``repo`` from freshly built stacks, or None."""
    stacks = repository_stacks(repo)
    return None if stacks is None else discrimination_factor(*stacks)


def dynamic_weights(ref_sigma, repo_mus=None, repo_sigmas=None, sc_sigmas=None):
    """w_sigma * w_d in one call, w_d recomputed from the stacks: the
    weights before the discrimination factor was split out."""
    w = sigma_weight(ref_sigma)
    if repo_mus is not None and len(repo_mus) >= 2:
        v_s = inter_concept_fisher(repo_mus, repo_sigmas)
        if sc_sigmas is not None and len(sc_sigmas) >= 1:
            v_sc = intra_classifier_fisher(sc_sigmas, repo_sigmas[: len(sc_sigmas)])
            w_d = np.maximum(v_s, v_sc)
        else:
            w_d = v_s
        med = np.median(w_d[w_d > _SIM_EPS]) if np.any(w_d > _SIM_EPS) else 1.0
        w_d = np.clip(w_d / max(med, _SIM_EPS), 0.25, 4.0)
        w = w * w_d
    mean = w.mean()
    if mean > _SIM_EPS:
        w = w / mean
    return np.clip(w, 0.1, 10.0)
