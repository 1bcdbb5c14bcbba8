"""Meta-information functions (Table I of the paper).

Each function maps a univariate sequence (one *behaviour source* over a
window) to a single float. The registry ``SEQUENCE_FUNCTIONS`` holds the
12 sequence-based functions; the 13th (Shapley value) is classifier-
derived and lives in ``classifiers.hoeffding_tree`` (see DESIGN.md
substitution #3).

All functions are total: degenerate inputs (constant or too-short
sequences) return a stable sentinel rather than NaN, so fingerprints are
always well-defined vectors.
"""
from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.core.binning import histogramdd_bins
from repro.core.emd import imf_entropies, imf_entropies_matrix, imf_entropy

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
    denom = float(np.dot(x, x))
    if denom < _EPS:
        return 0.0
    return float(np.dot(x[:-lag], x[lag:]) / denom)


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


def mutual_info_matrix(M: np.ndarray, bins: int = 6) -> np.ndarray:
    """:func:`f_mutual_info` of every column of the (w, k) window ``M``,
    bit-identical to calling it per column.

    All columns' joint histograms come from one ``np.bincount`` over
    (column, bin of x[t], bin of x[t+1]); probabilities and log terms are
    computed for the whole (k, bins, bins) block. Only the final masked
    sum runs per column, so it keeps numpy's summation order.
    """
    M = np.asarray(M, dtype=float)
    w, k = M.shape
    out = np.zeros(k)
    if w < 3:
        return out
    # ``not ptp < eps`` keeps NaN columns, which raise as in the scalar path
    live = np.flatnonzero(~(M.max(axis=0) - M.min(axis=0) < _EPS))
    if not live.size:
        return out
    T = np.ascontiguousarray(M[:, live].T)
    if not np.isfinite(T).all():
        raise ValueError("mutual information of a non-finite sequence")
    ia = histogramdd_bins(T[:, :-1], bins)
    ib = histogramdd_bins(T[:, 1:], bins)
    cell = (np.arange(live.size)[:, None] * bins + ia) * bins + ib
    joint = np.bincount(cell.ravel(), minlength=live.size * bins * bins)
    pxy = joint.reshape(live.size, bins, bins) / float(w - 1)
    px = pxy.sum(axis=2, keepdims=True)
    py = pxy.sum(axis=1, keepdims=True)
    mask = pxy > 0
    ratio = np.divide(pxy, px * py, out=np.ones_like(pxy), where=mask)
    terms = pxy * np.log(ratio)
    for c in range(live.size):
        out[live[c]] = np.sum(terms[c][mask[c]])
    return out


def f_turning_point_rate(x: np.ndarray) -> float:
    """Fraction of interior points that are local extrema."""
    if len(x) < 3:
        return 0.0
    d1 = np.sign(np.diff(x[:-1]))
    d2 = np.sign(np.diff(x[1:]))
    turning = (d1 * d2) < 0
    return float(np.mean(turning))


def f_imf1_entropy(x: np.ndarray) -> float:
    return imf_entropy(np.asarray(x, dtype=float), 1) if len(x) >= 8 else 0.0


def f_imf2_entropy(x: np.ndarray) -> float:
    return imf_entropy(np.asarray(x, dtype=float), 2) if len(x) >= 8 else 0.0


#: Ordered registry of the 12 sequence-based meta-information functions.
SEQUENCE_FUNCTIONS: dict[str, Callable[[np.ndarray], float]] = {
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

#: Table V groups functions by concept (acf1+acf2 = "Autocorrelation", ...).
FUNCTION_GROUPS: dict[str, list[str]] = {
    "mean": ["mean"],
    "std": ["std"],
    "skew": ["skew"],
    "kurtosis": ["kurtosis"],
    "autocorrelation": ["acf1", "acf2"],
    "partial_autocorrelation": ["pacf1", "pacf2"],
    "mutual_info": ["mutual_info"],
    "turning_point_rate": ["turning_point_rate"],
    "imf_entropy": ["imf1_entropy", "imf2_entropy"],
    "shapley": ["shapley"],
}


def compute_sequence_features(
    x: np.ndarray, functions: list[str] | None = None
) -> np.ndarray:
    """Apply the named sequence functions (default: all 12) to ``x``."""
    names = list(functions) if functions is not None else list(SEQUENCE_FUNCTIONS)
    x = np.asarray(x, dtype=float)
    batched = {}
    if "imf1_entropy" in names and "imf2_entropy" in names:
        # one decomposition for both, as imf_entropy(x, 1) and (x, 2) would
        # sift the first mode twice
        e = imf_entropies(x, 2) if len(x) >= 8 else [0.0, 0.0]
        batched = {"imf1_entropy": e[0], "imf2_entropy": e[1]}
    if "mutual_info" in names:
        # the one-column batched kernel: equal to f_mutual_info, and faster
        batched["mutual_info"] = mutual_info_matrix(x[:, None])[0]
    return np.array([batched[n] if n in batched else SEQUENCE_FUNCTIONS[n](x) for n in names])


def compute_feature_matrix(
    M: np.ndarray, functions: list[str] | None = None
) -> np.ndarray:
    """Vectorized fast path: the named functions over every column of the
    (w, k) matrix ``M`` at once. Returns (k, n_functions) in the same
    order as :func:`compute_sequence_features` (tested equivalent).

    Moments, ACF, PACF (closed-form Durbin–Levinson for lags 1–2) and
    turning-point rate are fully columnwise. Mutual information and the
    IMF entropies run batched kernels over all columns at once
    (:func:`mutual_info_matrix`, ``emd.imf_entropies_matrix``), which are
    bit-identical to :func:`f_mutual_info` and ``emd.imf_entropies`` per
    column; both IMF entropies share one decomposition.
    """
    names = list(functions) if functions is not None else list(SEQUENCE_FUNCTIONS)
    # Row-major, so each column's sums run in row order whatever the input's
    # layout (a Fortran-ordered M would take numpy's pairwise summation) and
    # a column's results do not depend on the other columns. The exception
    # is k = 1, which numpy still sums pairwise.
    M = np.ascontiguousarray(M, dtype=float)
    w, k = M.shape
    out = np.zeros((k, len(names)))
    mean = M.mean(axis=0)
    Mc = M - mean
    var = (Mc**2).mean(axis=0)
    std = np.sqrt(var)
    ok = std > 1e-12
    sstd = np.where(ok, std, 1.0)
    denom = (Mc**2).sum(axis=0)
    sdenom = np.where(denom > 1e-12, denom, 1.0)

    def acf(lag: int) -> np.ndarray:
        if w <= lag + 1:
            return np.zeros(k)
        return np.where(ok, (Mc[:-lag] * Mc[lag:]).sum(axis=0) / sdenom, 0.0)

    r1, r2 = acf(1), acf(2)
    imf = None  # both IMF entropies come from one decomposition
    for j, name in enumerate(names):
        if name == "mean":
            out[:, j] = mean
        elif name == "std":
            out[:, j] = std
        elif name == "skew":
            out[:, j] = np.where(ok, (Mc**3).mean(axis=0) / sstd**3, 0.0) if w >= 3 else 0.0
        elif name == "kurtosis":
            out[:, j] = np.where(ok, (Mc**4).mean(axis=0) / sstd**4 - 3.0, 0.0) if w >= 4 else 0.0
        elif name == "acf1":
            out[:, j] = r1
        elif name == "acf2":
            out[:, j] = r2
        elif name == "pacf1":
            out[:, j] = np.clip(r1, -1.0, 1.0)
        elif name == "pacf2":
            if w > 3:  # as f_pacf2, 0 on 3 rows or fewer
                den = 1.0 - r1**2
                out[:, j] = np.clip(
                    np.where(np.abs(den) > 1e-12, (r2 - r1**2) / np.where(np.abs(den) > 1e-12, den, 1.0), 0.0),
                    -1.0, 1.0,
                )
        elif name == "turning_point_rate":
            if w >= 3:
                d1 = np.sign(np.diff(M[:-1], axis=0))
                d2 = np.sign(np.diff(M[1:], axis=0))
                out[:, j] = ((d1 * d2) < 0).mean(axis=0)
        elif name == "mutual_info":
            out[:, j] = mutual_info_matrix(M)
        elif name in ("imf1_entropy", "imf2_entropy"):
            if imf is None:
                imf = imf_entropies_matrix(M) if w >= 8 else np.zeros((k, 2))
            out[:, j] = imf[:, 0 if name == "imf1_entropy" else 1]
        else:
            raise ValueError(f"unknown function {name!r}")
    return out
