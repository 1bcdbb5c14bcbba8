"""Meta-information functions (Table I of the paper).

Each function maps a univariate sequence (one *behaviour source* over a
window) to a single float. ``SEQUENCE_FUNCTIONS`` names the 12
sequence-based functions with their Table V groups; the 13th (Shapley
value) lives in ``classifiers.hoeffding_tree`` (DESIGN.md substitution #3).
:func:`compute_feature_matrix` serves the fixed-length sources, one column
each; :func:`compute_sequence_features` serves the one variable-length
source, the error-distance sequence. Both are tested against the scalar
references in ``tests/reference.py``.

All functions are total: degenerate inputs (constant or too-short
sequences) return a stable sentinel rather than NaN, so fingerprints are
always well-defined vectors.
"""
from __future__ import annotations

import numpy as np

from repro.core.binning import histogramdd_bins
from repro.core.emd import imf_entropies, imf_entropies_matrix

_EPS = 1e-12
_MI_BINS = 6  # equal-width bins per axis of the lag-1 joint histogram

#: The 12 sequence-based meta-information functions in fingerprint order,
#: each with its Table V group (acf1 + acf2 = "autocorrelation", ...).
SEQUENCE_FUNCTIONS: dict[str, str] = {
    "mean": "mean",
    "std": "std",
    "skew": "skew",
    "kurtosis": "kurtosis",
    "acf1": "autocorrelation",
    "acf2": "autocorrelation",
    "pacf1": "partial_autocorrelation",
    "pacf2": "partial_autocorrelation",
    "mutual_info": "mutual_info",
    "turning_point_rate": "turning_point_rate",
    "imf1_entropy": "imf_entropy",
    "imf2_entropy": "imf_entropy",
}

# what compute_feature_matrix computes only when a requested function needs it
_ACF = {"acf1", "acf2", "pacf1", "pacf2"}
_CENTRED = {"std", "skew", "kurtosis"} | _ACF
_MOMENTS = {"mean"} | _CENTRED

#: Table V's groups: the functions of each, plus the Shapley feature.
FUNCTION_GROUPS: dict[str, list[str]] = {
    g: [f for f, fg in SEQUENCE_FUNCTIONS.items() if fg == g]
    for g in dict.fromkeys(SEQUENCE_FUNCTIONS.values())
} | {"shapley": ["shapley"]}


def f_mutual_info(x: np.ndarray) -> float:
    """Lag-1 self mutual information (nats) of one sequence: the
    one-column :func:`mutual_info_matrix`, exact at k = 1."""
    return mutual_info_matrix(np.asarray(x, dtype=float)[:, None])[0]


def mutual_info_matrix(M: np.ndarray) -> np.ndarray:
    """Lag-1 self mutual information (nats) of every column of the (w, k)
    window ``M``, bit-identical per column to the ``np.histogram2d``
    reference in ``tests/reference.py``.

    All columns' joint histograms come from one ``np.bincount`` over
    (column, bin of x[t], bin of x[t+1]); probabilities and log terms are
    computed for the whole (k, _MI_BINS, _MI_BINS) block. Only the final
    masked sum runs per column, so it keeps numpy's summation order.
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
    ia = histogramdd_bins(T[:, :-1], _MI_BINS)
    ib = histogramdd_bins(T[:, 1:], _MI_BINS)
    cell = (np.arange(live.size)[:, None] * _MI_BINS + ia) * _MI_BINS + ib
    joint = np.bincount(cell.ravel(), minlength=live.size * _MI_BINS**2)
    pxy = joint.reshape(live.size, _MI_BINS, _MI_BINS) / float(w - 1)
    px = pxy.sum(axis=2, keepdims=True)
    py = pxy.sum(axis=1, keepdims=True)
    mask = pxy > 0
    ratio = np.divide(pxy, px * py, out=np.ones_like(pxy), where=mask)
    terms = pxy * np.log(ratio)
    for c in range(live.size):
        out[live[c]] = np.sum(terms[c][mask[c]])
    return out


def compute_sequence_features(
    x: np.ndarray, functions: list[str] | None = None
) -> np.ndarray:
    """The named functions (default: all 12) of one sequence ``x`` of any
    length, in one pass that computes only what they need.

    One mean serves every function, one standard deviation the moments,
    and ``acf1``/``acf2`` divide by one ``den``; PACF at lags 1 and 2 is
    closed-form Durbin-Levinson on them. Both IMF entropies come from one
    scalar decomposition (``emd.imf_entropies``), which beats the batched
    EMD on a single short sequence.
    """
    names = list(functions) if functions is not None else list(SEQUENCE_FUNCTIONS)
    unknown = [f for f in names if f not in SEQUENCE_FUNCTIONS]
    if unknown:
        raise ValueError(f"unknown function {unknown[0]!r}")
    want = set(names)
    x = np.asarray(x, dtype=float)
    n = len(x)
    v = dict.fromkeys(want, 0.0)
    if n:
        v["mean"] = mean = np.mean(x)
    if n and want & {"std", "skew", "kurtosis"}:
        v["std"] = s = np.std(x)
        if n >= 3 and not s < _EPS:
            z = (x - mean) / s
            if "skew" in want:
                v["skew"] = np.mean(z**3)
            if "kurtosis" in want and n >= 4:
                v["kurtosis"] = np.mean(z**4) - 3.0
    if n > 2 and want & {"acf1", "acf2", "pacf1", "pacf2"}:
        c = x - mean
        # np.add.reduce, not BLAS np.dot (the reduction rule in DESIGN.md)
        den = np.add.reduce(c * c)
        if not den < _EPS:
            r1 = v["acf1"] = np.add.reduce(c[:-1] * c[1:]) / den
            v["pacf1"] = np.clip(r1, -1.0, 1.0)
            if n > 3:
                r2 = v["acf2"] = np.add.reduce(c[:-2] * c[2:]) / den
                d = 1.0 - r1 * r1
                v["pacf2"] = np.clip((r2 - r1 * r1) / d if abs(d) > _EPS else 0.0, -1.0, 1.0)
    if "mutual_info" in want:
        v["mutual_info"] = f_mutual_info(x)
    if "turning_point_rate" in want and n >= 3:
        d1 = np.sign(np.diff(x[:-1]))
        d2 = np.sign(np.diff(x[1:]))
        v["turning_point_rate"] = np.mean((d1 * d2) < 0)
    if want & {"imf1_entropy", "imf2_entropy"} and n >= 8:
        v["imf1_entropy"], v["imf2_entropy"] = imf_entropies(x, 2)
    return np.array([v[name] for name in names], dtype=float)


def compute_feature_matrix(
    M: np.ndarray, functions: list[str] | None = None
) -> np.ndarray:
    """The named functions over every column of the (w, k) matrix ``M``
    at once, for the fixed-length sources. Returns (k, n_functions), in
    the order of ``functions``.

    Moments, ACF, PACF (closed-form Durbin–Levinson for lags 1–2) and
    turning-point rate are fully columnwise; they equal the scalar
    references in ``tests/reference.py`` to a tolerance, as column sums
    round differently. Mutual information and the IMF entropies run
    batched kernels over all columns at once (:func:`mutual_info_matrix`,
    ``emd.imf_entropies_matrix``), which equal those references bit for
    bit per column; both IMF entropies share one decomposition. Only
    what the named functions need is computed: ``["mean"]`` takes one
    column mean.
    """
    names = list(functions) if functions is not None else list(SEQUENCE_FUNCTIONS)
    want = set(names)
    # Row-major, so each column's sums run in row order whatever the input's
    # layout (a Fortran-ordered M would take numpy's pairwise summation) and
    # a column's results do not depend on the other columns. The exception
    # is k = 1, which numpy still sums pairwise.
    M = np.ascontiguousarray(M, dtype=float)
    w, k = M.shape
    out = np.zeros((k, len(names)))
    if want & _MOMENTS:
        mean = M.mean(axis=0)
    if want & _CENTRED:
        Mc = M - mean
        sq = Mc**2
        var = sq.mean(axis=0)
        std = np.sqrt(var)
        ok = std > 1e-12
        sstd = np.where(ok, std, 1.0)
    if want & _ACF:
        denom = sq.sum(axis=0)
        sdenom = np.where(denom > 1e-12, denom, 1.0)

    def acf(lag: int) -> np.ndarray:
        if w <= lag + 1:
            return np.zeros(k)
        return np.where(ok, (Mc[:-lag] * Mc[lag:]).sum(axis=0) / sdenom, 0.0)

    if want & {"acf1", "pacf1", "pacf2"}:
        r1 = acf(1)
    if want & {"acf2", "pacf2"}:
        r2 = acf(2)
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
            if w > 3:  # 0 on 3 rows or fewer, as in the scalar path
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
