"""The batched fingerprint kernels equal their scalar references exactly.

``mutual_info_matrix``, ``imf_entropies_matrix`` and
``feature_contributions_batch`` replace per-column and per-row loops over
``f_mutual_info``, ``imf_entropies`` and ``feature_contributions``. They
must give the same floats (``np.array_equal``, not a tolerance) on every
window, so fingerprints, similarities and drift decisions do not move.
"""
import numpy as np
import pytest

from repro.classifiers.hoeffding_tree import HoeffdingTree
from repro.core import emd
from repro.core import meta_features as mf
from repro.core.binning import histogram_bins, histogramdd_bins, linspace_rows
from repro.streams.datasets import build_dataset

WIDTHS = (8, 9, 50, 75)
N_WINDOWS = 320
_STREAMS = {}


def _stream(name: str):
    if name not in _STREAMS:
        _STREAMS[name] = build_dataset(name, 3, length_scale=0.5)
    return _STREAMS[name]


def _column(kind: str, w: int, g: np.random.Generator) -> np.ndarray:
    if kind == "normal":
        return g.standard_normal(w) * g.uniform(0.1, 100)
    if kind == "discrete":  # ties, as in y / l / error sources
        return g.integers(0, g.integers(2, 5), w).astype(float)
    if kind == "rounded":
        return np.round(g.standard_normal(w) * 2) / 2
    if kind == "constant":
        return np.full(w, g.uniform(-5, 5))
    if kind == "near_constant":  # ptp just above the 1e-12 cut-off
        base = g.choice([0.0, 1.0, 37.5])
        step = g.uniform(1.01e-12, 4e-12)
        return base + step * g.integers(0, 3, w)
    if kind == "head_constant":  # x[:-1] constant, x not
        x = np.full(w, g.uniform(-1, 1))
        x[-1] += g.uniform(0.5, 2)
        return x
    if kind == "tail_constant":  # x[1:] constant, x not
        x = np.full(w, g.uniform(-1, 1))
        x[0] -= g.uniform(0.5, 2)
        return x
    if kind == "sine":
        t = np.arange(w)
        return np.sin(t * g.uniform(0.2, 2.5)) + 0.05 * t * g.uniform(-1, 1)
    if kind == "trend":  # monotone: no IMF at all
        return np.cumsum(g.uniform(0.01, 1, w))
    raise ValueError(kind)


KINDS = ("normal", "discrete", "rounded", "constant", "near_constant",
         "head_constant", "tail_constant", "sine", "trend")


def _window(i: int) -> np.ndarray:
    """Window i: a (w, k) matrix, either synthetic columns of mixed kinds
    or a real RBF/Arabic window (features plus label column)."""
    g = np.random.default_rng([i, 2024])
    w = WIDTHS[i % len(WIDTHS)]
    if i % 5 == 4:
        ds = _stream("RBF" if i % 2 else "Arabic")
        a = int(g.integers(0, len(ds) - w))
        M = np.column_stack([ds.X[a:a + w], ds.y[a:a + w].astype(float)])
        return M[:, : int(g.integers(1, min(20, M.shape[1]) + 1))]
    k = int(g.integers(1, 21))
    return np.column_stack([_column(KINDS[g.integers(len(KINDS))], w, g) for _ in range(k)])


WINDOWS = range(N_WINDOWS)


@pytest.mark.parametrize("i", WINDOWS)
def test_mutual_info_matrix_exact(i):
    M = _window(i)
    want = np.array([mf.f_mutual_info(M[:, c]) for c in range(M.shape[1])])
    assert np.array_equal(mf.mutual_info_matrix(M), want)


@pytest.mark.parametrize("i", WINDOWS)
def test_imf_entropies_matrix_exact(i):
    M = _window(i)
    want = np.array([emd.imf_entropies(M[:, c]) for c in range(M.shape[1])])
    assert np.array_equal(emd.imf_entropies_matrix(M), want)


@pytest.mark.parametrize("n_imfs", [1, 3])
def test_imf_entropies_matrix_other_mode_counts(n_imfs):
    for i in range(0, 40, 3):
        M = _window(i)
        want = np.array([emd.imf_entropies(M[:, c], n_imfs=n_imfs)
                         for c in range(M.shape[1])])
        assert np.array_equal(emd.imf_entropies_matrix(M, n_imfs=n_imfs), want)


def test_feature_matrix_uses_exact_kernels():
    names = ["mutual_info", "imf1_entropy", "imf2_entropy"]
    for i in range(0, N_WINDOWS, 7):
        M = _window(i)
        want = np.stack([mf.compute_sequence_features(M[:, c], names)
                         for c in range(M.shape[1])])
        assert np.array_equal(mf.compute_feature_matrix(M, names), want)


@pytest.mark.parametrize("w", [0, 1, 2, 3, 7])
def test_kernels_on_short_windows(w):
    M = np.random.default_rng(w).standard_normal((w, 3))
    want_mi = np.array([mf.f_mutual_info(M[:, c]) for c in range(3)])
    want_imf = np.array([emd.imf_entropies(M[:, c]) for c in range(3)])
    assert np.array_equal(mf.mutual_info_matrix(M), want_mi)
    assert np.array_equal(emd.imf_entropies_matrix(M), want_imf)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_kernels_reject_non_finite(bad):
    M = np.random.default_rng(0).standard_normal((20, 2))
    M[5, 1] = bad
    with pytest.raises(ValueError):
        mf.f_mutual_info(M[:, 1])
    with pytest.raises(ValueError):
        mf.mutual_info_matrix(M)
    with pytest.raises(ValueError):
        emd.imf_entropies(M[:, 1])
    with pytest.raises(ValueError):
        emd.imf_entropies_matrix(M)


def test_sequence_features_single_decomposition():
    """error_dist style sequences: one imf_entropies call serves both IMF
    functions, with the values the per-function path gives."""
    g = np.random.default_rng(5)
    for n in (0, 3, 8, 20, 49):
        x = g.integers(1, 6, n).astype(float)
        got = mf.compute_sequence_features(x)
        want = np.array([f(x) for f in mf.SEQUENCE_FUNCTIONS.values()])
        assert np.array_equal(got, want)


# ----------------------------------------------------------------- binning
def test_linspace_rows_matches_numpy():
    g = np.random.default_rng(1)
    lo = np.concatenate([g.standard_normal(50) * 10, [1.0, 1e3, 0.0]])
    hi = lo + np.concatenate([g.uniform(1e-12, 5, 50), [2e-12, 1e-9, 5e-324]])
    rows = linspace_rows(lo, hi, 11)
    for r in range(len(lo)):
        assert np.array_equal(rows[r], np.linspace(lo[r], hi[r], 11))


def test_row_binning_matches_numpy_histograms():
    for i in range(60):
        M = _window(i)
        V = np.ascontiguousarray(M.T)
        dd = histogramdd_bins(V, 6)
        for r, v in enumerate(V):
            want, _ = np.histogramdd(v[:, None], bins=6)
            assert np.array_equal(np.bincount(dd[r], minlength=6), want)
        live = np.ptp(V, axis=1) > 0
        if live.any():
            hb = histogram_bins(V[live], 10)
            for r, v in enumerate(V[live]):
                want, _ = np.histogram(v, bins=10)
                assert np.array_equal(np.bincount(hb[r], minlength=10), want)


# ----------------------------------------------------------------- shapley
def _random_tree(seed: int) -> tuple[HoeffdingTree, np.ndarray]:
    g = np.random.default_rng(seed)
    d, n_classes = int(g.integers(1, 8)), int(g.integers(2, 5))
    tree = HoeffdingTree(d, n_classes, grace_period=int(g.integers(5, 40)),
                         tau=float(g.uniform(0.05, 0.5)), max_depth=int(g.integers(1, 12)))
    n = int(g.integers(0, 700))
    X = g.random((n, d))
    coef = g.standard_normal(d)
    y = (np.digitize(X @ coef, np.quantile(X @ coef, np.linspace(0, 1, n_classes + 1)[1:-1]))
         if n else np.zeros(0, int))
    for j in range(n):
        tree.partial_fit(X[j], int(y[j]))
    return tree, g.random((int(g.choice([1, 8, 50, 75])), d)) * 1.2 - 0.1


@pytest.mark.parametrize("seed", range(60))
def test_feature_contributions_batch_exact(seed):
    tree, W = _random_tree(seed)
    want = np.stack([tree.feature_contributions(x) for x in W])
    got = tree.feature_contributions_batch(W)
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.mean(got, axis=0),
                          np.mean([tree.feature_contributions(x) for x in W], axis=0))


def test_feature_contributions_batch_fresh_split():
    """Children of a split that have seen nothing inherit the parent's
    distribution, as in the per-row walk."""
    g = np.random.default_rng(11)
    tree = HoeffdingTree(2, 2, grace_period=10)
    for _ in range(400):
        x = g.random(2)
        tree.partial_fit(x, int(x[0] > 0.5))
        if tree.growth_events:
            break
    assert tree.growth_events
    W = g.random((30, 2))
    want = np.stack([tree.feature_contributions(x) for x in W])
    assert np.array_equal(tree.feature_contributions_batch(W), want)


def test_feature_contributions_batch_on_window_rows():
    ds = _stream("RBF")
    tree = HoeffdingTree(ds.n_features, ds.n_classes)
    for j in range(600):
        tree.partial_fit(ds.X[j], int(ds.y[j]))
    W = ds.X[600:650]
    want = np.stack([tree.feature_contributions(x) for x in W])
    assert np.array_equal(tree.feature_contributions_batch(W), want)
