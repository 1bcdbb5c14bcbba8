"""The batched kernels and the one-pass sequence path equal their scalar
references exactly.

``mutual_info_matrix``, ``imf_entropies_matrix`` and
``HoeffdingTree.feature_contributions`` replace per-column and per-row
loops over the ``np.histogram2d`` ``f_mutual_info``
(``tests/reference.py``), the package's scalar ``emd.imf_entropies`` and
the per-row path attribution ``feature_contributions``
(``tests/reference.py``).
``compute_sequence_features``, which serves the variable-length
error_dist source in one pass, replaces the 12 per-function ``f_*`` of
``tests/reference.py``. They must give the same floats
(``np.array_equal``, not a tolerance) on every window, so fingerprints,
similarities and drift decisions do not move. The Hoeffding tree's
``predict``, ``predict_batch`` and ``_candidate_gains`` likewise equal
the per-row ``tree_proba`` (a per-class naive-Bayes loop at the leaf)
and the per-feature ``candidate_gain`` (``tests/reference.py``), and
``GaussianNB`` keeps its running ``total`` equal to its class counts'
sum.
``compute_fingerprint`` scores a stack of labellings of one window in one
``compute_feature_matrix`` call, which relies on that call's columns not
depending on each other, and ``DriftMonitor`` reuses an earlier F_A as
F_B; both must give the fingerprints the one-at-a-time path gives.
"""
import numpy as np
import pytest

from repro.classifiers.hoeffding_tree import HoeffdingTree, _erf
from repro.classifiers.naive_bayes import GaussianNB
from repro.core import emd
from repro.core import meta_features as mf
from repro.core.binning import histogram_bins, histogramdd_bins, linspace_rows
from repro.streams.datasets import build_dataset
from tests import reference as ref

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
    want = np.array([ref.f_mutual_info(M[:, c]) for c in range(M.shape[1])])
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
    want_mi = np.array([ref.f_mutual_info(M[:, c]) for c in range(3)])
    want_imf = np.array([emd.imf_entropies(M[:, c]) for c in range(3)])
    assert np.array_equal(mf.mutual_info_matrix(M), want_mi)
    assert np.array_equal(emd.imf_entropies_matrix(M), want_imf)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_kernels_reject_non_finite(bad):
    M = np.random.default_rng(0).standard_normal((20, 2))
    M[5, 1] = bad
    with pytest.raises(ValueError):
        ref.f_mutual_info(M[:, 1])
    with pytest.raises(ValueError):
        mf.mutual_info_matrix(M)
    with pytest.raises(ValueError):
        emd.imf_entropies(M[:, 1])
    with pytest.raises(ValueError):
        emd.imf_entropies_matrix(M)


def test_sequence_features_single_decomposition():
    """The one-pass error_dist path equals the per-function references bit
    for bit (one imf_entropies call serves both IMF functions): on
    error-distance sequences and integer sequences of every length 0-60,
    for all 12 functions, each Table V group and a reordered subset."""
    g = np.random.default_rng(5)
    seqs = _error_dist_sequences() + [g.integers(1, 6, n).astype(float) for n in range(61)]
    # each mi:<group> run's sequence functions (none for "shapley")
    subsets = [None, ["std", "mean"]] + [
        [f for f in fs if f in mf.SEQUENCE_FUNCTIONS] for fs in mf.FUNCTION_GROUPS.values()]
    for x in seqs:
        for names in subsets:
            got = mf.compute_sequence_features(x, names)
            want = ref.sequence_features(x, names)
            assert np.array_equal(got, want), (x, names)


def _error_dist_sequences() -> list[np.ndarray]:
    """Error-distance sequences as fingerprints see them: lengths 0-3,
    constant gaps, and the gaps of a tree's errors on RBF and Arabic
    windows."""
    from repro.core.fingerprint import error_distance_sequence

    seqs = [np.array([]), np.array([2.0]), np.array([1.0, 4.0]),
            np.array([3.0, 1.0, 2.0]), np.full(3, 2.0), np.full(12, 1.0), np.full(30, 5.0)]
    for name in ("RBF", "Arabic"):
        ds = _stream(name)
        tree = HoeffdingTree(ds.n_features, ds.n_classes, grace_period=30)
        for i in range(300):
            tree.partial_fit(ds.X[i], int(ds.y[i]))
        for a in range(300, len(ds) - 75, 37):
            for w in (50, 75):
                l = tree.predict_batch(ds.X[a:a + w])
                seqs.append(error_distance_sequence((ds.y[a:a + w] != l).astype(float)))
    return seqs


def test_sequence_features_mutual_info_exact_on_error_distances():
    """compute_sequence_features takes mutual information from the
    one-column ``mutual_info_matrix``; it equals f_mutual_info on the
    variable-length error_dist source."""
    seqs = _error_dist_sequences()
    assert len(seqs) > 200 and {len(x) for x in seqs} >= {0, 1, 2, 3}
    j = list(mf.SEQUENCE_FUNCTIONS).index("mutual_info")
    nonzero = 0
    for x in seqs:
        got = mf.compute_sequence_features(x)
        want = ref.f_mutual_info(x)
        assert np.array_equal(got[j], want), x
        assert np.array_equal(mf.compute_sequence_features(x, ["mutual_info"]), [want])
        nonzero += want != 0.0
    assert nonzero > 100


# ------------------------------------------------- feature matrix layout
def _matrix_windows() -> list[np.ndarray]:
    return [M for M in (_window(i) for i in range(0, N_WINDOWS, 3)) if M.shape[1] >= 2]


def test_feature_matrix_independent_of_memory_layout():
    """A Fortran-ordered or fancy-indexed window gives the same floats as
    its C-ordered copy (numpy would otherwise sum its columns pairwise)."""
    for M in _matrix_windows():
        want = mf.compute_feature_matrix(np.ascontiguousarray(M))
        assert np.array_equal(mf.compute_feature_matrix(np.asfortranarray(M)), want)
        cols = np.arange(M.shape[1])[::-1]
        assert np.array_equal(mf.compute_feature_matrix(M[:, cols]), want[cols])


def test_feature_matrix_column_count_invariant():
    """Each column's row of the result depends on that column only, for
    C-ordered windows of k >= 2 columns: subsets, reorderings and
    supersets built with np.column_stack give the same rows."""
    g = np.random.default_rng(11)
    for M in _matrix_windows():
        w, k = M.shape
        full = mf.compute_feature_matrix(M)
        S = g.choice(k, size=int(g.integers(2, k + 1)), replace=False)
        sub = np.column_stack([M[:, c] for c in S])
        assert np.array_equal(mf.compute_feature_matrix(sub), full[S])
        extra = [_column(KINDS[g.integers(len(KINDS))], w, g) for _ in range(g.integers(1, 6))]
        sup = mf.compute_feature_matrix(np.column_stack([M, *extra]))
        assert np.array_equal(sup[:k], full)


def test_feature_matrix_computes_only_requested():
    """Each mi:<group> run's functions, each function alone and a
    reordered subset give the all-functions call's columns, on windows of
    every kind and on windows of 1-7 rows."""
    order = list(mf.SEQUENCE_FUNCTIONS)
    subsets = [[f for f in fs if f in mf.SEQUENCE_FUNCTIONS] for fs in mf.FUNCTION_GROUPS.values()]
    subsets = [fs for fs in subsets if fs] + [[f] for f in order] + [["pacf2", "mean", "acf2"]]
    short = [np.random.default_rng(w).standard_normal((w, 3)) for w in range(1, 8)]
    for M in [_window(i) for i in range(0, N_WINDOWS, 5)] + short:
        full = mf.compute_feature_matrix(M)
        for names in subsets:
            cols = [order.index(f) for f in names]
            assert np.array_equal(mf.compute_feature_matrix(M, names), full[:, cols]), names


# ------------------------------------------------ stacked fingerprints
def _reference_fingerprint(X, y, l, schema, tree) -> np.ndarray:
    """One labelling's fingerprint assembled source by source: the sources'
    columns in schema order through one compute_feature_matrix call, the
    error_dist source through compute_sequence_features, then Shapley."""
    from repro.core.fingerprint import error_distance_sequence

    errors = (y != l).astype(float)
    if schema.source_mode == "error_rate":
        return np.array([errors.mean()])
    src = {"y": y.astype(float), "l": l.astype(float), "error": errors}
    cols = [X[:, int(s[1:])] if s.startswith("x") else src[s]
            for s in schema.sources if s != "error_dist"]
    parts = [mf.compute_feature_matrix(np.column_stack(cols), schema.seq_functions).ravel()]
    if "error_dist" in schema.sources:
        parts.append(mf.compute_sequence_features(
            error_distance_sequence(errors), schema.seq_functions))
    if schema.use_shapley:
        parts.append(np.zeros(schema.n_features) if tree is None
                     else np.stack([ref.feature_contributions(tree, x) for x in X]).mean(axis=0))
    return np.concatenate(parts)


def _labelling_window(name: str, a: int, n_trees: int):
    """A window of ``name`` at ``a`` and n_trees trees trained on different
    stretches of the stream, with their labellings of the window."""
    ds = _stream(name)
    trees = []
    for t in range(n_trees):
        tree = HoeffdingTree(ds.n_features, ds.n_classes, grace_period=20)
        for i in range(t * 150, t * 150 + 700):
            tree.partial_fit(ds.X[i], int(ds.y[i]))
        trees.append(tree)
    X, y = ds.X[a:a + 50], ds.y[a:a + 50]
    return X, y, np.stack([t.predict_batch(X) for t in trees]), trees


@pytest.mark.parametrize("mode", ["all", "supervised", "unsupervised", "error_rate"])
@pytest.mark.parametrize("functions", [None, ("mean",), ("mean", "shapley")])
@pytest.mark.parametrize("name", ["RBF", "Arabic"])
def test_stacked_labellings_equal_single_calls(mode, functions, name):
    from repro.core.fingerprint import FingerprintSchema, compute_fingerprint

    kwargs = {} if functions is None else {"functions": functions}
    for a, n_trees in ((400, 1), (620, 3), (900, 5)):
        X, y, L, trees = _labelling_window(name, a, n_trees)
        schema = FingerprintSchema(n_features=X.shape[1], source_mode=mode, **kwargs)
        stacked = compute_fingerprint(X, y, L, schema, trees)
        assert stacked.shape == (n_trees, schema.dim)
        no_tree = compute_fingerprint(X, y, L, schema)
        if schema.use_shapley and n_trees > 1:  # the trees attribute differently
            assert len({r[-X.shape[1]:].tobytes() for r in stacked}) > 1
        for r in range(n_trees):
            single = compute_fingerprint(X, y, L[r], schema, trees[r])
            assert np.array_equal(stacked[r], single)
            assert np.array_equal(single, _reference_fingerprint(X, y, L[r], schema, trees[r]))
            assert np.array_equal(no_tree[r], compute_fingerprint(X, y, L[r], schema, None))


def _check_normalizer_inputs(monkeypatch, feed) -> tuple[int, int]:
    """Run ``feed`` and check every raw vector a DriftMonitor passes to
    Normalizer.update against a from-scratch compute_fingerprint of that
    window under the then-active tree; returns (updates, fingerprint
    calls the monitor made)."""
    from repro.core import fingerprint as fpm
    from repro.core import monitor as monm

    pending, counts = [], {"update": 0, "compute": 0}
    fingerprint, update = monm.DriftMonitor._fingerprint, fpm.Normalizer.update

    def recording_fingerprint(self, X, y, l, *args, **kwargs):
        pending.append((self, X.copy(), y.copy(), l.copy()))
        return fingerprint(self, X, y, l, *args, **kwargs)

    def checking_update(self, v):
        mon, X, y, l = pending.pop()
        want = fpm.compute_fingerprint(X, y, l, mon.schema, mon.active.classifier)
        assert np.array_equal(v, want)
        counts["update"] += 1
        return update(self, v)

    def counting_compute(*args, **kwargs):
        counts["compute"] += 1
        return fpm.compute_fingerprint(*args, **kwargs)

    monkeypatch.setattr(monm.DriftMonitor, "_fingerprint", recording_fingerprint)
    monkeypatch.setattr(fpm.Normalizer, "update", checking_update)
    monkeypatch.setattr(monm, "compute_fingerprint", counting_compute)
    feed()
    assert not pending
    return counts["update"], counts["compute"]


def test_ficsum_reused_buffer_fingerprints_exact(monkeypatch):
    """FiCSUM on (RBF, seed 1): a reused F_B (cached non-Shapley dims,
    Shapley from the current tree) equals computing it from scratch."""
    from repro.runner import make_method

    ds = build_dataset("RBF", 1, length_scale=0.5)
    model = make_method("FiCSUM", ds.n_features, ds.n_classes, 1)

    def feed():
        for i in range(len(ds)):
            model.process(ds.X[i], int(ds.y[i]))

    updates, computed = _check_normalizer_inputs(monkeypatch, feed)
    assert model.schema.use_shapley and model.n_drifts > 0
    assert updates - computed > 100  # reused F_B vectors


def test_monitor_reused_buffer_fingerprints_exact(monkeypatch):
    """Stand-alone DriftMonitor on Synth_DAF with upstream predictions
    wrong on every 7th row (as in the golden trace)."""
    from repro.core.monitor import DriftMonitor

    ds = build_dataset("Synth_DAF", 1, length_scale=0.5)
    mon = DriftMonitor(ds.n_features)

    def feed():
        for i in range(len(ds)):
            y = int(ds.y[i])
            mon.add(ds.X[i], y, (y + 1) % ds.n_classes if i % 7 == 0 else y)

    updates, computed = _check_normalizer_inputs(monkeypatch, feed)
    assert mon.n_drifts > 0
    assert updates - computed > 100


def test_monitor_reuse_cache_bounded_and_unused_off_period(monkeypatch):
    """The cache holds at most b/P + 1 raw vectors; when b is not a
    multiple of P no F_B is ever reused, and outputs are unchanged."""
    from repro.core import monitor as monm

    ds = build_dataset("Synth_D", 1, length_scale=0.5)
    for buffer_len in (12, 10):
        monkeypatch.setattr(monm.DriftMonitor, "buffer_len", buffer_len)
        mon = monm.DriftMonitor(ds.n_features)
        hits = 0
        for i in range(len(ds)):
            b_at = mon.i + 1 - mon.buffer_len
            hits += b_at in mon._raw_a and (mon.i + 1) % mon.period == 0
            mon.add(ds.X[i], int(ds.y[i]))
            assert len(mon._raw_a) <= buffer_len // mon.period + 1
        assert (hits > 0) == (buffer_len % mon.period == 0)


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
    tree = HoeffdingTree(d, n_classes, grace_period=int(g.integers(5, 40)))
    # per-tree split settings, drawn to vary the trees' shapes
    tree.tau, tree.max_depth = float(g.uniform(0.05, 0.5)), int(g.integers(1, 12))
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
    want = np.stack([ref.feature_contributions(tree, x) for x in W])
    got = tree.feature_contributions(W)
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.mean(got, axis=0),
                          np.mean([ref.feature_contributions(tree, x) for x in W], axis=0))


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
    want = np.stack([ref.feature_contributions(tree, x) for x in W])
    assert np.array_equal(tree.feature_contributions(W), want)


def test_feature_contributions_batch_on_window_rows():
    ds = _stream("RBF")
    tree = HoeffdingTree(ds.n_features, ds.n_classes)
    for j in range(600):
        tree.partial_fit(ds.X[j], int(ds.y[j]))
    W = ds.X[600:650]
    want = np.stack([ref.feature_contributions(tree, x) for x in W])
    assert np.array_equal(tree.feature_contributions(W), want)


# ------------------------------------------------------------ tree predict
def _leaf_kinds(tree: HoeffdingTree, leaf) -> set[str]:
    """Which branches of ``_leaf_proba`` a leaf takes."""
    st, n_classes = leaf.stats, tree.n_classes
    if st.total == 0:
        return {"empty"}
    if st.total < 2 * n_classes:
        return {"majority_young"}
    kinds = {"naive_bayes"}
    if (st.class_counts == 0).any():
        kinds.add("nc0")
    if (st.class_counts == 1).any():
        kinds.add("nc1")
    return kinds


_PREDICT_TREES = {}


def _predict_tree(seed: int) -> tuple[HoeffdingTree, np.ndarray]:
    """A seeded tree (d 1-40, 2-12 classes, noisy and skewed labels) and a
    probe window with duplicate rows and rows exactly on split thresholds."""
    if seed not in _PREDICT_TREES:
        _PREDICT_TREES[seed] = _build_predict_tree(seed)
    return _PREDICT_TREES[seed]


def _build_predict_tree(seed: int) -> tuple[HoeffdingTree, np.ndarray]:
    g = np.random.default_rng([seed, 31])
    d, n_classes = int(g.integers(1, 41)), int(g.integers(2, 13))
    tree = HoeffdingTree(d, n_classes, grace_period=int(g.integers(5, 40)))
    # per-tree split settings, drawn to vary the trees' shapes
    tree.tau, tree.max_depth = float(g.uniform(0.05, 0.5)), int(g.integers(1, 12))
    n = 0 if seed % 10 == 0 else int(g.integers(1, 900))
    X = g.standard_normal((n, d)) * g.uniform(0.1, 10, d)
    score = X @ g.standard_normal(d)
    y = np.digitize(score, np.quantile(score, np.sort(g.random(n_classes - 1)))) if n else []
    noise = g.choice([0.0, 0.2, 0.9])  # share of labels drawn at random
    for j in range(n):
        label = int(y[j]) if g.random() >= noise else int(g.integers(n_classes))
        tree.partial_fit(X[j], label)
    W = g.standard_normal((int(g.choice([1, 8, 50, 75])), d)) * 2
    W = np.concatenate([W, W[g.integers(0, len(W), 5)]])  # duplicates
    on_threshold = []
    for x in W[:10]:
        node, x = tree.root, x.copy()
        while not node.is_leaf:
            if g.random() < 0.5:
                x[node.split_feature] = node.threshold
            node = node.left if x[node.split_feature] <= node.threshold else node.right
        on_threshold.append(x)
    return tree, np.concatenate([W] + [np.stack(on_threshold)])


PREDICT_SEEDS = range(80)


@pytest.mark.parametrize("seed", PREDICT_SEEDS)
def test_predict_batch_exact(seed):
    tree, W = _predict_tree(seed)
    want_p = np.stack([ref.tree_proba(tree, x) for x in W])
    want = np.argmax(want_p, axis=1)
    got = tree.predict_batch(W)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
    assert [tree.predict(x) for x in W] == want.tolist()
    for x, p in zip(W, want_p):
        assert np.array_equal(tree.predict_proba(x), p)
    leaves = {id(ref.path(tree, x)[-1]): ref.path(tree, x)[-1] for x in W}
    for leaf in leaves.values():
        rows = [j for j, x in enumerate(W) if ref.path(tree, x)[-1] is leaf]
        block = tree._leaf_proba_batch(leaf, W[rows])
        assert np.array_equal(block, want_p[rows])


def test_predict_batch_covers_leaf_kinds():
    """The seeded trees reach every branch of the leaf score, and probe
    rows land exactly on thresholds they are compared with."""
    kinds, on_threshold = set(), 0
    for seed in PREDICT_SEEDS:
        tree, W = _predict_tree(seed)
        for x in W:
            kinds |= _leaf_kinds(tree, tree._sort(x))
            on_threshold += any(x[p.split_feature] == p.threshold
                                for p in ref.path(tree, x)[:-1])
    assert kinds == {"empty", "majority_young", "naive_bayes", "nc0", "nc1"}
    assert on_threshold > 0


def test_predict_batch_empty_and_fresh():
    tree = HoeffdingTree(3, 4)
    assert np.array_equal(tree.predict_batch(np.zeros((0, 3))), np.zeros(0, np.intp))
    W = np.random.default_rng(0).random((6, 3))
    assert np.array_equal(tree.predict_batch(W), [np.argmax(ref.tree_proba(tree, x)) for x in W])
    tree, W = _predict_tree(3)
    assert tree.predict_batch(W[:0]).shape == (0,)


def test_predict_batch_does_not_call_predict(monkeypatch):
    tree, W = _predict_tree(7)
    want = np.array([np.argmax(ref.tree_proba(tree, x)) for x in W])

    def boom(*args):
        raise AssertionError("per-row path called")

    for name in ("predict", "predict_proba", "_leaf_proba"):
        monkeypatch.setattr(HoeffdingTree, name, boom)
    monkeypatch.setattr(GaussianNB, "predict_proba", boom)
    assert np.array_equal(tree.predict_batch(W), want)


# ------------------------------------------------------------ split search
def _gains_hex(gains) -> list[tuple[str, str]]:
    return [(float(g).hex(), float(t).hex()) for g, t in gains]


def _assert_gains_exact(tree: HoeffdingTree, st: GaussianNB, got=None) -> None:
    want = [ref.candidate_gain(st, f) for f in range(tree.n_features)]
    if got is None:
        got = tree._candidate_gains(st)
    assert got == want
    assert _gains_hex(got) == _gains_hex(want)


@pytest.mark.parametrize("name", ["RBF", "Arabic"])
def test_candidate_gains_along_real_runs(name, monkeypatch):
    """Every split attempt of a tree trained along a real stream."""
    ds = _stream(name)
    seen = []
    batched = HoeffdingTree._candidate_gains

    def checked(self, st):
        got = batched(self, st)
        _assert_gains_exact(self, st, got)
        seen.append(1)
        return got

    monkeypatch.setattr(HoeffdingTree, "_candidate_gains", checked)
    for grace in (10, 30):
        tree = HoeffdingTree(ds.n_features, ds.n_classes, grace_period=grace)
        for j in range(len(ds)):
            tree.partial_fit(ds.X[j], int(ds.y[j]))
    assert len(seen) > 100


def test_candidate_gains_one_entropy_call(monkeypatch):
    """The split search calls the scalar _entropy at most once (for the
    leaf itself); every candidate's children come from one array pass."""
    from repro.classifiers import hoeffding_tree as ht

    calls, per_search = [], []
    entropy, gains = ht._entropy, HoeffdingTree._candidate_gains

    def counted_entropy(counts):
        calls.append(1)
        return entropy(counts)

    def counted_gains(self, st):
        before = len(calls)
        out = gains(self, st)
        per_search.append(len(calls) - before)
        return out

    monkeypatch.setattr(ht, "_entropy", counted_entropy)
    monkeypatch.setattr(HoeffdingTree, "_candidate_gains", counted_gains)
    for name in ("RBF", "Arabic"):
        ds = _stream(name)
        tree = HoeffdingTree(ds.n_features, ds.n_classes, grace_period=10)
        for j in range(len(ds)):
            tree.partial_fit(ds.X[j], int(ds.y[j]))
    g = np.random.default_rng(3)
    for n_classes in (2, 9, 130):
        HoeffdingTree(6, n_classes)._candidate_gains(_random_stats(g, 6, n_classes, 40))
    assert len(per_search) > 100
    assert max(per_search) <= 1


@pytest.mark.parametrize("name", ["RBF", "Arabic"])
def test_running_total_equals_class_counts_sum(name, monkeypatch):
    """GaussianNB.total equals class_counts.sum() after every update: in
    a tree's leaves, in DWM's experts and in ARF's trees, which fit each
    row up to 10 times in a row (its Poisson(6) weight)."""
    from repro.classifiers.ensembles import ARF, DWM

    fit, updated = GaussianNB.partial_fit, {}

    def checked_fit(self, x, y):
        fit(self, x, y)
        assert self.total == self.class_counts.sum()
        updated[id(self)] = updated.get(id(self), 0) + 1

    monkeypatch.setattr(GaussianNB, "partial_fit", checked_fit)
    ds = _stream(name)
    tree = HoeffdingTree(ds.n_features, ds.n_classes)
    dwm, arf = DWM(ds.n_features, ds.n_classes), ARF(ds.n_features, ds.n_classes)
    n_experts = 1
    for j in range(len(ds)):
        x, y = ds.X[j], int(ds.y[j])
        tree.partial_fit(x, y)
        dwm.process(x, y)
        arf.process(x, y)
        n_experts = max(n_experts, len(dwm.experts))
    assert tree.growth_events and n_experts > 1
    assert any(t.growth_events for t in arf.trees)
    assert len(updated) > 2 * arf.n_trees
    assert sum(updated.values()) > 3 * len(ds) * arf.n_trees


def _random_stats(g: np.random.Generator, n_features: int, n_classes: int,
                  max_count: int) -> GaussianNB:
    st = GaussianNB(n_features, n_classes)
    st.class_counts = g.integers(0, max_count + 1, n_classes).astype(float)
    st.total = float(st.class_counts.sum())
    st.mean = g.standard_normal((n_classes, n_features)) * g.choice([1e-3, 1.0, 1e3], n_features)
    st.m2 = g.random((n_classes, n_features)) * st.class_counts[:, None] * g.uniform(0.01, 5)
    return st


def _left_sums(st: GaussianNB, feat: int) -> list[float]:
    """Left-branch mass of each candidate threshold, as the scalar loop sums it."""
    present = st.class_counts > 1
    means = st.mean[present, feat]
    stds = np.sqrt(st.m2[present, feat] / st.class_counts[present]) + 1e-9
    counts = st.class_counts
    sums = []
    for thr in np.linspace(np.min(means - 2 * stds), np.max(means + 2 * stds), 10)[1:-1]:
        z = (thr - st.mean[:, feat]) / (np.sqrt(st.m2[:, feat] / np.maximum(counts, 1)) + 1e-9)
        sums.append(float((counts * 0.5 * (1 + _erf(z / np.sqrt(2)))).sum()))
    return sums


@pytest.mark.parametrize("seed", range(40))
def test_candidate_gains_random_stats(seed):
    """Random leaf statistics with 2-130 classes: from 8 classes on,
    numpy's pairwise summation groups the class sums differently."""
    g = np.random.default_rng([seed, 8])
    n_classes = int(g.choice([2, 5, 8, 9, 12, 16, 31, 130]))
    n_features = int(g.integers(1, 41))
    tree = HoeffdingTree(n_features, n_classes)
    for max_count in (3, 40, 5000):
        _assert_gains_exact(tree, _random_stats(g, n_features, n_classes, max_count))


def test_candidate_gains_edge_stats():
    g = np.random.default_rng(99)
    tree = HoeffdingTree(4, 9)
    # no class with more than one observation: no candidate at all
    st = _random_stats(g, 4, 9, 1)
    assert not (st.class_counts > 1).any()
    assert tree._candidate_gains(st) == [(0.0, 0.0)] * 4
    _assert_gains_exact(tree, st)
    # constant features: one whose range rounds below EPS, one just above
    st = _random_stats(g, 4, 9, 30)
    st.class_counts[:2] = 7
    st.total = float(st.class_counts.sum())
    st.mean[:, 1], st.m2[:, 1] = 1e8, 0.0
    st.mean[:, 2], st.m2[:, 2] = 0.25, 0.0
    present = st.class_counts > 1
    spread = st.mean[present, 1] + 2e-9 - (st.mean[present, 1] - 2e-9)
    assert spread.max() < 1e-9
    gains = tree._candidate_gains(st)
    assert gains[1] == (0.0, 0.0)
    _assert_gains_exact(tree, st)
    # so few observations that outer thresholds leave < 1 on a side
    st = GaussianNB(4, 9)
    st.class_counts[[0, 3]] = 2, 1
    st.total = float(st.class_counts.sum())
    st.mean[[0, 3]] = g.standard_normal((2, 4))
    st.m2[0] = g.random(4)
    assert any(s < 1 or 3 - s < 1 for f in range(4) for s in _left_sums(st, f))
    _assert_gains_exact(tree, st)
