"""Unit tests for the incremental classifiers (HT, NB) and ensembles."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.classifiers.ensembles import ARF, DWM
from repro.classifiers.hoeffding_tree import HoeffdingTree, _erf
from repro.classifiers.naive_bayes import GaussianNB
from tests import reference as ref


def _blobs(n, d, k, seed=0, sep=3.0):
    """k Gaussian blobs, trivially separable at sep=3."""
    g = np.random.default_rng(seed)
    centers = g.random((k, d)) * sep * k
    y = g.integers(0, k, n)
    X = centers[y] + g.standard_normal((n, d))
    return X, y


def test_erf_matches_known_values():
    import math

    for z in [-2.0, -0.5, 0.0, 0.5, 2.0]:
        assert float(_erf(z)) == pytest.approx(math.erf(z), abs=2e-7)


def test_erf_vectorized():
    z = np.linspace(-3, 3, 13)
    out = _erf(z)
    assert out.shape == z.shape
    assert np.all(np.diff(out) > 0)  # monotone


@pytest.mark.parametrize("d,k", [(2, 2), (5, 3), (8, 4)])
def test_hoeffding_tree_learns_blobs(d, k):
    X, y = _blobs(1500, d, k, seed=d)
    tree = HoeffdingTree(d, k)
    correct = 0
    for i in range(len(X)):
        correct += tree.predict(X[i]) == y[i]
        tree.partial_fit(X[i], int(y[i]))
    # prequential accuracy includes cold-start mistakes
    assert correct / len(X) > 0.78


def test_hoeffding_tree_grows_on_structured_data():
    g = np.random.default_rng(0)
    X = g.random((2000, 2))
    y = (X[:, 0] > 0.5).astype(int)
    tree = HoeffdingTree(2, 2)
    for i in range(len(X)):
        tree.partial_fit(X[i], int(y[i]))
    assert tree.growth_events >= 1
    assert tree.root.split_feature == 0  # split on the true feature


def test_hoeffding_tree_proba_sums_to_one():
    X, y = _blobs(300, 3, 2)
    tree = HoeffdingTree(3, 2)
    for i in range(len(X)):
        tree.partial_fit(X[i], int(y[i]))
    p = tree.predict_proba(X[0])
    assert p.shape == (2,)
    assert p.sum() == pytest.approx(1.0)


def test_hoeffding_tree_contributions_shape_and_sign():
    g = np.random.default_rng(1)
    X = g.random((2000, 3))
    y = (X[:, 1] > 0.5).astype(int)
    tree = HoeffdingTree(3, 2)
    for i in range(len(X)):
        tree.partial_fit(X[i], int(y[i]))
    c = tree.feature_contributions(X[:1])  # a one-row window
    assert c.shape == (1, 3)
    assert np.all(c >= 0)
    if tree.growth_events:
        assert c.sum() >= 0


def test_hoeffding_tree_untrained_uniform():
    tree = HoeffdingTree(2, 4)
    np.testing.assert_allclose(tree.predict_proba(np.zeros(2)), 0.25)


def test_gaussian_nb_learns_blobs():
    X, y = _blobs(1000, 4, 3, seed=9)
    nb = GaussianNB(4, 3)
    correct = 0
    for i in range(len(X)):
        correct += nb.predict(X[i]) == y[i]
        nb.partial_fit(X[i], int(y[i]))
    assert correct / len(X) > 0.9


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 1000))
def test_gaussian_nb_proba_valid(seed):
    g = np.random.default_rng(seed)
    nb = GaussianNB(3, 2)
    for _ in range(g.integers(0, 20)):
        nb.partial_fit(g.standard_normal(3), int(g.integers(0, 2)))
    x = g.standard_normal(3)
    p = nb.predict_proba(x)
    assert p.sum() == pytest.approx(1.0)
    assert np.all(p >= 0)
    assert np.array_equal(p, ref.naive_bayes_proba(nb, x))


@pytest.mark.parametrize("d", [1, 3, 9, 40, 150])
def test_gaussian_nb_proba_exact(d):
    """One row and a block of rows score as the per-class reference loop,
    bit for bit, from the first observation on (classes unseen, seen once
    and seen often; 2-12 classes; from 9 features on numpy sums pairwise)."""
    g = np.random.default_rng(d)
    for n_classes in (2, 4, 12):
        nb = GaussianNB(d, n_classes)
        W = g.standard_normal((20, d)) * 3
        for _ in range(60):
            want = np.stack([ref.naive_bayes_proba(nb, x) for x in W])
            assert np.array_equal(nb.predict_proba_batch(W), want)
            for x, p in zip(W, want):
                assert np.array_equal(nb.predict_proba(x), p)
                assert nb.predict(x) == np.argmax(p)
            y = min(int(g.exponential(2)), n_classes - 1)  # rare classes stay unseen longer
            nb.partial_fit(g.standard_normal(d) + y, y)


def test_dwm_learns_and_single_model_id():
    X, y = _blobs(800, 3, 2, seed=3)
    dwm = DWM(3, 2)
    correct = 0
    for i in range(len(X)):
        pred, mid = dwm.process(X[i], int(y[i]))
        assert mid == 0
        correct += pred == y[i]
    assert correct / len(X) > 0.85


def test_dwm_adds_and_prunes_experts(monkeypatch):
    monkeypatch.setattr(DWM, "period", 10)
    g = np.random.default_rng(0)
    X = g.random((600, 2))
    y = (X[:, 0] > 0.5).astype(int)
    dwm = DWM(2, 2)
    for i in range(len(X)):
        dwm.process(X[i], int(y[i]))
    assert 1 <= len(dwm.experts) <= dwm.max_experts
    assert len(dwm.weights) == len(dwm.experts)


def test_arf_learns_blobs(monkeypatch):
    monkeypatch.setattr(ARF, "n_trees", 5)
    X, y = _blobs(900, 4, 2, seed=5)
    arf = ARF(4, 2)
    correct = 0
    for i in range(len(X)):
        pred, mid = arf.process(X[i], int(y[i]))
        assert mid == 0
        correct += pred == y[i]
    assert correct / len(X) > 0.8


def test_arf_subspaces_valid(monkeypatch):
    monkeypatch.setattr(ARF, "n_trees", 6)
    arf = ARF(10, 2)
    for sub in arf.subspaces:
        assert len(set(sub)) == len(sub)
        assert all(0 <= f < 10 for f in sub)


def test_arf_recovers_after_abrupt_drift(monkeypatch):
    g = np.random.default_rng(2)
    X = g.random((2400, 3))
    y1 = (X[:, 0] > 0.5).astype(int)
    y2 = 1 - y1  # inverted concept
    monkeypatch.setattr(ARF, "n_trees", 5)
    arf = ARF(3, 2)
    accs = []
    for i in range(2400):
        y = y1[i] if i < 1200 else y2[i]
        pred, _ = arf.process(X[i], int(y))
        accs.append(pred == y)
    assert np.mean(accs[2100:]) > 0.7  # recovered on the new concept
    # note: recovery here comes from Poisson(6) retraining, which adapts
    # faster than the per-tree ADWIN can accumulate evidence — drift
    # resets are exercised separately via the ADWIN unit tests
