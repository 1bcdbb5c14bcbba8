"""Unit tests for fingerprint construction, normalization and the
online concept fingerprint."""
import numpy as np
import pytest

from repro.core.ficsum import FiCSUM, FicsumConfig
from repro.core.fingerprint import (
    ConceptFingerprint,
    FingerprintSchema,
    Normalizer,
    compute_fingerprint,
    error_distance_sequence,
)
from repro.core.meta_features import SEQUENCE_FUNCTIONS

N_FUNCS = len(SEQUENCE_FUNCTIONS)


@pytest.mark.parametrize("d", [1, 3, 10])
def test_schema_dim_all(d):
    s = FingerprintSchema(n_features=d)
    assert s.dim == N_FUNCS * (d + 4) + d  # 12 per source + d shapley


@pytest.mark.parametrize("d", [1, 3, 10])
def test_schema_dim_supervised(d):
    s = FingerprintSchema(n_features=d, source_mode="supervised")
    assert s.dim == N_FUNCS * 4


@pytest.mark.parametrize("d", [1, 3, 10])
def test_schema_dim_unsupervised(d):
    s = FingerprintSchema(n_features=d, source_mode="unsupervised")
    assert s.dim == N_FUNCS * d + d


def test_schema_dim_error_rate():
    assert FingerprintSchema(n_features=5, source_mode="error_rate").dim == 1


def test_schema_rejects_unknown_mode():
    with pytest.raises(ValueError):
        FingerprintSchema(n_features=2, source_mode="bogus")


@pytest.mark.parametrize("mode", ["all", "error_rate"])
def test_schema_rejects_unknown_function(mode):
    """A misspelt function fails at construction, also under error_rate,
    whose fingerprint never calls a function."""
    with pytest.raises(ValueError, match="'meen'"):
        FingerprintSchema(n_features=2, source_mode=mode, functions=("meen",))
    with pytest.raises(ValueError, match="'meen'"):
        FiCSUM(2, 2, FicsumConfig(source_mode=mode, functions=("mean", "meen")))


def test_schema_function_subset():
    s = FingerprintSchema(n_features=2, functions=("mean", "std"))
    assert s.dim == 2 * (2 + 4)
    assert not s.use_shapley


def test_classifier_dim_mask_flags_supervised_dims():
    s = FingerprintSchema(n_features=2)
    mask = s.classifier_dim_mask()
    labels = s.dim_labels()
    for m, (src, fn) in zip(mask, labels):
        expected = src in ("l", "error", "error_dist") or fn == "shapley"
        assert m == expected
    assert mask.sum() == 3 * N_FUNCS + 2


@pytest.mark.parametrize(
    "errors,expected",
    [
        (np.array([0, 0, 0]), []),
        (np.array([1, 0, 0]), []),
        (np.array([1, 0, 1, 1]), [2, 1]),
        (np.array([0, 1, 0, 0, 1]), [3]),
    ],
)
def test_error_distance_sequence(errors, expected):
    np.testing.assert_array_equal(error_distance_sequence(errors), expected)


def _window(d=3, w=40, seed=0):
    g = np.random.default_rng(seed)
    return g.random((w, d)), g.integers(0, 2, w), g.integers(0, 2, w)


@pytest.mark.parametrize("mode", ["all", "supervised", "unsupervised", "error_rate"])
def test_compute_fingerprint_shape_and_finite(mode):
    X, y, l = _window()
    s = FingerprintSchema(n_features=3, source_mode=mode)
    v = compute_fingerprint(X, y, l, s, None)
    assert v.shape == (s.dim,)
    assert np.all(np.isfinite(v))


def test_error_rate_fingerprint_is_error_mean():
    X, y, l = _window()
    s = FingerprintSchema(n_features=3, source_mode="error_rate")
    v = compute_fingerprint(X, y, l, s, None)
    assert v[0] == pytest.approx(np.mean(y != l))


def test_fingerprint_mean_dims_match_sources():
    X, y, l = _window()
    s = FingerprintSchema(n_features=3, functions=("mean",))
    v = compute_fingerprint(X, y, l, s, None)
    labels = s.dim_labels()
    for j, (src, fn) in enumerate(labels):
        if src == "x0":
            assert v[j] == pytest.approx(X[:, 0].mean())
        if src == "error":
            assert v[j] == pytest.approx(np.mean(y != l))


def test_fingerprint_identical_windows_identical():
    X, y, l = _window()
    s = FingerprintSchema(n_features=3)
    np.testing.assert_array_equal(
        compute_fingerprint(X, y, l, s, None), compute_fingerprint(X, y, l, s, None)
    )


def test_fingerprint_without_tree_has_zero_shapley():
    X, y, l = _window()
    s = FingerprintSchema(n_features=3)
    v = compute_fingerprint(X, y, l, s, None)
    assert np.all(v[-3:] == 0.0)


def test_fingerprint_with_tree_shapley_nonnegative():
    from repro.classifiers.hoeffding_tree import HoeffdingTree

    X, y, l = _window(w=120)
    tree = HoeffdingTree(3, 2)
    for i in range(len(X)):
        tree.partial_fit(X[i], int(y[i]))
    s = FingerprintSchema(n_features=3)
    v = compute_fingerprint(X, y, l, s, tree)
    assert np.all(v[-3:] >= 0.0)


@pytest.mark.parametrize("mode", ["all", "supervised", "unsupervised", "error_rate"])
def test_stacked_windows_equal_single_calls(mode):
    """A (m, w, d) stack of windows gives, row by row, the floats of one
    call per window: every window's columns share one kernel call."""
    from repro.streams.datasets import build_dataset

    ds = build_dataset("Synth_DAF", 1, length_scale=0.5)
    starts = np.array([0, 3, 51, 200, 203, 640, 1100])
    idx = starts[:, None] + np.arange(50)
    l = np.where(np.arange(len(ds)) % 7 == 0, (ds.y + 1) % ds.n_classes, ds.y)
    s = FingerprintSchema(n_features=ds.n_features, source_mode=mode)
    stacked = compute_fingerprint(ds.X[idx], ds.y[idx], l[idx], s)
    assert stacked.shape == (len(starts), s.dim)
    for k, a in enumerate(starts):
        w = slice(a, a + 50)
        assert np.array_equal(stacked[k], compute_fingerprint(ds.X[w], ds.y[w], l[w], s))


class TestNormalizer:
    def test_first_vector_maps_to_half(self):
        n = Normalizer(3)
        v = np.array([1.0, 2.0, 3.0])
        n.update(v)
        np.testing.assert_allclose(n.normalize(v), 0.5)

    def test_range_maps_to_unit_interval(self):
        n = Normalizer(1)
        n.update(np.array([0.0]))
        n.update(np.array([10.0]))
        assert n.normalize(np.array([5.0]))[0] == pytest.approx(0.5)
        assert n.normalize(np.array([0.0]))[0] == 0.0
        assert n.normalize(np.array([10.0]))[0] == 1.0

    def test_out_of_range_clipped(self):
        n = Normalizer(1)
        n.update(np.array([0.0]))
        n.update(np.array([1.0]))
        assert n.normalize(np.array([5.0]))[0] == 1.0
        assert n.normalize(np.array([-5.0]))[0] == 0.0


class TestConceptFingerprint:
    def test_matches_numpy_moments(self):
        g = np.random.default_rng(0)
        vs = g.random((30, 4))
        cf = ConceptFingerprint(4)
        for v in vs:
            cf.incorporate(v)
        np.testing.assert_allclose(cf.mu, vs.mean(axis=0), atol=1e-10)
        np.testing.assert_allclose(cf.sigma, vs.std(axis=0), atol=1e-10)
        assert cf.n_incorporated == 30

    def test_reset_dims_is_soft(self):
        cf = ConceptFingerprint(2)
        for v in np.random.default_rng(1).random((10, 2)):
            cf.incorporate(v)
        mu_before = cf.mu.copy()
        cf.reset_dims(np.array([True, False]))
        np.testing.assert_allclose(cf.mu, mu_before)  # mean continuity
        assert cf.count[0] < cf.count[1]

    def test_reset_dims_speeds_adaptation(self):
        cf = ConceptFingerprint(1)
        for _ in range(20):
            cf.incorporate(np.array([0.0]))
        cf.reset_dims(np.array([True]))
        for _ in range(5):
            cf.incorporate(np.array([1.0]))
        assert cf.mu[0] > 0.3  # moved much further than 5/25 would
