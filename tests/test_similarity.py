"""Unit tests for weighted similarity and dynamic weights."""
import numpy as np
import pytest

from repro.core import similarity as S
from tests import reference as ref


def test_identical_vectors_similarity_one():
    v = np.random.default_rng(0).random(20)
    assert S.similarity(v, v) == pytest.approx(1.0)


def test_opposed_vectors_negative():
    a = np.array([1.0, 1.0, 0.0, 0.0])
    b = np.array([0.0, 0.0, 1.0, 1.0])
    assert S.similarity(a, b) < 0  # centered cosine of disjoint supports


def test_one_dim_fallback():
    assert S.similarity(np.array([0.3]), np.array([0.3])) == pytest.approx(1.0)
    assert S.similarity(np.array([0.0]), np.array([1.0])) == pytest.approx(0.0)
    assert S.similarity(np.array([0.2]), np.array([0.5])) == pytest.approx(0.7)


def test_similarity_bounded():
    g = np.random.default_rng(1)
    for _ in range(50):
        a, b, w = g.random(10), g.random(10), g.random(10) + 0.1
        assert -1.0 - 1e-9 <= S.similarity(a, b, w) <= 1.0 + 1e-9


def test_weights_change_similarity():
    a = np.array([0.9, 0.1, 0.5, 0.5])
    b = np.array([0.9, 0.9, 0.5, 0.5])
    w_on = np.array([0.0, 1.0, 0.0, 0.0])  # only the differing dim
    w_off = np.array([1.0, 0.0, 0.0, 0.0])  # only the matching dim
    assert S.similarity(a, b, w_off) > S.similarity(a, b, w_on)


def test_degenerate_both_zero_after_weighting():
    a = np.full(4, 0.5)
    assert S.similarity(a, a, np.zeros(4)) == 1.0


def test_sigma_weight_floor_and_inverse():
    sig = np.array([0.5, 0.001, 1.0])
    w = S.sigma_weight(sig)
    assert w[0] == pytest.approx(2.0)
    assert w[1] == pytest.approx(100.0)  # floored at 0.01
    assert w[2] == pytest.approx(1.0)


def test_inter_concept_fisher_prefers_separating_dim():
    mus = np.array([[0.1, 0.5], [0.9, 0.5]])       # dim0 separates concepts
    sigmas = np.array([[0.1, 0.1], [0.1, 0.1]])
    v = S.inter_concept_fisher(mus, sigmas)
    assert v[0] > 10 * v[1]


def test_intra_classifier_fisher_mean_ratio():
    sc = np.array([[0.2, 0.0], [0.4, 0.0]])
    own = np.array([[0.1, 0.1], [0.1, 0.1]])
    v = S.intra_classifier_fisher(sc, own)
    assert v[0] == pytest.approx(3.0)
    assert v[1] == pytest.approx(0.0)


def test_dynamic_weights_no_repo_is_scale_only():
    sig = np.array([0.1, 0.2, 0.4])
    w = S.dynamic_weights(sig, None)
    # proportional to 1/sigma, normalized to mean 1
    raw = 1.0 / sig
    np.testing.assert_allclose(w, raw / raw.mean(), rtol=1e-6)


def test_dynamic_weights_mean_one_and_clipped():
    g = np.random.default_rng(2)
    sig = g.random(30) + 0.01
    mus = g.random((3, 30))
    sigmas = g.random((3, 30)) * 0.2 + 0.01
    sc = g.random((3, 30)) * 0.1
    w = S.dynamic_weights(sig, S.discrimination_factor(mus, sigmas, sc))
    assert np.all(w >= 0.1 - 1e-9) and np.all(w <= 10.0 + 1e-9)
    assert w.mean() == pytest.approx(1.0, abs=0.35)  # clip may shift mean


def test_dynamic_weights_boosts_separating_dim():
    sig = np.array([0.1, 0.1])
    mus = np.array([[0.1, 0.5], [0.9, 0.5]])
    sigmas = np.array([[0.05, 0.05], [0.05, 0.05]])
    w = S.dynamic_weights(sig, S.discrimination_factor(mus, sigmas))
    assert w[0] > w[1]


@pytest.mark.parametrize("seed", range(20))
@pytest.mark.parametrize("with_sc", [True, False])
def test_split_weights_equal_combined_reference(seed, with_sc):
    """dynamic_weights of discrimination_factor equals w_d recomputed
    inside one weight call, bit for bit."""
    g = np.random.default_rng(seed)
    n, d = int(g.integers(2, 6)), 30
    sig = np.where(g.random(d) < 0.2, 1.0, g.random(d) * 0.3)
    mus = g.random((n, d))
    sigmas = np.where(g.random((n, d)) < 0.1, 0.0, g.random((n, d)) * 0.2)
    sc = np.where(g.random((n, d)) < 0.3, 0.0, g.random((n, d)) * 0.1) if with_sc else None
    w = S.dynamic_weights(sig, S.discrimination_factor(mus, sigmas, sc))
    assert np.array_equal(w, ref.dynamic_weights(sig, mus, sigmas, sc))
    assert np.array_equal(S.dynamic_weights(sig, None), ref.dynamic_weights(sig))
