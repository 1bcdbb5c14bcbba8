"""Unit tests for the lightweight EMD used by IMF-entropy features."""
import numpy as np
import pytest

from repro.core import emd
from tests.reference import imf_entropy


def _sine_plus_trend(n=120):
    t = np.linspace(0, 6 * np.pi, n)
    return np.sin(5 * t) + 0.3 * t


def test_extrema_of_sine():
    x = np.sin(np.linspace(0, 4 * np.pi, 200))
    maxima, minima = emd._extrema(x)
    assert len(maxima) == 2 and len(minima) == 2


def test_extrema_of_monotone_is_empty():
    maxima, minima = emd._extrema(np.linspace(0, 1, 50))
    assert len(maxima) == 0 and len(minima) == 0


def test_envelope_interpolates_through_points():
    x = np.array([0.0, 2.0, 0.0, 2.0, 0.0])
    env = emd._envelope(x, np.array([1, 3]))
    assert env[1] == pytest.approx(2.0) and env[3] == pytest.approx(2.0)


def test_imfs_monotone_returns_empty():
    assert emd.imfs(np.linspace(0, 1, 60)) == []


def test_imfs_extract_fast_mode_first():
    x = _sine_plus_trend()
    modes = emd.imfs(x, n_imfs=2)
    assert len(modes) >= 1
    # first IMF oscillates faster than the residue: more sign changes
    imf1 = modes[0]
    residue = x - sum(modes)
    changes = lambda v: int(np.sum(np.abs(np.diff(np.sign(np.diff(v)))) > 0))
    assert changes(imf1) > changes(residue)


def test_imfs_decomposition_sums_back():
    x = _sine_plus_trend()
    modes = emd.imfs(x, n_imfs=2)
    residue = x - sum(modes)
    np.testing.assert_allclose(sum(modes) + residue, x, atol=1e-10)


@pytest.mark.parametrize("k", [1, 2])
def test_imf_entropy_nonnegative(k):
    x = np.sin(np.linspace(0, 20, 100)) + 0.1 * np.random.default_rng(0).standard_normal(100)
    assert imf_entropy(x, k) >= 0.0


def test_imf_entropy_missing_mode_is_zero():
    assert imf_entropy(np.linspace(0, 1, 60), 2) == 0.0


def test_imf_entropies_single_decomposition_consistent():
    x = np.sin(np.linspace(0, 30, 100))
    e1, e2 = emd.imf_entropies(x)
    assert e1 == imf_entropy(x, 1)
    assert e2 == imf_entropy(x, 2)


def test_imf_entropy_bounded_by_log_bins():
    x = np.random.default_rng(3).standard_normal(200)
    assert imf_entropy(x, 1, bins=10) <= np.log(10) + 1e-9
