"""Unit tests for the 12 sequence meta-information functions."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import meta_features as mf
from tests import reference as ref

RNG = np.random.default_rng(42)
FUNC_NAMES = list(mf.SEQUENCE_FUNCTIONS)

SEQS = {
    "constant": np.full(60, 3.7),
    "linear": np.linspace(0, 1, 60),
    "sine": np.sin(np.linspace(0, 12 * np.pi, 60)),
    "noise": RNG.standard_normal(60),
    "ar1": None,  # filled below
    "short": np.array([1.0, 2.0]),
    "empty": np.array([]),
}
_ar = [0.0]
for _ in range(59):
    _ar.append(0.9 * _ar[-1] + 0.1 * RNG.standard_normal())
SEQS["ar1"] = np.array(_ar)


@pytest.mark.parametrize("fname", FUNC_NAMES)
@pytest.mark.parametrize("sname", list(SEQS))
def test_total_on_all_inputs(fname, sname):
    """Every function returns a finite float for every input shape."""
    v = ref.FUNCTIONS[fname](SEQS[sname])
    assert isinstance(v, float)
    assert np.isfinite(v)


def test_mean_std_known_values():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    assert ref.f_mean(x) == pytest.approx(2.5)
    assert ref.f_std(x) == pytest.approx(np.std(x))


def test_skew_symmetric_is_zero():
    x = np.concatenate([np.linspace(-1, 1, 101)])
    assert ref.f_skew(x) == pytest.approx(0.0, abs=1e-10)


def test_skew_positive_for_right_tail():
    x = np.concatenate([np.zeros(50), [10.0]])
    assert ref.f_skew(x) > 1.0


def test_kurtosis_of_gaussian_near_zero():
    x = np.random.default_rng(0).standard_normal(20000)
    assert abs(ref.f_kurtosis(x)) < 0.1


def test_kurtosis_heavy_tail_positive():
    x = np.concatenate([np.zeros(100), [20.0, -20.0]])
    assert ref.f_kurtosis(x) > 5


def test_acf1_of_alternating_is_negative():
    x = np.tile([1.0, -1.0], 30)
    assert ref.f_acf1(x) == pytest.approx(-1.0, abs=0.05)


def test_acf1_of_ar_process_positive():
    assert ref.f_acf1(SEQS["ar1"]) > 0.5


def test_acf2_relation_for_ar1():
    r1, r2 = ref.f_acf1(SEQS["ar1"]), ref.f_acf2(SEQS["ar1"])
    assert r2 == pytest.approx(r1**2, abs=0.25)  # AR(1): rho_2 ~= rho_1^2


def test_pacf1_equals_acf1():
    x = SEQS["noise"]
    assert ref.f_pacf1(x) == pytest.approx(np.clip(ref.f_acf1(x), -1, 1), abs=1e-9)


def test_pacf2_of_ar1_near_zero():
    """AR(1) has (near-)zero partial autocorrelation beyond lag 1."""
    assert abs(ref.f_pacf2(SEQS["ar1"])) < 0.45


def test_mutual_info_high_for_deterministic_sequence():
    x = np.linspace(0, 1, 60)
    assert mf.f_mutual_info(x) > mf.f_mutual_info(SEQS["noise"])


def test_mutual_info_constant_is_zero():
    assert mf.f_mutual_info(SEQS["constant"]) == 0.0


def test_turning_point_rate_extremes():
    assert ref.f_turning_point_rate(np.linspace(0, 1, 50)) == 0.0
    assert ref.f_turning_point_rate(np.tile([0.0, 1.0], 25)) == pytest.approx(1.0)


def test_turning_point_rate_noise_near_two_thirds():
    """i.i.d. noise has expected turning point rate 2/3."""
    x = np.random.default_rng(1).standard_normal(5000)
    assert ref.f_turning_point_rate(x) == pytest.approx(2 / 3, abs=0.03)


def test_imf_entropy_zero_on_trend():
    assert ref.f_imf1_entropy(np.linspace(0, 1, 60)) == 0.0


def test_imf_entropy_positive_on_oscillation():
    assert ref.f_imf1_entropy(SEQS["sine"] + 0.1 * SEQS["noise"]) > 0.0


@pytest.mark.parametrize("k, w", [
    pytest.param(k, w, id=str(k) if w == 50 else f"w{w}-{k}")
    for w in (50, 3, 4) for k in (1, 2, 5, 14)
])
def test_matrix_path_matches_scalar(k, w):
    M = np.random.default_rng(k).random((w, k))
    if k >= 3:
        M[:, 2] = 1.23  # constant column exercises sentinels
    sc = np.stack([mf.compute_sequence_features(M[:, c]) for c in range(k)])
    vec = mf.compute_feature_matrix(M)
    np.testing.assert_allclose(sc, vec, atol=1e-9)


@pytest.mark.parametrize("fname", FUNC_NAMES)
def test_matrix_path_matches_scalar_per_function(fname):
    M = np.random.default_rng(7).random((40, 3))
    sc = np.array([ref.FUNCTIONS[fname](M[:, c]) for c in range(3)])
    vec = mf.compute_feature_matrix(M, [fname])[:, 0]
    np.testing.assert_allclose(sc, vec, atol=1e-9)


def test_compute_sequence_features_subset_order():
    x = SEQS["noise"]
    out = mf.compute_sequence_features(x, ["std", "mean"])
    assert out[0] == pytest.approx(ref.f_std(x))
    assert out[1] == pytest.approx(ref.f_mean(x))


def test_function_groups_cover_all_sequence_functions():
    grouped = {f for g, fs in mf.FUNCTION_GROUPS.items() for f in fs if f != "shapley"}
    assert grouped == set(mf.SEQUENCE_FUNCTIONS)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-1e4, 1e4), min_size=0, max_size=120))
def test_all_functions_finite_on_arbitrary_floats(xs):
    x = np.array(xs)
    for f in ref.FUNCTIONS.values():
        assert np.isfinite(f(x))
    assert np.array_equal(mf.compute_sequence_features(x), ref.sequence_features(x))


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 6), st.integers(8, 60))
def test_matrix_shape_property(k, w):
    M = np.random.default_rng(0).random((w, k))
    out = mf.compute_feature_matrix(M)
    assert out.shape == (k, len(mf.SEQUENCE_FUNCTIONS))
    assert np.all(np.isfinite(out))
