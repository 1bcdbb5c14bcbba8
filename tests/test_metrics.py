"""Unit tests for kappa and C-F1."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import metrics as M


class TestKappa:
    def test_perfect_agreement(self):
        y = np.array([0, 1, 2, 0, 1, 2])
        assert M.kappa(y, y) == pytest.approx(1.0)

    def test_random_predictions_near_zero(self):
        g = np.random.default_rng(0)
        y = g.integers(0, 2, 20000)
        p = g.integers(0, 2, 20000)
        assert abs(M.kappa(y, p)) < 0.03

    def test_constant_prediction_zero(self):
        y = np.array([0, 1, 0, 1, 0, 1])
        p = np.zeros(6, dtype=int)
        assert M.kappa(y, p) == pytest.approx(0.0, abs=1e-9)

    def test_empty_is_zero(self):
        assert M.kappa(np.array([]), np.array([])) == 0.0

    def test_known_contingency(self):
        # classic 2x2 example: p0=0.7, pe=0.5 -> kappa=0.4
        y = np.array([0] * 50 + [1] * 50)
        p = np.array([0] * 35 + [1] * 15 + [1] * 35 + [0] * 15)
        assert M.kappa(y, p) == pytest.approx(0.4, abs=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 100))
    def test_bounded(self, seed):
        g = np.random.default_rng(seed)
        y = g.integers(0, 3, 100)
        p = g.integers(0, 3, 100)
        assert -1.0 <= M.kappa(y, p) <= 1.0


class TestCF1:
    def test_perfect_tracking(self):
        c = np.array([0, 0, 1, 1, 0, 0, 1, 1])
        m = np.array([5, 5, 9, 9, 5, 5, 9, 9])
        assert M.c_f1(c, m) == pytest.approx(1.0)

    def test_single_model_formula(self):
        """One model over k equal concepts: F1 = 2/(k+1) each."""
        k = 6
        c = np.repeat(np.arange(k), 100)
        m = np.zeros(k * 100, dtype=int)
        assert M.c_f1(c, m) == pytest.approx(2 / (k + 1), abs=1e-9)

    def test_fragmented_models_penalized(self):
        c = np.repeat([0, 0, 0, 0], 50)
        m_whole = np.zeros(200, dtype=int)
        m_frag = np.repeat([0, 1, 2, 3], 50)
        assert M.c_f1(c, m_whole) > M.c_f1(c, m_frag)

    def test_paper_single_model_six_concepts(self):
        """Matches DWM/ARF C-F1 = 0.29 reported for 6-concept datasets."""
        c = np.repeat(np.arange(6), 500)
        m = np.zeros(3000, dtype=int)
        assert M.c_f1(c, m) == pytest.approx(0.286, abs=0.01)
