"""Tests for the sequential run harness and method registry."""
import numpy as np
import pytest

from repro.runner import make_method, run_stream

ALL_METHODS = ["FiCSUM", "ER", "S-MI", "U-MI", "HTCD", "RCD", "DWM", "ARF",
               "mi:mean", "mi:autocorrelation", "mi:shapley"]


@pytest.mark.parametrize("method", ALL_METHODS)
def test_make_method_instantiates(method):
    m = make_method(method, 4, 2, seed=0)
    out = m.process(np.zeros(4), 0)
    if isinstance(out, tuple):
        pred, mid = out
    else:
        pred, mid = out.prediction, out.model_id
    assert pred in (0, 1)
    assert isinstance(mid, int)


def test_make_method_unknown_raises():
    with pytest.raises(ValueError):
        make_method("nope", 2, 2, 0)
    with pytest.raises(KeyError):
        make_method("mi:bogus", 2, 2, 0)


@pytest.mark.parametrize("method", ["ER", "HTCD", "DWM"])
def test_run_stream_result_schema(method):
    r = run_stream("STAGGER", method, 0, length_scale=0.2)
    for key in ["dataset", "method", "seed", "kappa", "accuracy", "c_f1",
                "discrimination", "runtime_s", "n_models", "n_drifts"]:
        assert key in r
    assert r["dataset"] == "STAGGER" and r["method"] == method
    assert 0.0 <= r["accuracy"] <= 1.0
    assert -1.0 <= r["kappa"] <= 1.0
    assert 0.0 <= r["c_f1"] <= 1.0
    assert r["runtime_s"] > 0


def test_run_stream_deterministic_metrics():
    a = run_stream("CMC", "ER", 1, length_scale=0.3)
    b = run_stream("CMC", "ER", 1, length_scale=0.3)
    assert a["kappa"] == b["kappa"]
    assert a["c_f1"] == b["c_f1"]


def test_run_stream_mi_variant():
    r = run_stream("Synth_D", "mi:mean", 0, length_scale=0.3)
    assert np.isfinite(r["discrimination"])


def test_run_stream_shapley_only_variant():
    """Regression: a schema with zero sequence functions (shapley only)
    must not fall back to the full function set."""
    r = run_stream("Synth_D", "mi:shapley", 0, length_scale=0.3)
    assert np.isfinite(r["kappa"])


def test_discrimination_zero_for_frameworks():
    r = run_stream("STAGGER", "DWM", 0, length_scale=0.2)
    assert r["discrimination"] == 0.0
