"""Tests for oracle discrimination ability (Table III machinery)."""
import numpy as np
import pytest

from repro.core.discrimination import oracle_discrimination_ds
from repro.streams.datasets import build_dataset


def test_unsupervised_blind_to_pure_label_drift():
    """STAGGER concepts share p(X): U-MI cannot separate them, supervised can."""
    u = oracle_discrimination_ds(
        build_dataset("STAGGER", 0, length_scale=0.6), source_mode="unsupervised")
    s = oracle_discrimination_ds(
        build_dataset("STAGGER", 0, length_scale=0.6), source_mode="supervised")
    assert abs(u) < 1.0
    assert s > 1.0
    assert s > u + 0.5


def test_supervised_weak_on_pure_feature_drift():
    """Synth_D drifts only in p(X) with a fixed labeler."""
    u = oracle_discrimination_ds(
        build_dataset("Synth_D", 0, length_scale=0.6), source_mode="unsupervised")
    assert u > 1.0


def test_ficsum_positive_on_both_drift_types():
    for name in ["STAGGER", "Synth_D"]:
        z = oracle_discrimination_ds(
            build_dataset(name, 0, length_scale=0.6), source_mode="all")
        assert z > 0.5, name


def test_single_function_restriction_runs():
    z = oracle_discrimination_ds(
        build_dataset("Synth_D", 0, length_scale=0.5), source_mode="all", functions=("mean",)
    )
    assert np.isfinite(z)


def test_error_rate_variant_runs():
    z = oracle_discrimination_ds(
        build_dataset("STAGGER", 0, length_scale=0.5), source_mode="error_rate")
    assert np.isfinite(z)
    assert z > 0.5  # error rate separates STAGGER concepts


def test_single_concept_dataset_returns_zero():
    ds = build_dataset("STAGGER", 0, length_scale=0.3)
    ds.concept_ids[:] = 0
    assert oracle_discrimination_ds(ds) == 0.0


def test_value_capped():
    z = oracle_discrimination_ds(build_dataset("UCI-Wine", 0, length_scale=0.5))
    assert -500.0 <= z <= 500.0
