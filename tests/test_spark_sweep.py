"""Tests for the distributed experiment sweep (applyInPandas fan-out)."""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.sparkjobs.sweep import ERROR_CHARS, _run_one, aggregate, run_sweep


@pytest.fixture(scope="module")
def tiny_results(spark):
    cfgs = [
        {"dataset": "STAGGER", "method": "ER", "seed": 0},
        {"dataset": "STAGGER", "method": "ER", "seed": 1},
        {"dataset": "CMC", "method": "HTCD", "seed": 0},
        {"dataset": "CMC", "method": "DWM", "seed": 0},
    ]
    return run_sweep(spark, cfgs, length_scale=0.2).cache()


def test_sweep_one_row_per_config(tiny_results):
    assert tiny_results.count() == 4
    assert tiny_results.select("run_id").distinct().count() == 4


def test_sweep_no_errors(tiny_results):
    assert tiny_results.where("error is not null").count() == 0


def test_sweep_metric_ranges(tiny_results):
    rows = tiny_results.collect()
    for r in rows:
        assert 0.0 <= r.accuracy <= 1.0
        assert 0.0 <= r.c_f1 <= 1.0
        assert r.runtime_s > 0


def test_sweep_matches_sequential_runner(spark):
    """A Spark-executed run must equal the same run executed locally."""
    from repro.runner import run_stream

    res = run_sweep(
        spark, [{"dataset": "CMC", "method": "ER", "seed": 2}], length_scale=0.3
    ).collect()[0]
    local = run_stream("CMC", "ER", 2, length_scale=0.3)
    assert res.kappa == pytest.approx(local["kappa"], abs=1e-9)
    assert res.c_f1 == pytest.approx(local["c_f1"], abs=1e-9)


def test_sweep_captures_failures_as_rows(spark):
    res = run_sweep(
        spark, [{"dataset": "NOPE", "method": "ER", "seed": 0}]
    ).collect()[0]
    assert res.error is not None and "KeyError" in res.error


def test_run_one_error_keeps_traceback_tail():
    """The executor-side function, called directly: a failed run's error
    holds the exception line and the frame that raised, within the cap."""
    pdf = pd.DataFrame([{"run_id": 3, "dataset": "NOPE", "method": "ER", "seed": 0,
                         "length_scale": 0.2}])
    row = _run_one(pdf).iloc[0]
    assert row.run_id == 3 and row.kappa == 0.0
    assert row.error.startswith("KeyError: 'NOPE'")
    assert 'datasets.py", line' in row.error and "build_dataset" in row.error
    assert len(row.error) <= ERROR_CHARS


def test_aggregate_means_and_stds(spark, tiny_results):
    agg = aggregate(tiny_results).toPandas()
    stag = agg[(agg.dataset == "STAGGER") & (agg.method == "ER")].iloc[0]
    assert stag.n_runs == 2
    assert stag.kappa_std >= 0
    assert set(agg.columns) >= {"kappa_mean", "c_f1_mean", "disc_mean",
                                "runtime_mean_s", "n_models_mean"}


def test_aggregate_excludes_failed_runs(spark):
    res = run_sweep(
        spark,
        [{"dataset": "NOPE", "method": "ER", "seed": 0},
         {"dataset": "STAGGER", "method": "ER", "seed": 0}],
        length_scale=0.2,
    )
    agg = aggregate(res).toPandas()
    assert len(agg) == 1 and agg.iloc[0].dataset == "STAGGER"
