"""Spark windowed-fingerprint tests, oracle-checked against DuckDB.

These are the required ``assert_equivalent`` correctness checks: the
Spark window assignment + per-window aggregation path is compared to
DuckDB SQL over the same input (a broken window id or aggregation shows
up as a row diff, not just "it ran").
"""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from tests.oracle import assert_equivalent
from repro.sparkjobs.windows import assign_windows, stream_to_df, window_fingerprints
from repro.streams.datasets import build_dataset

W = 50


@pytest.fixture(scope="module")
def ds():
    return build_dataset("Synth_D", 0, length_scale=0.4)


@pytest.fixture(scope="module")
def obs_df(spark, ds):
    return stream_to_df(spark, ds).cache()


def test_stream_to_df_roundtrip(spark, ds, obs_df):
    assert obs_df.count() == len(ds)
    row = obs_df.orderBy("seq").first()
    assert row.seq == 0
    np.testing.assert_allclose([row[f"x{i}"] for i in range(ds.n_features)], ds.X[0])


def test_assign_windows_against_oracle(spark, ds, obs_df):
    """Window sizes computed by Spark SQL == DuckDB's floor-div grouping."""
    counts = (
        assign_windows(obs_df, W)
        .groupBy("window_id")
        .agg(F.count("*").alias("n"))
    )
    assert_equivalent(
        counts,
        f"SELECT seq // {W} AS window_id, count(*) AS n FROM obs GROUP BY 1",
        obs=obs_df,
    )


def test_window_mean_std_against_oracle(spark, ds, obs_df):
    """Per-window mean/std from the fingerprint path == DuckDB SQL."""
    fps = window_fingerprints(
        obs_df, ["x0", "x1"], ["mean", "std"], window_size=W
    ).where(F.col("source") == "x0").select("window_id", "mean", "std")
    assert_equivalent(
        fps,
        f"""
        SELECT seq // {W} AS window_id,
               avg(x0) AS mean,
               stddev_pop(x0) AS std
        FROM obs GROUP BY 1
        """,
        obs=obs_df,
    )


def test_window_error_rate_against_oracle(spark, ds, obs_df):
    """Mean of a 0/1 error column per window — the ER meta-feature."""
    with_err = obs_df.withColumn("err", (F.col("y") == 0).cast("double"))
    agg = (
        assign_windows(with_err, W)
        .groupBy("window_id")
        .agg(F.avg("err").alias("error_rate"))
    )
    assert_equivalent(
        agg,
        f"""
        SELECT seq // {W} AS window_id,
               avg(CASE WHEN y = 0 THEN 1.0 ELSE 0.0 END) AS error_rate
        FROM obs GROUP BY 1
        """,
        obs=with_err,
    )


def test_window_fingerprints_match_local_computation(spark, ds, obs_df):
    """Distributed per-window vectors == the sequential numpy fast path."""
    from repro.core.meta_features import compute_feature_matrix

    out = (
        window_fingerprints(obs_df, ["x0"], ["mean", "skew", "acf1"], window_size=W)
        .where("window_id = 3 and source = 'x0'")
        .toPandas()
        .iloc[0]
    )
    local = compute_feature_matrix(
        ds.X[3 * W: 4 * W, :1], ["mean", "skew", "acf1"]
    )[0]
    np.testing.assert_allclose(
        [out["mean"], out["skew"], out["acf1"]], local, atol=1e-9
    )


def test_window_fingerprints_cover_all_windows(spark, ds, obs_df):
    out = window_fingerprints(obs_df, ["x0", "x1"], ["mean"], window_size=W)
    n_windows = int(np.ceil(len(ds) / W))
    assert out.select("window_id").distinct().count() == n_windows
    assert out.count() == n_windows * 2  # one row per (window, source)


def zipf_keys(spark, *, n: int, n_keys: int, alpha: float):
    """(k, v) rows whose keys follow a Zipf law over ``n_keys`` ranks."""
    g = np.random.default_rng(3)
    ranks = np.arange(1, n_keys + 1)
    weights = 1.0 / ranks**alpha
    weights /= weights.sum()
    keys = g.choice(ranks, size=n, p=weights)
    return spark.createDataFrame(pd.DataFrame({"k": keys, "v": g.random(n)}))


def uniform_keys(spark, *, n: int, n_keys: int):
    """(k, v) rows with uniformly drawn keys."""
    g = np.random.default_rng(4)
    return spark.createDataFrame(
        pd.DataFrame({"k": g.integers(1, n_keys + 1, n), "v": g.random(n)})
    )


def test_zipf_keys_windowed_skew(spark):
    """Skewed keys show higher top-key concentration than uniform keys
    under the same windowing."""
    z = zipf_keys(spark, n=20000, n_keys=100, alpha=1.5)
    u = uniform_keys(spark, n=20000, n_keys=100)
    top_z = z.groupBy("k").count().orderBy(F.desc("count")).first()["count"]
    top_u = u.groupBy("k").count().orderBy(F.desc("count")).first()["count"]
    assert top_z > 3 * top_u
