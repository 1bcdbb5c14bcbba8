"""Distributed experiment sweep (DESIGN.md Spark layer 1).

Every paper table is 100s of independent prequential stream runs
(dataset × method × seed). Configs are encoded as a DataFrame and
fanned out with ``groupBy("run_id").applyInPandas`` — one Spark task per
run, executed by ``repro.runner.run_stream`` — and the resulting metric
rows come back as a DataFrame for Spark SQL aggregation.
"""
from __future__ import annotations

import traceback

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

RESULT_SCHEMA = (
    "run_id long, dataset string, method string, seed long, "
    "kappa double, accuracy double, c_f1 double, discrimination double, "
    "runtime_s double, n_models long, n_drifts long, error string"
)
#: a failed run's ``error``: at most this many characters, holding the
#: exception line and its innermost traceback frames
ERROR_CHARS = 1000
ERROR_FRAMES = 4


def _error_text(exc: BaseException) -> str:
    """``Type: message``, then the innermost ``ERROR_FRAMES`` traceback
    frames, cut from the outside in to fit ``ERROR_CHARS``."""
    head = f"{type(exc).__name__}: {exc}"[:ERROR_CHARS]
    frames = "".join(traceback.format_tb(exc.__traceback__)[-ERROR_FRAMES:])
    room = ERROR_CHARS - len(head) - 1
    if room <= 0 or not frames:
        return head
    return head + "\n" + frames[-room:]


def _run_one(pdf: pd.DataFrame) -> pd.DataFrame:
    """Executor-side: run the single config in this group."""
    from repro.runner import run_stream  # import on the executor

    row = pdf.iloc[0]
    out = {
        "run_id": int(row["run_id"]),
        "dataset": row["dataset"],
        "method": row["method"],
        "seed": int(row["seed"]),
        "kappa": 0.0, "accuracy": 0.0, "c_f1": 0.0, "discrimination": 0.0,
        "runtime_s": 0.0, "n_models": 0, "n_drifts": 0, "error": None,
    }
    try:
        res = run_stream(
            row["dataset"], row["method"], int(row["seed"]),
            length_scale=float(row["length_scale"]),
        )
        for k in ("kappa", "accuracy", "c_f1", "discrimination", "runtime_s",
                  "n_models", "n_drifts"):
            out[k] = res[k]
    except Exception as e:  # surface the failure in the result table
        out["error"] = _error_text(e)
    return pd.DataFrame([out])


def run_sweep(
    spark: SparkSession,
    configs: list[dict],
    *,
    length_scale: float = 1.0,
) -> DataFrame:
    """Fan out ``configs`` (dicts with dataset/method/seed), each stream
    built at ``length_scale``, across the cluster; returns the metrics
    DataFrame.
    """
    rows = []
    for i, c in enumerate(configs):
        rows.append(
            {
                "run_id": i,
                "dataset": c["dataset"],
                "method": c["method"],
                "seed": int(c.get("seed", 0)),
                "length_scale": float(length_scale),
            }
        )
    cfg_df = spark.createDataFrame(pd.DataFrame(rows)).repartition(
        max(len(rows), 1), "run_id"
    )
    return cfg_df.groupBy("run_id").applyInPandas(_run_one, RESULT_SCHEMA)


def aggregate(results: DataFrame) -> DataFrame:
    """Mean ± std per (dataset, method) via Spark SQL, paper-table style."""
    return (
        results.where(F.col("error").isNull())
        .groupBy("dataset", "method")
        .agg(
            F.count("*").alias("n_runs"),
            F.round(F.avg("kappa"), 4).alias("kappa_mean"),
            F.round(F.coalesce(F.stddev("kappa"), F.lit(0.0)), 4).alias("kappa_std"),
            F.round(F.avg("c_f1"), 4).alias("c_f1_mean"),
            F.round(F.coalesce(F.stddev("c_f1"), F.lit(0.0)), 4).alias("c_f1_std"),
            F.round(F.avg("discrimination"), 2).alias("disc_mean"),
            F.round(F.coalesce(F.stddev("discrimination"), F.lit(0.0)), 2).alias("disc_std"),
            F.round(F.avg("runtime_s"), 2).alias("runtime_mean_s"),
            F.round(F.avg("n_models"), 1).alias("n_models_mean"),
            F.round(F.avg("n_drifts"), 1).alias("n_drifts_mean"),
        )
        .orderBy("dataset", "method")
    )
