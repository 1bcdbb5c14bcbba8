"""Sequential experiment harness: one (dataset, method, seed) stream run.

``run_stream`` is the unit of work the Spark sweep fans out
(``repro.sparkjobs.sweep``). It builds the dataset, streams it through
the method prequentially, and returns the Table III–VI metrics: κ,
C-F1, discrimination ability, wall-clock runtime, model/drift counts.

Method names:

- ``FiCSUM`` / ``S-MI`` / ``U-MI`` / ``ER`` — fingerprint variants
  (Tables III & IV);
- ``mi:<group>`` — FiCSUM restricted to one meta-information function
  group, e.g. ``mi:mean`` (Table V);
- ``HTCD`` / ``RCD`` / ``DWM`` / ``ARF`` — frameworks (Table VI).
"""
from __future__ import annotations

import time

import numpy as np

from repro.baselines.htcd import HTCD
from repro.baselines.rcd import RCD
from repro.classifiers.ensembles import ARF, DWM
from repro.core.ficsum import FiCSUM, FicsumConfig
from repro.core.meta_features import FUNCTION_GROUPS
from repro.metrics import c_f1, kappa
from repro.streams.datasets import build_dataset

_SOURCE_MODES = {"FiCSUM": "all", "S-MI": "supervised", "U-MI": "unsupervised",
                 "ER": "error_rate"}


def make_method(name: str, n_features: int, n_classes: int, seed: int):
    """Instantiate a method by registry name. ``seed`` reaches only ARF,
    the one method with randomness (its bagging and feature subspaces)."""
    if name in _SOURCE_MODES:
        cfg = FicsumConfig(source_mode=_SOURCE_MODES[name])
        return FiCSUM(n_features, n_classes, cfg)
    if name.startswith("mi:"):
        group = name[3:]
        funcs = tuple(FUNCTION_GROUPS[group])
        cfg = FicsumConfig(source_mode="all", functions=funcs)
        return FiCSUM(n_features, n_classes, cfg)
    if name == "HTCD":
        return HTCD(n_features, n_classes)
    if name == "RCD":
        return RCD(n_features, n_classes)
    if name == "DWM":
        return DWM(n_features, n_classes)
    if name == "ARF":
        return ARF(n_features, n_classes, seed=seed)
    raise ValueError(f"unknown method {name!r}")


def run_stream(dataset: str, method: str, seed: int, *,
               length_scale: float = 1.0) -> dict:
    """Run one prequential stream and return its metrics row."""
    ds = build_dataset(dataset, seed, length_scale=length_scale)
    model = make_method(method, ds.n_features, ds.n_classes, seed)
    preds = np.empty(len(ds), dtype=int)
    mids = np.empty(len(ds), dtype=int)
    t0 = time.perf_counter()
    for i in range(len(ds)):
        out = model.process(ds.X[i], int(ds.y[i]))
        if isinstance(out, tuple):
            preds[i], mids[i] = out
        else:  # FiCSUM StepResult
            preds[i], mids[i] = out.prediction, out.model_id
    runtime = time.perf_counter() - t0
    # discrimination is a property of the representation (Sec II-A); it is
    # measured in the oracle setting so Table III/V isolate it from
    # drift-detection quality (paper reports the isolated variant too)
    if isinstance(model, FiCSUM):
        from repro.core.discrimination import oracle_discrimination_ds

        disc = oracle_discrimination_ds(
            ds,
            source_mode=model.schema.source_mode,
            functions=model.cfg.functions,
            window_size=model.cfg.window_size,
        )
    else:
        disc = 0.0
    return {
        "dataset": dataset,
        "method": method,
        "seed": seed,
        "kappa": kappa(ds.y, preds),
        "accuracy": float(np.mean(ds.y == preds)),
        "c_f1": c_f1(ds.concept_ids, mids),
        "discrimination": disc,
        "runtime_s": runtime,
        "n_models": int(len(np.unique(mids))),
        "n_drifts": int(getattr(model, "n_drifts", 0)),
    }
