"""Self-tests of the benchmark's probe, tracer and input guard.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""
from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import probe  # noqa: E402
from tracing import FUNCTION_LAYERS, METHOD_LAYERS, Tracer  # noqa: E402


def test_probe_imports_no_repro_module():
    tree = ast.parse((HERE / "probe.py").read_text())
    names = [a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names]
    names += [n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)]
    assert not [n for n in names if n and n.split(".")[0] == "repro"]
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import probe; probe.time_probe(); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'repro'))")
    out = subprocess.run([sys.executable, "-c", code, str(HERE)], capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_adjustment_rescales_to_reference_probe(monkeypatch):
    from workloads import Clock

    raw_rate, probe_ms, ref = 250.0, 1.6, 1.2
    assert probe.adjust_time(1.0 / raw_rate, probe_ms, ref) == pytest.approx(
        ref / probe_ms / raw_rate)
    # at a steady probe time, the benchmark's adjusted rate is
    # raw x probe_ms / probe_ref_ms
    monkeypatch.setattr(probe, "time_probe", lambda: probe_ms)
    clock = Clock(probe.HostSpeed(ref))
    clock.new_task()
    for _ in range(20):
        clock.time(sum, range(2000))
    t = clock.finish()
    assert 20 / t["adjusted_s"] == pytest.approx(20 / t["raw_s"] * probe_ms / ref)


def test_host_speed_factor_is_running_median(monkeypatch):
    assert (probe.WINDOW, probe.WARMUP) == (5, 11)
    samples = iter([1.0, 1.0, 1.0, 1.0, 50.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0])
    monkeypatch.setattr(probe, "time_probe", lambda: next(samples))
    host = probe.HostSpeed(2.0)
    assert host.probe_ms == 2.0
    times = list(host.times)
    # one pre-empted probe (50 ms) does not move the factor of the
    # operation that starts next to it
    factors = host.factors([times[4] + 1e-9, times[-1] + 1e-9])
    assert factors[0] == probe.adjust_time(1.0, 1.0, 2.0)
    assert factors[1] == probe.adjust_time(1.0, 2.0, 2.0)


def _bindings():
    """Every (owner, name) that holds a layer function or method now."""
    import importlib

    out = {}
    for _, modname, attr in FUNCTION_LAYERS:
        out[(modname, attr)] = getattr(importlib.import_module(modname), attr)
    for _, modname, cls, meth in METHOD_LAYERS:
        out[(cls, meth)] = vars(getattr(importlib.import_module(modname), cls))[meth]
    return out


def test_tracer_restores_every_name_and_untraced_run_sees_originals():
    import numpy as np

    import repro.core.ficsum as ficsum
    import repro.core.meta_features as mf
    from repro.runner import make_method
    from repro.streams.datasets import build_dataset

    before = _bindings()
    registry = dict(mf.SEQUENCE_FUNCTIONS)
    ds = build_dataset("STAGGER", 0, length_scale=0.2)
    tracer = Tracer()
    with tracer.installed():
        assert ficsum.compute_fingerprint is not before[("repro.core.fingerprint",
                                                         "compute_fingerprint")]
        model = make_method("FiCSUM", ds.n_features, ds.n_classes, 0)
        for i in range(120):
            model.process(ds.X[i], int(ds.y[i]))
    calls, _, _ = tracer.summary("ficsum.process")
    assert calls == 120
    assert tracer.summary("fingerprint.compute")[0] > 0
    assert _bindings() == before
    assert mf.SEQUENCE_FUNCTIONS == registry
    assert ficsum.compute_fingerprint is before[("repro.core.fingerprint",
                                                 "compute_fingerprint")]
    # an untraced run after a traced one records nothing
    model = make_method("FiCSUM", ds.n_features, ds.n_classes, 0)
    for i in range(120):
        model.process(ds.X[i], int(ds.y[i]))
    assert tracer.summary("ficsum.process")[0] == 120
    assert np.all(np.frombuffer(tracer.t1, dtype=float) >= np.frombuffer(tracer.t0, dtype=float))


def test_length_scale_guard_refuses_degenerate_discrimination():
    from repro.streams.datasets import build_dataset
    from workloads import LENGTH_SCALE, check_probe_windows

    with pytest.raises(ValueError, match="probe window"):
        check_probe_windows(build_dataset("Arabic", 0, length_scale=0.3), 50)
    for name in ("RBF", "Arabic"):
        check_probe_windows(build_dataset(name, 0, length_scale=LENGTH_SCALE), 50)


def test_drift_check_excuses_only_the_strided_replay():
    from types import SimpleNamespace

    import pandas as pd

    from workloads import DriftOperator

    op = DriftOperator.__new__(DriftOperator)  # _check needs only the counters
    op.rows_reprocessed = op.rows_dropped = op.batches_diverged = 0
    strided, plain = SimpleNamespace(strided=True), SimpleNamespace(strided=False)
    pdf = pd.DataFrame({"seq": [3, 7]})
    ref = {3: (0.5, False), 7: (0.25, True)}
    rows = [(3, 0.5, False), (7, 0.25, True)]
    wrong = [(3, 0.5, False), (7, 0.75, True)]

    assert op._check(strided, pdf, rows, False, ref, {}, False) == (True, False)
    # a mismatch before any reprocessed row fails, on every key
    assert op._check(strided, pdf, wrong, False, ref, {}, False) == (False, False)
    assert op._check(plain, pdf, wrong, False, ref, {}, False) == (False, False)
    # a first delivery that drops a row fails
    assert op._check(strided, pdf, rows[:1], False, ref, {}, True) == (False, True)
    assert op.rows_dropped == 1
    # re-emitted rows: divergence on the strided key, a failure elsewhere
    emitted = dict.fromkeys([3, 7], (0.5, False))
    assert op._check(strided, pdf, rows, True, ref, dict(emitted), False) == (True, True)
    assert op._check(plain, pdf, rows, True, ref, dict(emitted), False) == (False, False)
    assert op.rows_reprocessed == 4
    # after a reprocessed row, the strided key's mismatches are divergence
    before = op.batches_diverged
    assert op._check(strided, pdf, wrong, False, ref, {}, True) == (True, True)
    assert op.batches_diverged == before + 1
