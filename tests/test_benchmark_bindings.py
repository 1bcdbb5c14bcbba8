"""The benchmark's tracer (``perfbench/tracing.py``) wraps package
functions and methods by module and name, and its tests read the
``SEQUENCE_FUNCTIONS`` registry as a dict. These tests load the tracer
by file path, so a rename in the package fails the unit suite and not
only ``pytest perfbench`` and traced benchmark runs. A traced method that
a FiCSUM run never calls fails here too: its layer would read 0 calls."""
import importlib
import importlib.util
from pathlib import Path

import pytest

from repro.core import meta_features as mf

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
_SPEC = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)


@pytest.mark.parametrize("layer, modname, attr", [
    pytest.param(*f, id=f[0]) for f in tracing.FUNCTION_LAYERS if f[1].startswith("repro.")])
def test_traced_function_resolves(layer, modname, attr):
    assert callable(getattr(importlib.import_module(modname), attr))


@pytest.mark.parametrize("layer, modname, cls, meth", [
    pytest.param(*m, id=m[0]) for m in tracing.METHOD_LAYERS if m[1].startswith("repro.")])
def test_traced_method_resolves(layer, modname, cls, meth):
    # the tracer looks the method up in the class's own namespace
    assert callable(vars(getattr(importlib.import_module(modname), cls))[meth])


def test_sequence_function_registry_is_a_dict():
    assert isinstance(mf.SEQUENCE_FUNCTIONS, dict)


def test_traced_methods_run_in_ficsum(monkeypatch):
    """A short FiCSUM run, on the stream ``perfbench/test_perfbench.py``
    uses, calls every traced package method. ``monitor.add`` is left out:
    FiCSUM steps its monitor, and the streaming operator calls
    ``add_many``."""
    from repro.runner import make_method
    from repro.streams.datasets import build_dataset

    calls = {}
    for layer, modname, cls, meth in tracing.METHOD_LAYERS:
        if not modname.startswith("repro.") or layer == "monitor.add":
            continue
        owner = getattr(importlib.import_module(modname), cls)

        def counted(*args, _orig=vars(owner)[meth], _layer=layer, **kwargs):
            calls[_layer] += 1
            return _orig(*args, **kwargs)

        calls[layer] = 0
        monkeypatch.setattr(owner, meth, counted)
    ds = build_dataset("STAGGER", 0, length_scale=0.2)
    model = make_method("FiCSUM", ds.n_features, ds.n_classes, 0)
    for i in range(120):
        model.process(ds.X[i], int(ds.y[i]))
    assert "hoeffding_tree.contributions" in calls
    assert [layer for layer, n in calls.items() if n == 0] == []
