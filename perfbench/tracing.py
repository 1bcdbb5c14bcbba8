"""In-memory span tracer for the benchmark's traced runs.

:class:`Tracer` wraps each public function of a layer at every place it
is bound: the defining module, every loaded ``repro`` module that
imported it by name, module-level dicts that hold it (the
``SEQUENCE_FUNCTIONS`` registry), and methods on their classes. Spans
(layer, parent span, start, end) are kept in flat arrays and written
out when the run ends. :meth:`Tracer.installed` restores every wrapped
name on exit, so untraced passes call the original functions.

A layer's self time is its span's duration minus the time covered by
its child spans.
"""
from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

# (layer, module, attribute) for functions, (layer, module, class,
# method) for methods on classes
FUNCTION_LAYERS = [
    ("meta_features.matrix", "repro.core.meta_features", "compute_feature_matrix"),
    ("meta_features.mutual_info", "repro.core.meta_features", "f_mutual_info"),
    ("emd.imf_entropies", "repro.core.emd", "imf_entropies"),
    ("fingerprint.compute", "repro.core.fingerprint", "compute_fingerprint"),
    ("similarity.similarity", "repro.core.similarity", "similarity"),
    ("similarity.weights", "repro.core.similarity", "dynamic_weights"),
    ("discrimination.oracle", "repro.core.discrimination", "oracle_discrimination_ds"),
    ("datasets.build", "repro.streams.datasets", "build_dataset"),
]
METHOD_LAYERS = [
    ("hoeffding_tree.predict", "repro.classifiers.hoeffding_tree", "HoeffdingTree", "predict"),
    ("hoeffding_tree.partial_fit", "repro.classifiers.hoeffding_tree", "HoeffdingTree", "partial_fit"),
    ("hoeffding_tree.contributions", "repro.classifiers.hoeffding_tree", "HoeffdingTree",
     "feature_contributions"),
    ("adwin.add", "repro.detectors.adwin", "ADWIN", "add"),
    ("ficsum.process", "repro.core.ficsum", "FiCSUM", "process"),
    ("monitor.add", "repro.core.monitor", "DriftMonitor", "add"),
    # the benchmark's own call into the operator, as Spark makes it
    ("streaming.batch", "workloads", "DriftOperator", "call"),
]
#: modules that bind a layer function by name, besides the ``repro``
#: package: imported before a scan so that none is missed
IMPORT_SITES = ["repro.core.ficsum", "repro.core.monitor", "repro.core.discrimination",
                "repro.runner", "workloads"]
LAYERS = [f[0] for f in FUNCTION_LAYERS] + [m[0] for m in METHOD_LAYERS]


class Tracer:
    """Records nested spans per layer while installed."""

    def __init__(self):
        self.index = {name: i for i, name in enumerate(LAYERS)}
        self.layer = array("i")
        self.parent = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.self_s = [0.0] * len(LAYERS)
        self.durations: list[list[float]] = [[] for _ in LAYERS]
        self._stack: list[list] = []  # [span id, start, child seconds]
        self._restore: list = []

    # ---------------------------------------------------------------- spans
    def _open(self, layer: int) -> None:
        sid = len(self.layer)
        self.layer.append(layer)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.t0.append(0.0)
        self.t1.append(0.0)
        t = time.perf_counter()
        self.t0[sid] = t
        self._stack.append([sid, t, 0.0])

    def _close(self) -> None:
        t = time.perf_counter()
        sid, start, child = self._stack.pop()
        self.t1[sid] = t
        dur = t - start
        layer = self.layer[sid]
        self.self_s[layer] += dur - child
        self.durations[layer].append(dur)
        if self._stack:
            self._stack[-1][2] += dur

    def _wrap(self, fn, name: str):
        layer = self.index[name]
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer._open(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close()

        traced.__wrapped_layer__ = name
        return traced

    # ------------------------------------------------------------- install
    def install(self) -> None:
        """Wrap every binding of every layer function in loaded modules."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        for modname in IMPORT_SITES:
            importlib.import_module(modname)
        mods = [m for n, m in list(sys.modules.items()) if m is not None and (
            n == "repro" or n.startswith("repro.") or n in IMPORT_SITES)]
        for name, modname, attr in FUNCTION_LAYERS:
            orig = getattr(sys.modules[modname], attr)
            wrapped = self._wrap(orig, name)
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._restore.append((setattr, mod, key, orig))
                        setattr(mod, key, wrapped)
                    elif isinstance(val, dict):
                        for k, v in list(val.items()):
                            if v is orig:
                                self._restore.append((val.__setitem__, k, orig))
                                val[k] = wrapped
        for name, modname, clsname, meth in METHOD_LAYERS:
            cls = getattr(sys.modules[modname], clsname)
            orig = cls.__dict__[meth]
            self._restore.append((setattr, cls, meth, orig))
            setattr(cls, meth, self._wrap(orig, name))

    def uninstall(self) -> None:
        """Put back every name :meth:`install` replaced."""
        while self._restore:
            setter, *args = self._restore.pop()
            setter(*args)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -------------------------------------------------------------- output
    def summary(self, name: str) -> tuple[int, float, float]:
        """(calls, self seconds, median call seconds) of one layer."""
        i = self.index[name]
        d = self.durations[i]
        return len(d), self.self_s[i], statistics.median(d) if d else 0.0

    def percentile(self, name: str, q: float) -> float:
        d = self.durations[self.index[name]]
        return float(np.percentile(d, q)) if d else 0.0

    def write(self, path) -> None:
        np.savez_compressed(
            path,
            layers=np.array(LAYERS),
            layer=np.frombuffer(self.layer, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            t0=np.frombuffer(self.t0, dtype=np.float64),
            t1=np.frombuffer(self.t1, dtype=np.float64),
        )
