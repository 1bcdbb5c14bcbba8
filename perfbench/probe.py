"""Host-speed probe: a fixed kernel timed between benchmark operations.

The kernel mixes small NumPy calls on 50-element arrays with plain
interpreter work (loops, attribute and dict access, small-list
building), which is the per-call-overhead profile of FiCSUM's window
code. It imports nothing from ``repro``, so a change to the program
under test cannot change the probe.

:class:`HostSpeed` samples the kernel between operations, never inside
one, about every 20 ms. Each operation is rescaled by the running median
of the few samples around its start, so one pre-empted probe does not
skew it while changes in host speed over a fraction of a second are
followed. A timing measured while the probe reads ``probe_ms`` is
rescaled to a host on which it reads ``probe_ref_ms``: durations by
``probe_ref_ms / probe_ms``, rates by ``probe_ms / probe_ref_ms``.
"""
from __future__ import annotations

import statistics
import time
from array import array

import numpy as np

_BASE = np.linspace(-1.0, 1.0, 50)
#: probe samples whose median rescales one operation
WINDOW = 5
#: seconds between probes taken between operations
EVERY_S = 0.02
#: probes taken before the first operation
WARMUP = 11


def probe_kernel(rounds: int = 8) -> float:
    """One fixed unit of mixed NumPy and interpreter work; returns a
    checksum so the work cannot be skipped."""
    acc = 0.0
    table: dict[int, float] = {}
    for r in range(rounds):
        x = _BASE * (1.0 + 0.01 * r) + 0.5 * r
        m = x.mean()
        c = x - m
        s = float(np.sqrt((c * c).mean()))
        acc += s + float(np.sort(c)[r % 50]) + float(np.diff(x).sum())
        acc += float(np.histogram(c, bins=6)[0][r % 6])
        items = [(x[j], j, r) for j in range(0, 50, 2)]
        for v, j, k in items:
            table[j] = table.get(j, 0.0) + float(v) * (k + 1)
        acc += sum(1 for v in table.values() if v > 0)
    return acc


def time_probe() -> float:
    """Wall-clock milliseconds of one probe kernel call."""
    t0 = time.perf_counter()
    probe_kernel()
    return (time.perf_counter() - t0) * 1e3


def adjust_time(raw: float, probe_ms: float, probe_ref_ms: float) -> float:
    """A duration measured at ``probe_ms``, rescaled to ``probe_ref_ms``."""
    return raw * probe_ref_ms / probe_ms


class HostSpeed:
    """Probe samples taken between operations. Each operation is rescaled
    by the median of the ``WINDOW`` samples around its start, so one
    pre-empted probe does not skew it."""

    def __init__(self, probe_ref_ms: float):
        self.probe_ref_ms = probe_ref_ms
        self.times = array("d")    # perf_counter() at each probe
        self.samples = array("d")  # probe milliseconds
        self._last = 0.0
        for _ in range(WARMUP):
            self.sample()

    def sample(self) -> None:
        t = time.perf_counter()
        self.samples.append(time_probe())
        self.times.append(t)
        self._last = time.perf_counter()

    def maybe_sample(self) -> None:
        """Probe if ``EVERY_S`` has passed since the last probe."""
        if time.perf_counter() - self._last >= EVERY_S:
            self.sample()

    @property
    def probe_ms(self) -> float:
        """Median of the latest ``WINDOW`` samples."""
        return statistics.median(self.samples[-WINDOW:])

    def factors(self, starts) -> np.ndarray:
        """Per operation starting at ``starts[i]``: the multiplier that
        turns its raw duration into an adjusted one."""
        n, w = len(self.samples), min(WINDOW, len(self.samples))
        k = np.searchsorted(np.frombuffer(self.times), np.asarray(starts, dtype=float))
        lo = np.clip(k - w // 2, 0, n - w)
        ms = np.median(np.frombuffer(self.samples)[lo[:, None] + np.arange(w)], axis=1)
        return adjust_time(1.0, ms, self.probe_ref_ms)
