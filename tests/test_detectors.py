"""Unit tests for the ADWIN and EDDM drift detectors."""
import hashlib

import numpy as np
import pytest

from repro.detectors.adwin import ADWIN
from repro.detectors.eddm import EDDM

ADD_TRACE_SHA = {
    "htcd": "9178f9657e21d57ba9da967623c94536e420a1bf7a536de9bd1d20aa4e95a5b3",
    "arf": "b35ff3500e49427bc2a2042b19bd12291132c82bf4fa85a7f579b0cd34cc404f",
    "monitor": "ae5aa93d3e35df6cebbc96ee02a35dca3ddf0500aa08bfc4e3e8c2346dca8a49",
}


def _add_trace_stream(case: str):
    """(δ, values, index of a ``reset()`` or None) for one ADD_TRACE_SHA case."""
    g = np.random.default_rng(7)
    if case in ("htcd", "arf"):
        rates = [0.1, 0.45, 0.2, 0.6, 0.15] if case == "htcd" else [0.3, 0.05, 0.4, 0.2, 0.7]
        xs = np.concatenate([(g.random(1600) < p) for p in rates]).astype(float)
        return (0.002 if case == "htcd" else 0.01), xs, None
    levels = [0.95, 0.8, 0.9, 0.7, 0.85]
    xs = np.concatenate([m + 0.03 * g.standard_normal(1500) for m in levels])
    return 0.02, np.clip(xs, 0.0, 1.0), 3600


class TestADWIN:
    def test_detects_clear_mean_shift(self):
        g = np.random.default_rng(0)
        a = ADWIN(delta=0.05)
        fired = []
        for i in range(400):
            x = (0.9 if i < 200 else 0.4) + 0.02 * g.standard_normal()
            if a.add(x):
                fired.append(i)
        assert fired and 200 <= fired[0] <= 260

    def test_no_false_positive_on_stationary(self):
        g = np.random.default_rng(1)
        a = ADWIN(delta=0.002)
        fired = [i for i in range(1000) if a.add(0.5 + 0.05 * g.standard_normal())]
        assert fired == []

    def test_window_shrinks_after_drift(self):
        g = np.random.default_rng(2)
        a = ADWIN(delta=0.05)
        for i in range(400):
            a.add((0.9 if i < 200 else 0.3) + 0.01 * g.standard_normal())
        assert a.width < 300
        assert a.mean == pytest.approx(0.3, abs=0.1)

    def test_mean_tracks_input(self):
        a = ADWIN()
        for _ in range(50):
            a.add(0.7)
        assert a.mean == pytest.approx(0.7)
        assert a.width == 50

    def test_reset_clears_state(self):
        a = ADWIN()
        for _ in range(50):
            a.add(0.7)
        a.reset()
        assert a.width == 0 and a.total == 0.0

    def test_bucket_compression_bounds_memory(self):
        a = ADWIN()
        for i in range(5000):
            a.add(float(i % 2))
        # exponential histogram: O(M log n) buckets, far fewer than n
        assert len(a.buckets) < 200

    @pytest.mark.parametrize("case", sorted(ADD_TRACE_SHA))
    def test_add_trace_digest(self, case):
        """The flag and the whole state (width, total, variance sum and every
        bucket's count, total and variance) after every ``add``, pinned by
        sha256 (recorded with numpy 1.26 on x86-64): the HTCD and ARF cases feed
        piecewise 0/1 error rates, the monitor case a similarity-like series
        with a ``reset()`` part-way."""
        delta, xs, reset_at = _add_trace_stream(case)
        a = ADWIN(delta=delta)
        flags, widths, totals, var_sums, n_buckets, buckets = [], [], [], [], [], []
        for i, x in enumerate(xs):
            if i == reset_at:
                a.reset()
            flags.append(a.add(float(x)))
            widths.append(a.width)
            totals.append(a.total)
            var_sums.append(a.variance_sum)
            n_buckets.append(len(a.buckets))
            buckets.extend((b.count, b.total, b.variance) for b in a.buckets)
        h = hashlib.sha256()
        for arr, dtype in ((flags, np.uint8), (widths, np.int64), (totals, np.float64),
                           (var_sums, np.float64), (n_buckets, np.int64),
                           (buckets, np.float64)):
            h.update(np.asarray(arr, dtype=dtype).tobytes())
        drifts = np.flatnonzero(flags)
        assert max(n_buckets) >= 40
        assert len(drifts) >= 3, drifts.tolist()
        assert h.hexdigest() == ADD_TRACE_SHA[case], (drifts.tolist(), widths[-1], totals[-1])

    @pytest.mark.parametrize("delta", [0.002, 0.05, 0.3])
    def test_sensitivity_increases_with_delta(self, delta):
        g = np.random.default_rng(3)
        a = ADWIN(delta=delta)
        fired = []
        for i in range(600):
            x = (0.8 if i < 300 else 0.55) + 0.05 * g.standard_normal()
            if a.add(x) and not fired:
                fired.append(i)
        if delta >= 0.05:
            assert fired  # moderate shift caught at looser delta


class TestEDDM:
    def _run(self, errors):
        d = EDDM()
        return [d.add(int(e)) for e in errors]

    def test_detects_error_burst(self):
        g = np.random.default_rng(0)
        pre = (g.random(2000) < 0.05).astype(int)   # good classifier
        post = (g.random(600) < 0.6).astype(int)    # broken classifier
        out = self._run(np.concatenate([pre, post]))
        assert "drift" in out[2000:]

    def test_rare_false_drifts_on_stationary_errors(self):
        """EDDM's cumulative mean+2std metric is known to be somewhat
        trigger-happy on stationary error streams; bound, don't forbid."""
        g = np.random.default_rng(1)
        out = self._run((g.random(3000) < 0.2).astype(int))
        assert out.count("drift") <= 4

    def test_needs_minimum_errors(self):
        out = self._run([1, 0, 0, 1, 0, 1] * 4)
        assert all(o is None for o in out)

    def test_reset_after_drift(self):
        g = np.random.default_rng(2)
        d = EDDM()
        seq = np.concatenate([(g.random(2000) < 0.05), (g.random(600) < 0.6)]).astype(int)
        for e in seq:
            d.add(int(e))
        assert d._n_errors < EDDM.MIN_ERRORS or d._max_metric >= 0
