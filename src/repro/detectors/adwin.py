"""ADWIN (ADaptive WINdowing) drift detector — Bifet & Gavaldà 2007.

The window of real values is kept as an exponential histogram: buckets
whose counts are powers of two, at most ``M`` per count (level). Every
``CHECK_PERIOD``-th add tests each cut between buckets with the ADWIN
bound and drops the oldest bucket while a cut is found. FiCSUM feeds it
the similarity series; HTCD and ARF feed it 0/1 errors.
"""
from __future__ import annotations

from collections import deque
from itertools import islice

import numpy as np


class _Bucket:
    __slots__ = ("total", "variance", "count")

    def __init__(self, total: float, variance: float, count: int):
        self.total = total
        self.variance = variance
        self.count = count


class ADWIN:
    """Adaptive windowing over real values; δ is the only setting. ``add(x)``
    returns True when it found a drift and shrank the window past it."""

    M = 5             # buckets per level before its two oldest merge
    MIN_WINDOW = 10   # no cut is tested in a shorter window
    CHECK_PERIOD = 4  # cuts are tested on every 4th add

    def __init__(self, delta: float = 0.002):
        self.delta = delta
        self.buckets: deque[_Bucket] = deque()  # oldest first
        self.reset()

    @property
    def mean(self) -> float:
        return self.total / self.width if self.width else 0.0

    def reset(self) -> None:
        self.buckets.clear()
        self.total = 0.0
        self.width = 0
        self.variance_sum = 0.0  # sum over buckets of internal variance*count
        self._tick = 0

    def add(self, x: float) -> bool:
        if self.width:
            self.variance_sum += (x - self.mean) ** 2 * self.width / (self.width + 1)
        self.buckets.append(_Bucket(x, 0.0, 1))
        self.total += x
        self.width += 1
        self._compress()
        self._tick += 1
        if self.width < self.MIN_WINDOW or self._tick % self.CHECK_PERIOD:
            return False
        drift = False
        while self.width >= self.MIN_WINDOW and self._cut_found():
            drift = True
            b = self.buckets.popleft()
            self.total -= b.total
            self.width -= b.count
            self.variance_sum = max(0.0, self.variance_sum - b.variance) if self.buckets else 0.0
        return drift

    def _compress(self) -> None:
        # Counts never increase from oldest to newest (a merge keeps its level's
        # oldest place), so the smallest level over M is the newest run over M.
        i, run, count = len(self.buckets), 0, 0
        for b in reversed(self.buckets):
            if b.count != count:
                if run > self.M:
                    break
                run, count = 0, b.count
            run += 1
            i -= 1
        if run > self.M:  # merge the run's two oldest, buckets[i] and [i + 1]
            b1, b2 = self.buckets[i], self.buckets[i + 1]
            n = b1.count + b2.count
            mu1, mu2 = b1.total / b1.count, b2.total / b2.count
            var = b1.variance + b2.variance + b1.count * b2.count / n * (mu1 - mu2) ** 2
            self.buckets[i] = _Bucket(b1.total + b2.total, var, n)
            del self.buckets[i + 1]

    def _cut_found(self) -> bool:
        # some cut splits the window into means further apart than ε_cut
        k = len(self.buckets) - 1
        n0 = np.cumsum(np.fromiter((b.count for b in islice(self.buckets, k)), float, k))
        sum0 = np.cumsum(np.fromiter((b.total for b in islice(self.buckets, k)), float, k))
        n1 = self.width - n0
        mu0, mu1 = sum0 / n0, (self.total - sum0) / n1
        m = 1.0 / (1.0 / n0 + 1.0 / n1)
        dd = np.log(2.0 * np.log(self.width) / self.delta)
        eps = np.sqrt(2.0 * m * (self.variance_sum / self.width) * dd) / m + 2.0 / (3.0 * m) * dd
        return bool((np.abs(mu0 - mu1) > eps).any())
