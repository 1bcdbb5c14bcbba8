"""Row-wise histogram binning that reproduces numpy's own, bit for bit.

The batched meta-information kernels histogram every row of a ``(k, n)``
array in one call. Their outputs must equal the scalar reference
functions exactly, so each helper here repeats numpy 1.26's arithmetic
for one row, broadcast over all rows:

- :func:`linspace_rows` is ``np.linspace(start[i], stop[i], num)``;
- :func:`histogramdd_bins` is the bin index ``np.histogramdd`` (and so
  ``np.histogram2d``) gives each value;
- :func:`histogram_bins` is the bin index of ``np.histogram``'s
  equal-width fast path.
"""
from __future__ import annotations

import numpy as np


def linspace_rows(start: np.ndarray, stop: np.ndarray, num: int) -> np.ndarray:
    """``(len(start), num)`` array whose row i is
    ``np.linspace(start[i], stop[i], num)``."""
    div = num - 1
    delta = stop - start
    step = delta / div
    y = np.arange(num, dtype=float)
    # np.linspace scales by delta, not by step, when the step underflows
    out = np.where((step == 0)[:, None], (y / div) * delta[:, None], y * step[:, None])
    out += start[:, None]
    out[:, -1] = stop
    return out


def histogramdd_bins(V: np.ndarray, bins: int) -> np.ndarray:
    """Bin index (0..bins-1) of every value in every row of ``V`` under
    ``np.histogramdd`` with ``bins`` equal bins over the row's range.

    A constant row is widened to ±0.5 as numpy does. numpy bins with
    ``searchsorted(edges, v, side='right')`` and moves values on the last
    edge one bin left; on sorted edges that is the number of inner edges
    at or below the value.
    """
    lo, hi = V.min(axis=1), V.max(axis=1)
    flat = lo == hi
    lo = np.where(flat, lo - 0.5, lo)
    hi = np.where(flat, hi + 0.5, hi)
    inner = linspace_rows(lo, hi, bins + 1)[:, 1:-1]
    return (V[:, :, None] >= inner[:, None, :]).sum(axis=2)


def histogram_bins(V: np.ndarray, bins: int) -> np.ndarray:
    """Bin index (0..bins-1) of every value in every row of ``V`` under
    ``np.histogram(row, bins=bins)``; rows must not be constant.

    Follows numpy's equal-width path: scale to a fractional index,
    truncate, then correct by one bin against the actual edges.
    """
    lo, hi = V.min(axis=1), V.max(axis=1)
    edges = linspace_rows(lo, hi, bins + 1)
    idx = (((V - lo[:, None]) / (hi - lo)[:, None]) * bins).astype(np.intp)
    idx[idx == bins] -= 1
    rows = np.arange(len(V))[:, None]
    idx[V < edges[rows, idx]] -= 1
    idx[(V >= edges[rows, idx + 1]) & (idx != bins - 1)] += 1
    return idx
