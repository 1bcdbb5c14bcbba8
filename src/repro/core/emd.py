"""Lightweight Empirical Mode Decomposition (EMD).

FiCSUM's "Entropy of intrinsic mode functions 1 & 2" meta-information
feature (Ding & Luo 2019) requires the first two IMFs of a short window.
Full EMD uses cubic-spline envelopes; scipy is not a dependency here, so
sifting uses linear-interpolated extrema envelopes instead. On the short
(w<=100) windows FiCSUM operates on, this isolates the same fast
oscillation modes the entropy feature consumes (see DESIGN.md
substitution #4).

:func:`imf_entropies_matrix` decomposes every column of a fixed-length
window at once — extrema masks over the whole array, one ``np.interp``
for all envelopes, row-wise stopping sums and histograms — and equals
the scalar :func:`imfs` / :func:`imf_entropies` bit for bit
(``tests/test_kernels_exact.py``). The scalar path serves the one
variable-length source, the error-distance sequence: on one short
sequence it is faster than the batched path.
"""
from __future__ import annotations

import numpy as np

from repro.core.binning import histogram_bins

_MAX_SIFT = 3


def _extrema(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Indices of local maxima and minima (interior points)."""
    d = np.sign(np.diff(x))
    prod = d[:-1] * d[1:]
    turn = np.flatnonzero(prod < 0) + 1
    maxima = turn[d[turn - 1] > 0]
    minima = turn[d[turn - 1] < 0]
    return maxima, minima


def _envelope(x: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Linear envelope through ``x[idx]``, padded with the end values."""
    n = len(x)
    pts_i = np.concatenate(([0], idx, [n - 1]))
    pts_v = np.concatenate(([x[idx[0]]], x[idx], [x[idx[-1]]]))
    return np.interp(np.arange(n), pts_i, pts_v)


def _sift(x: np.ndarray) -> np.ndarray | None:
    """One IMF from ``x`` via envelope-mean sifting; None if monotone."""
    h = x.astype(float)
    for _ in range(_MAX_SIFT):
        maxima, minima = _extrema(h)
        if len(maxima) < 2 or len(minima) < 2:
            return None if np.allclose(h, x) else h
        mean = 0.5 * (_envelope(h, maxima) + _envelope(h, minima))
        nh = h - mean
        if np.sum((h - nh) ** 2) <= 1e-10 * (np.sum(h**2) + 1e-12):
            break
        h = nh
    return h


def imfs(x: np.ndarray, n_imfs: int = 2) -> list[np.ndarray]:
    """First ``n_imfs`` intrinsic mode functions of ``x``.

    Returns fewer than ``n_imfs`` modes when the residue becomes
    monotone (short or trendless windows).
    """
    out: list[np.ndarray] = []
    residue = np.asarray(x, dtype=float)
    for _ in range(n_imfs):
        imf = _sift(residue)
        if imf is None:
            break
        out.append(imf)
        residue = residue - imf
    return out


def _mode_entropy(m: np.ndarray, bins: int) -> float:
    if np.ptp(m) <= 1e-12:
        return 0.0
    hist, _ = np.histogram(m, bins=bins)
    p = hist / hist.sum()
    p = p[p > 0]
    return float(-(p * np.log(p)).sum())


def imf_entropies(x: np.ndarray, n_imfs: int = 2, bins: int = 10) -> list[float]:
    """Shannon entropies (nats) of the first ``n_imfs`` IMFs, from a
    single decomposition. Missing modes (constant/monotone windows have
    no oscillation) yield the stable sentinel 0.0."""
    modes = imfs(x, n_imfs=n_imfs)
    out = [_mode_entropy(m, bins) for m in modes]
    out += [0.0] * (n_imfs - len(out))
    return out


# ------------------------------------------------------------------ batched
# The functions below run the decomposition above on every row of a
# (k, n) array at once. Each row goes through exactly the arithmetic the
# scalar functions apply to it, so results are bit-identical.


def _extrema_masks(H: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise :func:`_extrema` as (maxima, minima) boolean masks."""
    d = np.sign(np.diff(H, axis=1))
    turn = d[:, :-1] * d[:, 1:] < 0
    pad = np.zeros((len(H), 1), dtype=bool)
    maxima = np.hstack((pad, turn & (d[:, :-1] > 0), pad))
    minima = np.hstack((pad, turn & (d[:, :-1] < 0), pad))
    return maxima, minima


def _envelope_rows(H: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Row-wise :func:`_envelope` through the ``mask`` points of each row
    (at least one per row), with one ``np.interp`` call.

    Row r's knots and query points are shifted by ``r * n``. The shift is
    an integer, so every slope and offset ``np.interp`` forms is the one
    it forms for the row alone, and no query falls between two rows."""
    r, n = H.shape
    rows, cols = np.nonzero(mask)
    count = np.bincount(rows, minlength=r)
    first = np.cumsum(count) - count
    last = first + count - 1
    xp = np.empty(rows.size + 2 * r)
    fp = np.empty_like(xp)
    at = np.arange(rows.size) + 2 * rows + 1
    xp[at] = rows * n + cols
    fp[at] = H[rows, cols]
    base = np.arange(r)
    head, tail = first + 2 * base, last + 2 * base + 2
    xp[head], fp[head] = base * n, fp[at[first]]
    xp[tail], fp[tail] = base * n + n - 1, fp[at[last]]
    return np.interp(np.arange(r * n, dtype=float), xp, fp).reshape(r, n)


def _sift_rows(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise :func:`_sift`: (IMFs, found), where ``found`` is False for
    the rows on which :func:`_sift` returns None."""
    out = np.empty_like(X)
    found = np.ones(len(X), dtype=bool)
    act = np.arange(len(X))  # rows still sifting
    h = X.copy()
    for _ in range(_MAX_SIFT):
        maxima, minima = _extrema_masks(h)
        flat = (maxima.sum(axis=1) < 2) | (minima.sum(axis=1) < 2)
        if flat.any():
            done = act[flat]
            out[done] = h[flat]
            found[done] = ~np.isclose(h[flat], X[done]).all(axis=1)
            keep = ~flat
            act, h, maxima, minima = act[keep], h[keep], maxima[keep], minima[keep]
        if not act.size:
            return out, found
        env = _envelope_rows(np.vstack((h, h)), np.vstack((maxima, minima)))
        nh = h - 0.5 * (env[: len(h)] + env[len(h):])
        converged = ((h - nh) ** 2).sum(axis=1) <= 1e-10 * ((h**2).sum(axis=1) + 1e-12)
        out[act[converged]] = h[converged]
        act, h = act[~converged], nh[~converged]
    out[act] = h
    return out, found


def _mode_entropy_rows(H: np.ndarray, bins: int) -> np.ndarray:
    """Row-wise :func:`_mode_entropy`."""
    out = np.zeros(len(H))
    live = np.flatnonzero(np.ptp(H, axis=1) > 1e-12)
    if not live.size:
        return out
    idx = histogram_bins(H[live], bins)
    cell = np.arange(live.size)[:, None] * bins + idx
    hist = np.bincount(cell.ravel(), minlength=live.size * bins).reshape(-1, bins)
    p = hist / H.shape[1]
    mask = p > 0
    terms = p * np.log(np.where(mask, p, 1.0))
    for i, r in enumerate(live):
        out[r] = -terms[i][mask[i]].sum()
    return out


def imf_entropies_matrix(M: np.ndarray, n_imfs: int = 2, bins: int = 10) -> np.ndarray:
    """:func:`imf_entropies` of every column of the (w, k) window ``M``:
    a (k, n_imfs) array, bit-identical to calling it per column.

    The columns become the rows of one C-contiguous (k, w) array and are
    sifted together; a row leaves the decomposition when its residue
    stops oscillating."""
    R = np.array(np.asarray(M, dtype=float).T, order="C")
    if not np.isfinite(R).all():  # np.histogram raises on these in the scalar path
        raise ValueError("IMF entropy of a non-finite sequence")
    k, w = R.shape
    out = np.zeros((k, n_imfs))
    rows = np.arange(k)  # rows whose decomposition goes on
    for j in range(n_imfs):
        if not rows.size or w < 3:
            break
        X = R[rows]
        imf, found = _sift_rows(X)
        rows, imf = rows[found], imf[found]
        out[rows, j] = _mode_entropy_rows(imf, bins)
        R[rows] = X[found] - imf
    return out
