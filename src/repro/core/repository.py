"""Concept repository (Algorithm 1's ``R``).

Each stored concept holds its concept fingerprint, incremental
classifier, the running (μ_c, σ_c) of the similarity ``Sim(F_c, F_B)``
observed while the concept was active, and ``sc_stats`` — the online
distribution of fingerprints produced by this concept's classifier on
*foreign* windows (F_SC), which feeds the intra-classifier Fisher
weight.
"""
from __future__ import annotations

import numpy as np

from repro.core.fingerprint import ConceptFingerprint
from repro.core.similarity import discrimination_factor


class _Welford:
    """Scalar online mean/std, exponentially recency-weighted.

    The similarity scale drifts as normalization and dynamic weights
    train (paper Section IV), so the (μ_c, σ_c) acceptance records must
    track the *current* weighting regime rather than the all-time
    average — an EW estimate with α≈0.15 does that in O(1).
    """

    ALPHA = 0.15

    def __init__(self):
        self.n = 0
        self.mean = 0.0
        self.var = 0.0

    def update(self, x: float) -> None:
        self.n += 1
        if self.n == 1:
            self.mean = x
            return
        a = max(self.ALPHA, 1.0 / self.n)
        d = x - self.mean
        self.mean += a * d
        self.var = (1.0 - a) * (self.var + a * d * d)

    @property
    def std(self) -> float:
        return float(np.sqrt(max(self.var, 0.0)))


class ConceptRecord:
    """One stored concept: fingerprint, classifier and similarity stats."""

    def __init__(self, concept_id: int, dim: int, classifier):
        self.id = concept_id
        self.fingerprint = ConceptFingerprint(dim)
        self.classifier = classifier
        self.sim = _Welford()  # μ_c, σ_c of Sim(F_c, F_B)
        #: distribution of F_SC vectors; only repository records keep one
        self.sc_stats: ConceptFingerprint | None = None
        #: last incorporated fingerprint — re-calibrates stale similarity
        #: records under the current weighting regime (paper Section IV)
        self.calib_vec: np.ndarray | None = None

    @property
    def mature(self) -> bool:
        """Enough similarity history for the μ±2σ acceptance test."""
        return self.sim.n >= 3


class Repository:
    """Ordered collection of ConceptRecords and their discrimination factor."""

    #: (key, w_d) of the last :meth:`discrimination`; a class default, so
    #: that a repository pickled without it loads
    _wd_cache: tuple = (None, None)

    def __init__(self, dim: int):
        self.dim = dim
        self.records: list[ConceptRecord] = []
        self._next_id = 0

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def create(self, classifier) -> ConceptRecord:
        rec = ConceptRecord(self._next_id, self.dim, classifier)
        rec.sc_stats = ConceptFingerprint(self.dim)
        self._next_id += 1
        self.records.append(rec)
        return rec

    def remove(self, rec: ConceptRecord) -> None:
        self.records.remove(rec)

    def discrimination(self) -> np.ndarray | None:
        """The discrimination factor w_d over the concepts with trained
        fingerprints (``discrimination_factor`` of their μ, σ and σ_SC
        stacks), or None with fewer than two of them.

        w_d is recomputed only when the repository changes. The key
        (next id, record count, sum of fingerprint and ``sc_stats``
        versions) moves on every change: versions only grow, ``create``
        always moves the next id, and ``remove`` without a ``create``
        shrinks the count.
        """
        key = (self._next_id, len(self.records),
               sum(r.fingerprint.version + r.sc_stats.version for r in self.records))
        if key != self._wd_cache[0]:
            self._wd_cache = key, self._discrimination()
        return self._wd_cache[1]

    def _discrimination(self) -> np.ndarray | None:
        trained = [r for r in self.records if r.fingerprint.n_incorporated >= 2]
        if len(trained) < 2:
            return None
        mus = np.stack([r.fingerprint.mu for r in trained])
        sigmas = np.stack([r.fingerprint.sigma for r in trained])
        sc = np.stack(
            [
                r.sc_stats.sigma
                if r.sc_stats.n_incorporated >= 2
                else np.zeros(self.dim)
                for r in trained
            ]
        )
        w_d = discrimination_factor(mus, sigmas, sc)
        w_d.flags.writeable = False
        return w_d
