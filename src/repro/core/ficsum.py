"""FiCSUM main loop (Algorithm 1).

Per observation: predict with the active concept's classifier, train it,
and hand the observation to the detection core
(:class:`repro.core.monitor.DriftMonitor`), which keeps the buffer and
active windows, the concept fingerprint and its similarity record
(μ_c, σ_c), and ADWIN over the similarity. FiCSUM adds the classifier and
the concept repository: fingerprints use the active concept's tree for
the Shapley dimensions, and the repository feeds the dynamic weights. On
drift, model selection tests every stored concept (relabelling ``A`` with
its classifier) and accepts recurrences whose similarity is within
μ_s ± 2σ_s, falling back to a fresh concept; a second-chance selection
runs ``w`` observations later (Section III-A). Classifier-dependent
fingerprint dimensions are reset when the Hoeffding tree grows a branch
(Section IV plasticity).

The paper's similarity-record re-calibration transform (Section IV) is
not implemented; our μ_c/σ_c are recent-weighted enough at the scales we
run (documented simplification).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from repro.classifiers.hoeffding_tree import HoeffdingTree
from repro.core.fingerprint import FingerprintSchema, compute_fingerprint
from repro.core.monitor import FICSUM_BREACH_RULE, DriftMonitor
from repro.core.repository import ConceptRecord, Repository
from repro.core.similarity import similarity


@dataclass
class FicsumConfig:
    """The fingerprint a FiCSUM variant uses (Tables III–V).

    Every other setting is a constant: the detection loop's are
    :class:`DriftMonitor`'s, the tree's are ``HoeffdingTree``'s class
    constants and default grace period of 30, and the repository's and
    model selection's are the class constants below.
    """

    source_mode: str = "all"       # all | supervised | unsupervised | error_rate
    functions: tuple[str, ...] | None = None  # None → all 13

    window_size: ClassVar[int] = DriftMonitor.window_size  # w, owned by the monitor
    repo_period: ClassVar[int] = 100    # P_S (paper: 25; raised for runtime)
    sigma_floor: ClassVar[float] = 0.05   # floor on σ_s in the μ±2σ acceptance test
    accept_floor: ClassVar[float] = 0.45  # absolute minimum similarity for recurrence


@dataclass
class StepResult:
    prediction: int
    model_id: int
    drift: bool = False


class FiCSUM:
    """Fingerprinting Combined Supervised and Unsupervised Meta-information."""

    def __init__(self, n_features: int, n_classes: int,
                 config: FicsumConfig | None = None):
        cfg = self.cfg = config or FicsumConfig()
        self.n_features = n_features
        self.n_classes = n_classes
        kwargs = {"n_features": n_features}
        if cfg.functions is not None:
            kwargs["functions"] = tuple(cfg.functions)
        self.schema = FingerprintSchema(source_mode=cfg.source_mode, **kwargs)
        self.monitor = DriftMonitor.with_schema(self.schema, **FICSUM_BREACH_RULE)
        self.repo = Repository(self.schema.dim)
        self._recheck_at = -1
        self._new_since_drift: ConceptRecord | None = None
        self._activate(self.repo.create(self._new_classifier()))

    @property
    def active(self) -> ConceptRecord:
        return self.monitor.active

    @property
    def n_drifts(self) -> int:
        return self.monitor.n_drifts

    def _new_classifier(self) -> HoeffdingTree:
        return HoeffdingTree(self.n_features, self.n_classes)

    # ------------------------------------------------------------------ step
    def process(self, x: np.ndarray, y: int) -> StepResult:
        """Prequential step: predict, train, detect drift, select a model."""
        mon, rec = self.monitor, self.active
        x = mon.check(x)
        pred = rec.classifier.predict(x)
        rec.classifier.partial_fit(x, y)
        res = StepResult(prediction=pred, model_id=rec.id)

        growth = rec.classifier.growth_events
        if growth > self._last_growth:
            # Section IV: forget classifier-dependent fingerprint dims
            rec.fingerprint.reset_dims(self.schema.classifier_dim_mask())
            self._last_growth = growth

        _, res.drift = mon.step(x, y, pred, self.repo)
        if res.drift:
            self._model_selection()
        if self._recheck_at == mon.i:
            self._second_selection()
        if (
            mon.i % self.cfg.repo_period == 0
            and mon.i >= mon.window_size
            and len(self.repo) > 1
        ):
            self._update_sc_stats()
        return res

    def _relabel_fingerprints(self, recs: list[ConceptRecord]) -> np.ndarray:
        """F_AS per record, (len(recs), dim): window ``A`` relabelled by each
        record's classifier, all labellings fingerprinted in one call."""
        w = self.monitor.window_size
        X, y, _ = self.monitor.window()
        X, y = X[-w:], y[-w:]
        trees = [rec.classifier for rec in recs]
        L = np.stack([t.predict_batch(X) for t in trees])
        raw = compute_fingerprint(X, y, L, self.schema, trees)
        return self.monitor.normalizer.normalize(raw)

    # -------------------------------------------------------- model selection
    def _candidates(self, exclude: ConceptRecord) -> list[tuple[float, ConceptRecord]]:
        recs = [rec for rec in self.repo if rec is not exclude and rec.mature
                and rec.fingerprint.n_incorporated >= 2]
        if not recs:
            return []
        out = []
        for rec, F_AS in zip(recs, self._relabel_fingerprints(recs)):
            W = self.monitor.weights(rec.fingerprint, self.repo)
            sim = similarity(rec.fingerprint.mu, F_AS, W)
            # normal-operation reference: stored μ_s, re-calibrated under
            # the current weighting via the retained fingerprint pair
            ref = rec.sim.mean
            if rec.calib_vec is not None:
                calib = similarity(rec.fingerprint.mu, rec.calib_vec, W)
                ref = 0.5 * (ref + calib)
            slack = min(max(2.0 * rec.sim.std, 2.0 * self.cfg.sigma_floor), 0.5)
            # one-sided: similarity above normal is never evidence against;
            # rank by elevation over the concept's own normal similarity so
            # a concept whose "normal" is 0.7 can beat one whose is 0.95
            if sim >= ref - slack and sim >= self.cfg.accept_floor:
                out.append((sim - ref, rec))
        return sorted(out, key=lambda t: -t[0])

    def _model_selection(self) -> None:
        # excludes the pre-drift concept: it is still the active one here
        accepted = self._candidates(exclude=self.active)
        if accepted:
            self._activate(accepted[0][1])
            self._new_since_drift = None
        else:
            rec = self.repo.create(self._new_classifier())
            self._activate(rec)
            self._new_since_drift = rec
        self._recheck_at = self.monitor.i + self.monitor.window_size

    def _second_selection(self) -> None:
        """Re-run selection w obs after a drift (window now fully post-drift)."""
        if self._new_since_drift is None or self._new_since_drift is not self.active:
            return
        accepted = self._candidates(exclude=self.active)
        if accepted:
            stale = self.active
            self._activate(accepted[0][1])
            if stale.fingerprint.n_incorporated < 2:
                self.repo.remove(stale)
        self._new_since_drift = None

    def _activate(self, rec: ConceptRecord) -> None:
        self.monitor.activate(rec)
        self._last_growth = rec.classifier.growth_events

    def _update_sc_stats(self) -> None:
        """Periodic F_SC capture for non-active concepts (P_S, Sec III-B2)."""
        recs = [rec for rec in self.repo if rec is not self.active]
        for rec, F_SC in zip(recs, self._relabel_fingerprints(recs)):
            rec.sc_stats.incorporate(F_SC)

    # ------------------------------------------------------------- inspection
    def repository_summary(self) -> list[dict]:
        return [
            {
                "id": r.id,
                "incorporated": r.fingerprint.n_incorporated,
                "sim_mean": r.sim.mean,
                "sim_std": r.sim.std,
                "active": r is self.active,
            }
            for r in self.repo
        ]
