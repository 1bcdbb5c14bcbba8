"""Algorithm 1's detection core, shared by FiCSUM and the streaming operator.

Maintain the active window ``A`` (most recent ``w`` observations) and the
buffer window ``B`` (observations aged between ``b`` and ``b+w``, assumed
to predate any undetected drift); every ``P_C`` observations fingerprint
them. ``F_B`` trains the active concept's fingerprint and its similarity
record (μ_c, σ_c) unless the incorporation gate rejects it; the
similarity of ``F_A`` feeds ADWIN and the μ_c − kσ_c breach rule, which
flag drift.

When ``b`` is a multiple of ``P_C``, ``B`` holds exactly the rows, labels
and predictions ``A`` held ``b`` observations earlier. The raw ``F_A`` of
the last ``b / P_C`` periodic steps is therefore kept, and such an
``F_B`` takes every dimension from it except the Shapley ones, which are
recomputed with the current tree. The vectors are those a fresh
computation gives.

Stand-alone, the monitor is classifier-free: labels ``y`` and upstream
predictions ``l`` (optional) arrive with the observations, and a drift
starts a fresh concept. The raw fingerprint of a window then depends only
on its rows, so ``add_many`` fingerprints every window a batch of rows
will use in one kernel call before stepping through the rows. It is the
state object carried by the Structured Streaming stateful operator
(``repro.sparkjobs.streaming``), which hands it each micro-batch; it is
picklable and processes observations strictly in sequence order.
:class:`repro.core.ficsum.FiCSUM` owns one over its own fingerprint
schema and does the model selection on drift.
"""
from __future__ import annotations

import numpy as np

from repro.core.fingerprint import (
    ConceptFingerprint,
    FingerprintSchema,
    Normalizer,
    compute_fingerprint,
    shapley_dims,
)
from repro.core.meta_features import SEQUENCE_FUNCTIONS
from repro.core.repository import ConceptRecord, Repository
from repro.core.similarity import dynamic_weights, similarity
from repro.detectors.adwin import ADWIN

# The breach rule (sim < μ_c − k·max(σ_c, floor), n times in a row) runs
# with two value sets: the stand-alone defaults of DriftMonitor (3.5, 0.03,
# 4) and FiCSUM's below. They are kept apart only so outputs stay
# identical; unifying them is a behaviour change for a later change that
# re-runs the tables.
FICSUM_BREACH_RULE = {"breach_sigmas": 3.0, "breach_floor": 0.02, "breach_count": 3}


class DriftMonitor:
    """Sequential drift detection over (x, y, l) observations.

    Algorithm 1's settings are the class constants below, one set for
    FiCSUM and the streaming operator alike (the paper's Section VI-2
    values in the comments); an instance sets only the breach rule.
    """

    window_size = 50        # w, the length of A and B (paper: 75)
    buffer_len = 12         # b, how much older B is than A (paper: 0.25·w)
    period = 3              # P_C, observations between periodic steps (paper: 3)
    incorporate_every = 3   # F_B is incorporated on every 3rd periodic step
    adwin_delta = 0.02      # ADWIN's δ over the similarity of F_A
    min_sim_history = 8     # similarity records before drift can fire

    def __init__(self, n_features: int, *, supervised: bool = True, **breach):
        """Classifier-free monitor over the sequence functions of the
        feature sources (plus labels, predictions and errors when
        ``supervised``); ``breach`` are the keywords of :meth:`_setup`."""
        schema = FingerprintSchema(
            n_features=n_features,
            source_mode="all" if supervised else "unsupervised",
            functions=tuple(SEQUENCE_FUNCTIONS),  # no shapley: no tree here
        )
        self._setup(schema, **breach)

    @classmethod
    def with_schema(cls, schema: FingerprintSchema, **breach) -> DriftMonitor:
        """A monitor fingerprinting windows under ``schema`` (FiCSUM's)."""
        mon = cls.__new__(cls)
        mon._setup(schema, **breach)
        return mon

    def _setup(
        self,
        schema: FingerprintSchema,
        *,
        breach_sigmas: float = 3.5,
        breach_floor: float = 0.03,
        breach_count: int = 4,
    ) -> None:
        """Drift also fires after ``breach_count`` similarities in a row
        below μ_c − ``breach_sigmas``·max(σ_c, ``breach_floor``)."""
        self.schema = schema
        self.breach_sigmas = breach_sigmas
        self.breach_floor = breach_floor
        self.breach_count = breach_count
        self.normalizer = Normalizer(schema.dim)
        self.detector = ADWIN(delta=self.adwin_delta)
        # ring buffer of the last w+b observations; row i % (w+b) is the
        # oldest once full, and the next to be overwritten
        n = self.window_size + self.buffer_len
        self.X = np.zeros((n, schema.n_features))
        self.y = np.zeros(n, dtype=np.int64)
        self.l = np.zeros(n, dtype=np.int64)
        self.i = 0
        self._tick = 0
        self._breaches = 0
        self._cooldown_until = 0
        self.n_drifts = 0
        self.active = ConceptRecord(0, schema.dim, None)
        # raw F_A by the observation count it was computed at: b observations
        # later the same rows, labels and predictions form B
        self._raw_a: dict[int, np.ndarray] = {}
        # sequence number of the last row the streaming operator handled
        self.last_seq: int | None = None

    # ----------------------------------------------------------- observation
    def check(self, x) -> np.ndarray:
        """``x`` as a float row; ValueError unless it holds exactly
        ``n_features`` finite values (a NaN would poison the normalizer's
        min/max for good)."""
        row = np.asarray(x, dtype=float)
        n = self.schema.n_features
        if row.shape != (n,) or not np.isfinite(row).all():
            raise ValueError(f"expected {n} finite feature values, got {x!r}")
        return row

    def add(self, x, y: int, l: int | None = None) -> tuple[float, bool]:
        """Process one observation: :meth:`add_many` of one checked row."""
        return self.add_many(self.check(x)[None], [int(y)], [int(l if l is not None else y)])[0]

    def add_many(self, X: np.ndarray, y, l) -> list[tuple[float, bool]]:
        """Process checked rows ``X`` (n, d) with labels ``y`` and upstream
        predictions ``l`` in order; returns one (similarity, drift_flag) per
        row and starts a fresh concept on each drift.

        Similarity is NaN until the concept fingerprint is trained. The raw
        fingerprints of the windows the rows' periodic steps use come from
        one kernel call (:meth:`_batch_raws`); normalization, similarity,
        the gate, ADWIN and the breach rule then run row by row.
        """
        raws = self._batch_raws(X, y, l)
        out = []
        for x_r, y_r, l_r in zip(X, y, l):
            sim, drift = self.step(x_r, int(y_r), int(l_r), raws=raws)
            if drift:
                self.activate(ConceptRecord(self.n_drifts, self.schema.dim, None))
            out.append((sim, drift))
        return out

    def step(self, x: np.ndarray, y: int, l: int, repo: Repository | None = None,
             raws: dict[int, np.ndarray] | None = None) -> tuple[float, bool]:
        """Append a checked observation and run the periodic detection
        step; returns (similarity, drift) without switching concepts.

        ``repo`` adds the inter-concept terms to the dynamic weights.
        ``raws`` holds raw fingerprints computed ahead, keyed by the
        observation count their window ends at; a window not in it is
        fingerprinted here.
        """
        j = self.i % len(self.y)
        self.X[j], self.y[j], self.l[j] = x, y, l
        self.i += 1
        w = self.window_size
        if self.i < w or self.i % self.period:
            return float("nan"), False
        self._tick += 1
        raws = raws or {}
        X, Y, L = self.window()
        rec = self.active
        F_c = rec.fingerprint
        b_at = self.i - self.buffer_len
        self._raw_a = {k: v for k, v in self._raw_a.items() if k >= b_at}
        if self.i >= w + self.buffer_len and (
            self._tick % self.incorporate_every == 0 or F_c.n_incorporated < 2
        ):
            F_B = self._fingerprint(X[:w], Y[:w], L[:w], self._raw_a.get(b_at, raws.get(b_at)))
            if F_c.n_incorporated >= 2:
                sim_b = similarity(F_c.mu, F_B, self.weights(F_c, repo))
                # incorporation gate: a buffer window that looks nothing
                # like the concept is likely post-drift spillover; do not
                # let it drag the concept fingerprint toward the new
                # concept before the detector can fire
                if not self._breached(sim_b):
                    rec.sim.update(sim_b)
                    F_c.incorporate(F_B)
                    rec.calib_vec = F_B
            else:
                F_c.incorporate(F_B)
                rec.calib_vec = F_B
        if F_c.n_incorporated < 2 or self.i < self._cooldown_until:
            return float("nan"), False
        F_A = self._fingerprint(X[-w:], Y[-w:], L[-w:], raws.get(self.i), key=self.i)
        sim_a = similarity(F_c.mu, F_A, self.weights(F_c, repo))
        # ADWIN (paper) plus the consecutive-breach rule: at our scaled
        # segment lengths ADWIN's Hoeffding term needs more samples per
        # segment than exist (documented deviation)
        self._breaches = self._breaches + 1 if self._breached(sim_a) else 0
        adwin_drift = self.detector.add(sim_a)
        drift = rec.sim.n >= self.min_sim_history and (
            adwin_drift or self._breaches >= self.breach_count
        )
        if drift:
            self.n_drifts += 1
        return sim_a, drift

    def activate(self, rec: ConceptRecord) -> None:
        """Make ``rec`` the active concept: the one reset path after a drift."""
        self.active = rec
        self.detector.reset()
        self._breaches = 0
        # let the windows refill with post-drift data before detecting again
        self._cooldown_until = self.i + self.window_size

    def window(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(X, y, l) of the last w+b observations, oldest first: once full,
        ``B`` is the first w rows and ``A`` the last w."""
        j = self.i % len(self.y)
        return tuple(np.concatenate((a[j:], a[:j])) for a in (self.X, self.y, self.l))

    def weights(self, ref: ConceptFingerprint, repo: Repository | None = None) -> np.ndarray:
        """Dynamic weights for similarity against concept fingerprint ``ref``."""
        # dims without a trained distribution (count<2, e.g. just
        # plasticity-reset) get neutral scale, not the 1/σ maximum
        ref_sigma = np.where(ref.count >= 2, ref.sigma, 1.0)
        w = dynamic_weights(ref_sigma, repo.discrimination() if repo is not None else None)
        # dims whose value never varied globally carry no signal at all
        degenerate = (self.normalizer.hi - self.normalizer.lo) < 1e-9
        return np.where(degenerate, 0.0, w)

    # ------------------------------------------------------------ internals
    def _breached(self, sim: float) -> bool:
        s = self.active.sim
        return s.n >= 5 and sim < s.mean - self.breach_sigmas * max(s.std, self.breach_floor)

    def _batch_raws(self, X: np.ndarray, y: np.ndarray, l: np.ndarray) -> dict[int, np.ndarray]:
        """Raw fingerprints, by end count, of the windows that the periodic
        steps over rows (X, y, l) will fingerprint, from one kernel call.

        The step at count c fingerprints F_A, the w rows ending at c,
        outside the cooldown once the concept has incorporated two F_B;
        F_B, the w rows ending at c − b, is needed on incorporating steps
        unless ``_raw_a`` or an earlier F_A of the batch holds it. No
        window starts before the buffered w+b rows or ends after the new
        ones. A drift inside the batch cannot be foreseen: the F_A of its
        cooldown are computed and left unused.
        """
        w, b, period = self.window_size, self.buffer_len, self.period
        first = max(w, self.i + 1)
        counts = range(first + -first % period, self.i + len(X) + 1, period)
        if not counts:
            return {}
        n_inc = self.active.fingerprint.n_incorporated
        ends: list[int] = []
        for tick, c in enumerate(counts, self._tick + 1):
            if c >= w + b and (n_inc < 2 or tick % self.incorporate_every == 0):
                if c - b not in self._raw_a and c - b not in ends:
                    ends.append(c - b)
                n_inc += 1  # below 2, F_B is incorporated without the gate
            if n_inc >= 2 and c >= self._cooldown_until:
                ends.append(c)
        if not ends:
            return {}
        # rows: the buffered w+b, oldest first, then the new ones; the
        # window ending at count c starts at row c − i + b
        j = self.i % len(self.y)
        at = (np.array(ends) - self.i + b)[:, None] + np.arange(w)
        Xw, yw, lw = (np.concatenate((buf[j:], buf[:j], new))[at]
                      for buf, new in ((self.X, X), (self.y, y), (self.l, l)))
        raws = compute_fingerprint(Xw, yw, lw, self.schema)
        return dict(zip(ends, raws))

    def _fingerprint(self, X: np.ndarray, y: np.ndarray, l: np.ndarray,
                     seen: np.ndarray | None = None, key: int | None = None) -> np.ndarray:
        """Normalized fingerprint of window (X, y, l) under the active tree.

        ``seen`` is the raw F_A of the same rows from an earlier tick: only
        its Shapley dims, which follow the tree as it trains, are recomputed.
        ``key`` keeps the raw vector for that reuse.
        """
        tree = self.active.classifier
        if seen is None:
            raw = compute_fingerprint(X, y, l, self.schema, tree)
        elif self.schema.use_shapley:
            raw = seen.copy()
            raw[-self.schema.n_features:] = shapley_dims(X, self.schema, tree)
        else:
            raw = seen
        if key is not None:
            self._raw_a[key] = raw
        self.normalizer.update(raw)
        return self.normalizer.normalize(raw)

    def __setstate__(self, state: dict) -> None:
        """Refuse state pickled before the F_A cache and ``last_seq``."""
        missing = {"_raw_a", "last_seq"} - state.keys()
        if missing:
            raise ValueError(
                f"DriftMonitor state lacks {sorted(missing)}: it was saved by an "
                "older version; restart the stream from fresh state"
            )
        self.__dict__.update(state)
