"""Discrimination ability of a meta-information set (Section II-A,
Table III / Table V bottom).

The paper defines discrimination over a repository R and a window W
drawn from concept a: how separable Sim(F_a, W) is from Sim(F_i, W) for
the other stored representations. We measure it in the oracle setting —
per-concept classifiers trained on each concept's first occurrence and
concept fingerprints built from that occurrence's windows — then probe
windows from *later* occurrences. This isolates the representation
question Table III asks from drift-detection quality (the paper
similarly reports an isolated-model-selection variant); separation is a
z-score per DESIGN.md substitution #8.
"""
from __future__ import annotations

import numpy as np

from repro.classifiers.hoeffding_tree import HoeffdingTree
from repro.core.fingerprint import (
    ConceptFingerprint,
    FingerprintSchema,
    Normalizer,
    compute_fingerprint,
)
from repro.core.similarity import discrimination_factor, dynamic_weights, similarity
from repro.streams.datasets import StreamDataset

# observations of its first occurrence each per-concept classifier trains on
_TRAIN_CAP = 400


def _segments(concept_ids: np.ndarray) -> list[tuple[int, int, int]]:
    out, start = [], 0
    for i in range(1, len(concept_ids) + 1):
        if i == len(concept_ids) or concept_ids[i] != concept_ids[start]:
            out.append((start, i, int(concept_ids[start])))
            start = i
    return out


def oracle_discrimination_ds(
    ds: StreamDataset,
    *,
    source_mode: str = "all",
    functions: tuple[str, ...] | None = None,
    window_size: int = 50,
) -> float:
    """Mean z-score separation of the correct concept fingerprint on
    ``ds``, over windows of ``window_size`` observations."""
    kwargs = {"n_features": ds.n_features, "source_mode": source_mode}
    if functions is not None:
        kwargs["functions"] = tuple(functions)
    schema = FingerprintSchema(**kwargs)
    segs = _segments(ds.concept_ids)
    concepts = sorted({c for _, _, c in segs})
    if len(concepts) < 2:
        return 0.0
    # per-concept classifier trained on the concept's first occurrence
    trees: dict[int, HoeffdingTree] = {}
    first_seg: dict[int, tuple[int, int]] = {}
    for start, end, c in segs:
        if c in trees:
            continue
        t = HoeffdingTree(ds.n_features, ds.n_classes)
        for i in range(start, min(end, start + _TRAIN_CAP)):
            t.partial_fit(ds.X[i], int(ds.y[i]))
        trees[c] = t
        first_seg[c] = (start, end)

    norm = Normalizer(schema.dim)

    def fp(a: int, c: int) -> np.ndarray:
        Xw = ds.X[a: a + window_size]
        yw = ds.y[a: a + window_size]
        lw = trees[c].predict_batch(Xw)
        raw = compute_fingerprint(Xw, yw, lw, schema, trees[c])
        norm.update(raw)
        return raw

    # concept fingerprints from first-occurrence windows
    reps: dict[int, ConceptFingerprint] = {c: ConceptFingerprint(schema.dim) for c in concepts}
    raw_train: list[tuple[int, np.ndarray]] = []
    for c in concepts:
        start, end = first_seg[c]
        offs = np.linspace(0, (end - start) - window_size, 4).astype(int)
        for off in offs:
            raw_train.append((c, fp(start + off, c)))
    for c, raw in raw_train:
        reps[c].incorporate(norm.normalize(raw))

    mus = np.stack([reps[c].mu for c in concepts])
    sigmas = np.stack([reps[c].sigma for c in concepts])
    w_d = discrimination_factor(mus, sigmas)
    weights = {
        c: dynamic_weights(np.where(reps[c].count >= 2, reps[c].sigma, 1.0), w_d)
        for c in concepts
    }

    # probe windows from later occurrences
    probes: list[tuple[float, list[float]]] = []
    later = [s for s in segs if (s[0], s[1]) != first_seg[s[2]]]
    for start, end, c in later:
        mid = start + (end - start) // 2
        if mid + window_size > end:
            continue
        # every concept's labelling of the probe window in one call
        Xw = ds.X[mid: mid + window_size]
        cand = [trees[cc] for cc in concepts]
        L = np.stack([t.predict_batch(Xw) for t in cand])
        raws = compute_fingerprint(Xw, ds.y[mid: mid + window_size], L, schema, cand)
        sims = {
            cc: similarity(reps[cc].mu, norm.normalize(raw), weights[cc])
            for cc, raw in zip(concepts, raws)
        }
        probes.append((sims[c], [s for k, s in sims.items() if k != c]))
    if not probes:
        return 0.0
    # pooled denominator: the spread of wrong-concept similarities over
    # all probes, so 2-concept datasets (one "other" per probe) do not
    # degenerate to a zero-variance z-score
    all_others = np.concatenate([np.asarray(o) for _, o in probes])
    pooled_std = max(float(np.std(all_others)), 1e-3)
    zs = [
        (correct - float(np.mean(others))) / pooled_std
        for correct, others in probes
    ]
    return float(np.clip(np.mean(zs), -500.0, 500.0))
