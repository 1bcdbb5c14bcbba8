"""Golden traces: fixed-seed end-to-end outputs pinned by sha256 digest.

A change that claims identical behaviour (a faster kernel, a refactor of
the detection loop) must leave these digests unchanged. Each digest
covers the raw bytes of a run's observable outputs:

- FiCSUM on (RBF, seed 1, length_scale 0.5): the per-observation
  (prediction, model_id) pairs, the drift indices, and the
  ``oracle_discrimination_ds`` float;
- a ``DriftMonitor`` fed the ``Synth_DAF`` stream (seed 1, length_scale
  0.5) with upstream predictions wrong on every 7th row: the per-row
  (similarity, drift) series.

The digests were recorded with numpy 1.26 on x86-64. A float that moves
in its last bit changes a digest, which is the point; the plain summary
assertions next to each digest say which part moved.
"""
import hashlib

import numpy as np
import pytest

from repro.core.discrimination import oracle_discrimination_ds
from repro.core.monitor import DriftMonitor
from repro.runner import make_method
from repro.streams.datasets import build_dataset

FICSUM_STEPS_SHA = "f4e8ddcbc1cbc0c44e5a5d148258b94b907027b2a3b42a7aaf42c2e79ceb0bfc"
FICSUM_DRIFTS_SHA = "be671ecff09a873c43de579b1659993cbd3cdadf18fecc289f902bf3d17b643f"
FICSUM_DISC_SHA = "85adfdab634d83c76a8f7025bc8b7855ed365edf144a519c7aa2925a37284e52"
MONITOR_SHA = "609ecd2aa3d7c3c3e5b07d5e3519e1187a0010908cc63e1c5776e1bb80617361"


def _sha(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def ficsum_run():
    ds = build_dataset("RBF", 1, length_scale=0.5)
    model = make_method("FiCSUM", ds.n_features, ds.n_classes, 1)
    steps = np.empty((len(ds), 2), dtype=np.int64)
    drifts = []
    for i in range(len(ds)):
        res = model.process(ds.X[i], int(ds.y[i]))
        steps[i] = res.prediction, res.model_id
        if res.drift:
            drifts.append(i)
    disc = oracle_discrimination_ds(
        ds, source_mode=model.schema.source_mode,
        functions=model.cfg.functions, window_size=model.cfg.window_size,
    )
    return steps, np.array(drifts, dtype=np.int64), np.float64(disc)


def test_ficsum_steps_digest(ficsum_run):
    steps, _, _ = ficsum_run
    assert _sha(steps) == FICSUM_STEPS_SHA


def test_ficsum_drifts_digest(ficsum_run):
    _, drifts, _ = ficsum_run
    assert _sha(drifts) == FICSUM_DRIFTS_SHA, drifts.tolist()


def test_ficsum_discrimination_digest(ficsum_run):
    _, _, disc = ficsum_run
    assert _sha(disc) == FICSUM_DISC_SHA, repr(float(disc))


def test_monitor_digest():
    ds = build_dataset("Synth_DAF", 1, length_scale=0.5)
    mon = DriftMonitor(ds.n_features)
    sims = np.empty(len(ds))
    flags = np.zeros(len(ds), dtype=bool)
    for i in range(len(ds)):
        y = int(ds.y[i])
        l = (y + 1) % ds.n_classes if i % 7 == 0 else y
        sims[i], flags[i] = mon.add(ds.X[i], y, l)
    assert _sha(sims, flags) == MONITOR_SHA, np.flatnonzero(flags).tolist()
