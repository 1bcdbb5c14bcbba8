"""Golden traces: fixed-seed end-to-end outputs pinned by sha256 digest.

A change that claims identical behaviour (a faster kernel, a refactor of
the detection loop) must leave these digests unchanged. Each digest
covers the raw bytes of a run's observable outputs:

- FiCSUM on (RBF, seed 1, length_scale 0.5): the per-observation
  (prediction, model_id) pairs, the drift indices, the
  ``oracle_discrimination_ds`` float, and the similarity series: every
  value passed to ``ADWIN.add`` with the flag it returned;
- ``mi:mean`` on (Arabic, seed 1, length_scale 0.5), whose run reuses
  stored concepts (recurrence and second-chance selection): the
  per-observation (prediction, model_id) pairs, the drift indices and the
  ``ADWIN.add`` series;
- a ``DriftMonitor`` fed the ``Synth_DAF`` stream (seed 1, length_scale
  0.5) with upstream predictions wrong on every 7th row: the per-row
  (similarity, drift) series;
- an unsupervised ``DriftMonitor`` fed ``Synth_D`` (seed 1,
  length_scale 0.5): the per-row (similarity, drift) series. Both monitor
  digests must also hold when the rows arrive through ``add_many`` in
  batches of any size;
- the Table VI baselines ``HTCD``, ``RCD``, ``DWM`` and ``ARF`` on
  (CMC, seed 1, length_scale 0.5), all 750 rows: the per-observation
  (prediction, model_id) pairs. CMC, not RBF, because HTCD and ARF
  replace a tree on it (on RBF at seed 1 neither does in the whole
  stream), and ARF runs it in about 3 s.

The digests were recorded with numpy 1.26 on x86-64. A float that moves
in its last bit changes a digest, which is the point; the plain summary
assertions next to each digest say which part moved.
"""
import hashlib

import numpy as np
import pytest

from repro.core.discrimination import oracle_discrimination_ds
from repro.core.monitor import DriftMonitor
from repro.detectors.adwin import ADWIN
from repro.runner import make_method
from repro.streams.datasets import build_dataset

FICSUM_STEPS_SHA = "f4e8ddcbc1cbc0c44e5a5d148258b94b907027b2a3b42a7aaf42c2e79ceb0bfc"
FICSUM_DRIFTS_SHA = "be671ecff09a873c43de579b1659993cbd3cdadf18fecc289f902bf3d17b643f"
FICSUM_DISC_SHA = "85adfdab634d83c76a8f7025bc8b7855ed365edf144a519c7aa2925a37284e52"
MONITOR_SHA = "609ecd2aa3d7c3c3e5b07d5e3519e1187a0010908cc63e1c5776e1bb80617361"
FICSUM_ADWIN_SHA = "8d6fdd44f811450719f2bf9420130b84e6245bcad3fbf08b23af6809f8535a3f"
MEAN_STEPS_SHA = "78a1ca4aa003e8b9762eae55b8ce22bef62a5dfcf9d5ccaf6eca0d6808cb6933"
MEAN_DRIFTS_SHA = "64ad8e2eb9fd93fbf82c98e490802c505619307b35f69fbad801dbff1db39527"
MEAN_ADWIN_SHA = "971a584c19e10106c33894687e6eb76f4e41d8f86f53c5bf7456db8157094a3c"
UNSUP_MONITOR_SHA = "a64672ad6e0d73d83790dda894f664182f745d2957aad845c48271595bb83555"
BASELINE_STEPS_SHA = {
    "HTCD": "bbf85b69d4b78652375a2e02ae63dfe5300edceae2e2cf80753a4f6e661d9c15",
    "RCD": "56341332f26298b36c778ea7142d14638e27b92ff1dfdaa39224dcd89eedb1f7",
    "DWM": "35eb1140262ff9d248a6840f27d8bae6a89caaa8c960972cb7a3a7dbbb5df9dc",
    "ARF": "34f8c01139662e6e3530c0e46860ef29ee6bd01f2fc426955502a751cc235d3a",
}


def _sha(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _prequential(method: str, dataset: str):
    """Run ``method`` over (dataset, seed 1, length_scale 0.5).

    Returns the model, the per-step (prediction, model_id) pairs, the
    drift indices and the ``ADWIN.add`` series: its float inputs and the
    flags it returned, in call order.
    """
    ds = build_dataset(dataset, 1, length_scale=0.5)
    model = make_method(method, ds.n_features, ds.n_classes, 1)
    steps = np.empty((len(ds), 2), dtype=np.int64)
    drifts = []
    fed, flags = [], []
    adwin_add = ADWIN.add

    def recording_add(self, x):
        flag = adwin_add(self, x)
        fed.append(x)
        flags.append(flag)
        return flag

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ADWIN, "add", recording_add)
        for i in range(len(ds)):
            res = model.process(ds.X[i], int(ds.y[i]))
            steps[i] = res.prediction, res.model_id
            if res.drift:
                drifts.append(i)
    adwin = (np.array(fed, dtype=np.float64), np.array(flags, dtype=bool))
    return ds, model, steps, np.array(drifts, dtype=np.int64), adwin


@pytest.fixture(scope="module")
def ficsum_run():
    ds, model, steps, drifts, adwin = _prequential("FiCSUM", "RBF")
    disc = oracle_discrimination_ds(
        ds, source_mode=model.schema.source_mode,
        functions=model.cfg.functions, window_size=model.cfg.window_size,
    )
    return steps, drifts, np.float64(disc), adwin


def test_ficsum_steps_digest(ficsum_run):
    steps, _, _, _ = ficsum_run
    assert _sha(steps) == FICSUM_STEPS_SHA


def test_ficsum_drifts_digest(ficsum_run):
    _, drifts, _, _ = ficsum_run
    assert _sha(drifts) == FICSUM_DRIFTS_SHA, drifts.tolist()


def test_ficsum_discrimination_digest(ficsum_run):
    _, _, disc, _ = ficsum_run
    assert _sha(disc) == FICSUM_DISC_SHA, repr(float(disc))


def test_ficsum_similarity_digest(ficsum_run):
    _, _, _, (fed, flags) = ficsum_run
    assert np.isfinite(fed).all()
    assert _sha(fed, flags) == FICSUM_ADWIN_SHA, (len(fed), np.flatnonzero(flags).tolist())


@pytest.fixture(scope="module")
def mean_run():
    _, _, steps, drifts, adwin = _prequential("mi:mean", "Arabic")
    return steps, drifts, adwin


def test_mean_run_reuses_stored_concepts(mean_run):
    steps, _, _ = mean_run
    mids = steps[:, 1]
    # a model id that comes back after another one was active means model
    # selection (or second-chance selection) accepted a stored concept
    switches = np.flatnonzero(np.diff(mids)) + 1
    assert any(mids[i] in mids[:i] for i in switches)


def test_mean_steps_digest(mean_run):
    steps, _, _ = mean_run
    assert _sha(steps) == MEAN_STEPS_SHA


def test_mean_drifts_digest(mean_run):
    _, drifts, _ = mean_run
    assert _sha(drifts) == MEAN_DRIFTS_SHA, drifts.tolist()


def test_mean_similarity_digest(mean_run):
    _, _, (fed, flags) = mean_run
    assert _sha(fed, flags) == MEAN_ADWIN_SHA, (len(fed), np.flatnonzero(flags).tolist())


def _monitor_series(name: str, supervised: bool, batch: int | None = None):
    """(similarity, drift) of a DriftMonitor fed ``name`` (seed 1,
    length_scale 0.5) row by row through ``add``, or through ``add_many``
    in batches of ``batch`` rows (0: the whole stream in one call).
    Supervised, the upstream predictions are wrong on every 7th row;
    unsupervised, ``add`` gets none and ``add_many`` gets the labels."""
    ds = build_dataset(name, 1, length_scale=0.5)
    mon = DriftMonitor(ds.n_features, supervised=supervised)
    y = ds.y.astype(np.int64)
    l = np.where(np.arange(len(ds)) % 7 == 0, (y + 1) % ds.n_classes, y) if supervised else y
    if batch is None:
        out = [mon.add(ds.X[i], int(y[i]), int(l[i]) if supervised else None)
               for i in range(len(ds))]
    else:
        step = batch or len(ds)
        out = [r for a in range(0, len(ds), step)
               for r in mon.add_many(ds.X[a:a + step], y[a:a + step], l[a:a + step])]
    sims = np.array([s for s, _ in out], dtype=np.float64)
    flags = np.array([d for _, d in out], dtype=bool)
    return sims, flags


#: add_many batch sizes; 0 feeds the whole stream in one call
BATCHES = (1, 7, 30, 64, 0)


def test_monitor_digest():
    sims, flags = _monitor_series("Synth_DAF", True)
    assert _sha(sims, flags) == MONITOR_SHA, np.flatnonzero(flags).tolist()


def test_unsupervised_monitor_digest():
    sims, flags = _monitor_series("Synth_D", False)
    assert _sha(sims, flags) == UNSUP_MONITOR_SHA, np.flatnonzero(flags).tolist()


@pytest.mark.parametrize("batch", BATCHES, ids=lambda b: str(b or "all"))
def test_monitor_digest_add_many(batch):
    sims, flags = _monitor_series("Synth_DAF", True, batch)
    assert _sha(sims, flags) == MONITOR_SHA, np.flatnonzero(flags).tolist()


@pytest.mark.parametrize("batch", BATCHES, ids=lambda b: str(b or "all"))
def test_unsupervised_monitor_digest_add_many(batch):
    sims, flags = _monitor_series("Synth_D", False, batch)
    assert _sha(sims, flags) == UNSUP_MONITOR_SHA, np.flatnonzero(flags).tolist()


@pytest.mark.parametrize("method", sorted(BASELINE_STEPS_SHA))
def test_baseline_steps_digest(method):
    ds = build_dataset("CMC", 1, length_scale=0.5)
    model = make_method(method, ds.n_features, ds.n_classes, 1)
    steps = np.array([model.process(ds.X[i], int(ds.y[i])) for i in range(len(ds))],
                     dtype=np.int64)
    if method in ("HTCD", "ARF"):
        assert model.n_drifts >= 1  # the digest covers a tree replacement
    assert _sha(steps) == BASELINE_STEPS_SHA[method], (model.n_drifts, np.unique(steps[:, 1]).tolist())
