"""``Repository.discrimination`` caches the discrimination factor w_d per
repository state. These tests check that the cached value always equals
w_d recomputed from freshly stacked statistics, bit for bit, and that
state pickled before the cache still loads."""
import pickle

import numpy as np
import pytest

from repro.core.fingerprint import ConceptFingerprint
from repro.core.monitor import DriftMonitor
from repro.core.repository import Repository
from repro.runner import make_method
from repro.streams.datasets import build_dataset
from tests import reference as ref

DIM = 6


def _check(repo: Repository) -> None:
    got, want = repo.discrimination(), ref.repository_discrimination(repo)
    if want is None:
        assert got is None
    else:
        assert np.array_equal(got, want)


def test_random_operations_match_fresh_stacks():
    g = np.random.default_rng(3)
    repo = Repository(DIM)
    ops = ["create", "remove", "incorporate", "incorporate", "reset_dims", "sc"]
    n_set = 0
    for _ in range(1500):
        op = ops[g.integers(len(ops))] if len(repo) else "create"
        recs = list(repo)
        rec = recs[g.integers(len(recs))] if recs else None
        if op == "create":
            repo.create(None)
        elif op == "remove":
            repo.remove(rec)
        elif op == "incorporate":
            rec.fingerprint.incorporate(g.random(DIM))
        elif op == "reset_dims":
            rec.fingerprint.reset_dims(g.random(DIM) < 0.5)
        else:
            rec.sc_stats.incorporate(g.random(DIM) * 0.3)
        _check(repo)
        n_set += repo.discrimination() is not None
    assert n_set > 500  # most states have two trained concepts


def test_remove_then_refill_recomputes():
    """A ``remove`` followed by as many version steps as the removed
    record held leaves the version sum where it was; the record count
    still moves the key."""
    g = np.random.default_rng(0)
    repo = Repository(DIM)
    recs = [repo.create(None) for _ in range(3)]
    for r in recs:
        for _ in range(3):
            r.fingerprint.incorporate(g.random(DIM))
    before = repo.discrimination()
    repo.remove(recs[0])
    for _ in range(3):
        recs[1].fingerprint.incorporate(g.random(DIM))
    _check(repo)
    assert not np.array_equal(repo.discrimination(), before)


def test_unchanged_repository_reuses_w_d():
    g = np.random.default_rng(1)
    repo = Repository(DIM)
    for r in (repo.create(None), repo.create(None)):
        r.fingerprint.incorporate(g.random(DIM))
        r.fingerprint.incorporate(g.random(DIM))
    w_d = repo.discrimination()
    assert repo.discrimination() is w_d
    assert not w_d.flags.writeable
    next(iter(repo)).sc_stats.incorporate(g.random(DIM))
    assert repo.discrimination() is not w_d


@pytest.mark.parametrize("dataset", ["STAGGER", "RBF"])
def test_ficsum_weights_match_uncached(dataset, monkeypatch):
    """Every weight call of a FiCSUM run equals the same call with w_d
    recomputed from freshly stacked statistics."""

    class Fresh:
        def __init__(self, repo):
            self.repo = repo

        def discrimination(self):
            return ref.repository_discrimination(self.repo)

    weights = DriftMonitor.weights
    calls = {"repo": 0}

    def checked(self, fp, repo=None):
        w = weights(self, fp, repo)
        if repo is not None:
            calls["repo"] += repo.discrimination() is not None
            assert np.array_equal(w, weights(self, fp, Fresh(repo)))
        return w

    monkeypatch.setattr(DriftMonitor, "weights", checked)
    ds = build_dataset(dataset, 1, length_scale=0.3)
    model = make_method("FiCSUM", ds.n_features, ds.n_classes, 1)
    for i in range(len(ds)):
        model.process(ds.X[i], int(ds.y[i]))
    assert calls["repo"] > 50  # w_d was set on many calls


def test_fingerprint_pickled_without_version_loads():
    fp = ConceptFingerprint(3)
    fp.incorporate(np.array([0.1, 0.2, 0.3]))
    del fp.__dict__["version"]  # state as pickled before the counter
    old = pickle.loads(pickle.dumps(fp))
    assert old.version == 0
    old.incorporate(np.array([0.3, 0.2, 0.1]))
    old.reset_dims(np.array([True, False, False]))
    assert old.version == 2
    np.testing.assert_array_equal(old.mu, [0.2, 0.2, 0.2])
    assert ConceptFingerprint.version == 0


def test_repository_pickled_without_cache_loads():
    g = np.random.default_rng(2)
    repo = Repository(DIM)
    for r in (repo.create(None), repo.create(None)):
        r.fingerprint.incorporate(g.random(DIM))
        r.fingerprint.incorporate(g.random(DIM))
    old = pickle.loads(pickle.dumps(repo))  # pickled before any call
    assert "_wd_cache" not in vars(old)
    _check(old)
