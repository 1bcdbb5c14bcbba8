"""Unit tests for stream generators and benchmark dataset builders."""
import hashlib

import numpy as np
import pytest

from repro.streams import datasets as D
from repro.streams.generators import (
    Channel,
    HyperplaneLabeler,
    RBFLabeler,
    RandomTreeLabeler,
    StaggerLabeler,
    generate_segment,
)
from tests import reference as ref


class TestLabelers:
    @pytest.mark.parametrize(
        "variant,u,expected",
        [
            (0, np.array([0.1, 0.1, 0.5]), 1),   # small & red
            (0, np.array([0.9, 0.1, 0.5]), 0),   # not small
            (1, np.array([0.5, 0.5, 0.1]), 1),   # green
            (1, np.array([0.1, 0.1, 0.9]), 0),   # neither green nor circle
            (2, np.array([0.5, 0.9, 0.9]), 1),   # medium
            (2, np.array([0.1, 0.9, 0.9]), 0),   # small
        ],
    )
    def test_stagger_truth_table(self, variant, u, expected):
        assert ref.label(StaggerLabeler(variant), u) == expected

    def test_rbf_concepts_differ_only_in_labels(self):
        a = RBFLabeler(5, 3, base_seed=1, concept_seed=10)
        b = RBFLabeler(5, 3, base_seed=1, concept_seed=20)
        np.testing.assert_array_equal(a.centroids, b.centroids)
        assert not np.array_equal(a.classes, b.classes)

    def test_rbf_covers_all_classes(self):
        lab = RBFLabeler(4, 3, base_seed=0, concept_seed=0)
        assert set(lab.classes) == {0, 1, 2}

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_random_tree_labels_in_range(self, k):
        lab = RandomTreeLabeler(6, k, seed=3)
        g = np.random.default_rng(0)
        labels = {ref.label(lab, g.random(6)) for _ in range(300)}
        assert labels <= set(range(k))
        assert len(labels) >= 2

    def test_random_tree_deterministic(self):
        a = RandomTreeLabeler(4, 2, seed=7)
        b = RandomTreeLabeler(4, 2, seed=7)
        u = np.random.default_rng(1).random(4)
        assert ref.label(a, u) == ref.label(b, u)

    def test_random_tree_depth_covers_classes(self):
        lab = RandomTreeLabeler(4, 7, seed=1)  # needs depth >= 3
        assert len(lab.leaves) >= 7
        assert set(lab.leaves) >= set(range(7))

    def test_hyperplane_splits_space(self):
        lab = HyperplaneLabeler(5, seed=2)
        g = np.random.default_rng(0)
        labels = [ref.label(lab, g.random(5)) for _ in range(500)]
        assert 0.15 < np.mean(labels) < 0.85


def _assert_labels_match(lab, U):
    y = lab.labels(U)
    assert y.dtype == np.int64 and y.shape == (len(U),)
    np.testing.assert_array_equal(y, [ref.label(lab, u) for u in U])
    return y


class TestBlockLabels:
    """Each labeler's ``labels(U)`` equals the per-row reference."""

    @pytest.mark.parametrize("variant", [0, 1, 2])
    def test_stagger(self, variant):
        # u·3 integral (0, 1/3, 2/3, 1) and the floats just below
        edges = np.array([0.0, 1 / 3, 2 / 3, 1.0])
        assert np.array_equal(edges * 3, np.arange(4.0))
        values = np.concatenate([edges, np.nextafter(edges[1:], 0.0)])
        grid = np.stack(np.meshgrid(values, values, values), -1).reshape(-1, 3)
        U = np.vstack([grid, np.random.default_rng(variant).random((300, 3))])
        y = _assert_labels_match(StaggerLabeler(variant), U)
        assert set(y) == {0, 1}

    @pytest.mark.parametrize("d", [2, 5, 10])
    @pytest.mark.parametrize("k", [2, 3, 4, 5, 7])
    def test_rbf(self, d, k):
        lab = RBFLabeler(d, k, base_seed=d, concept_seed=k)
        g = np.random.default_rng(d * 10 + k)
        c = lab.centroids
        i, j = np.triu_indices(len(c), 1)
        U = np.vstack([g.random((400, d)), (c[i] + c[j]) / 2])  # midpoints
        _assert_labels_match(lab, U)

    def test_rbf_exact_tie_takes_first_centroid(self):
        lab = RBFLabeler(4, 3, base_seed=0, concept_seed=0)
        b = np.flatnonzero(lab.classes != lab.classes[0])[-1]
        lab.centroids[:] = 0.0
        lab.centroids[0] = 0.25
        lab.centroids[b] = 0.75
        U = np.full((3, 4), 0.5)  # distance 0.5 from both, exactly
        y = _assert_labels_match(lab, U)
        np.testing.assert_array_equal(y, lab.classes[0])

    @pytest.mark.parametrize("d", [2, 6, 10])
    @pytest.mark.parametrize("k", [2, 3, 4, 5, 7])
    def test_random_tree(self, d, k):
        lab = RandomTreeLabeler(d, k, seed=d * 10 + k)
        g = np.random.default_rng(k)
        U = [g.random((300, d))]
        for f, thr in zip(lab.feats, lab.thrs):
            for v in (thr, np.nextafter(thr, 1.0), np.nextafter(thr, 0.0)):
                rows = g.random((20, d))
                rows[:, f] = v  # on, just above and just below a split
                U.append(rows)
        _assert_labels_match(lab, np.vstack(U))

    @pytest.mark.parametrize("d", [2, 5, 10, 11])
    @pytest.mark.parametrize("seed", [0, 3])
    def test_hyperplane(self, d, seed):
        lab = HyperplaneLabeler(d, seed=seed)
        g = np.random.default_rng(seed)
        w = lab.w
        R = g.random((200, d)) - 0.5
        on_plane = 0.5 + R - np.outer(R @ w / (w @ w), w)  # w·u ≈ w·0.5
        U = np.vstack([g.random((300, d)), on_plane, np.full((1, d), 0.5)])
        _assert_labels_match(lab, U)


class TestSegmentArrayPasses:
    _LABELERS = (StaggerLabeler, RBFLabeler, RandomTreeLabeler, HyperplaneLabeler)

    def test_no_per_row_label_method(self):
        for cls in self._LABELERS:
            assert not hasattr(cls, "label")

    def _count_labels(self, monkeypatch) -> list:
        calls = []
        for cls in self._LABELERS:
            def counted(lab, U, _orig=cls.labels):
                calls.append(len(U))
                return _orig(lab, U)
            monkeypatch.setattr(cls, "labels", counted)
        return calls

    def test_generate_segment_labels_once(self, monkeypatch):
        calls = self._count_labels(monkeypatch)
        lab = RandomTreeLabeler(3, 2, 0)
        generate_segment(lab, Channel(n_features=3), 75, np.random.default_rng(0))
        assert calls == [75]

    @pytest.mark.parametrize("name", ["STAGGER", "RBF", "RTREE", "HPLANE-U", "Synth_A"])
    def test_build_dataset_labels_once_per_segment(self, monkeypatch, name):
        calls = self._count_labels(monkeypatch)
        ds = D.build_dataset(name, 1, length_scale=0.2)
        spec = D.SPECS[name]
        seg = max(40, int(spec.seg_len * 0.2))
        assert calls == [seg] * (spec.n_concepts * spec.reps)
        assert sum(calls) == len(ds)

    @pytest.mark.parametrize("rho", [
        [0.9, 0.0, 0.5, 0.0, -0.3],   # mixed
        [0.0, 0.0, -0.0, 0.0, 0.0],   # no recursion at all
        [0.2, 0.95, 0.5, 0.7, 0.1],   # every feature recurs
    ])
    @pytest.mark.parametrize("make", [
        lambda: StaggerLabeler(1),
        lambda: RBFLabeler(5, 3, base_seed=2, concept_seed=4),
        lambda: RandomTreeLabeler(5, 3, seed=5),
        lambda: HyperplaneLabeler(5, seed=6),
    ])
    def test_segment_matches_reference_loop(self, rho, make):
        lab = make()
        base = Channel.random(5, seed=9, distribution=True, frequency=True)
        ch = Channel(n_features=5, shift=base.shift, scale=base.scale, skew=base.skew,
                     rho=np.array(rho), amp=base.amp, freq=base.freq, phase=base.phase)
        got_rng, ref_rng = np.random.default_rng(11), np.random.default_rng(11)
        z_got = z_ref = None
        t0 = 0
        for n in (60, 45, 1):  # continuations from z0
            X, y, z_got = generate_segment(lab, ch, n, got_rng, t0=t0, z0=z_got)
            Xr, yr, z_ref = ref.generate_segment(lab, ch, n, ref_rng, t0=t0, z0=z_ref)
            assert X.dtype == Xr.dtype and y.dtype == yr.dtype == np.int64
            assert np.array_equal(X, Xr) and np.array_equal(y, yr)
            assert np.array_equal(z_got, z_ref)
            t0 += n
        assert got_rng.random() == ref_rng.random()  # same draws, same order


class TestChannel:
    def test_identity_channel_preserves_latent(self):
        ch = Channel(n_features=3)
        rng = np.random.default_rng(0)
        X, y, _ = generate_segment(RandomTreeLabeler(3, 2, 0), ch, 500, rng)
        assert abs(X.mean()) < 0.2 and abs(X.std() - 1.0) < 0.2

    def test_distribution_axis_shifts_observed_features(self):
        rng = np.random.default_rng(0)
        lab = RandomTreeLabeler(3, 2, 0)
        base, _, _ = generate_segment(lab, Channel(n_features=3), 800, rng)
        ch = Channel.random(3, seed=5, distribution=True)
        mod, _, _ = generate_segment(lab, ch, 800, np.random.default_rng(0))
        assert np.abs(base.mean(0) - mod.mean(0)).max() > 0.3

    def test_autocorrelation_axis_induces_acf(self):
        rng = np.random.default_rng(0)
        lab = RandomTreeLabeler(2, 2, 0)
        ch = Channel(n_features=2, rho=np.array([0.95, 0.0]))
        X, _, _ = generate_segment(lab, ch, 2000, rng)

        def acf1(v):
            v = v - v.mean()
            return np.dot(v[:-1], v[1:]) / np.dot(v, v)

        assert acf1(X[:, 0]) > 0.7
        assert abs(acf1(X[:, 1])) < 0.15

    def test_frequency_axis_adds_sine_power(self):
        rng = np.random.default_rng(0)
        lab = RandomTreeLabeler(2, 2, 0)
        ch = Channel(n_features=2, amp=np.array([2.0, 0.0]), freq=np.array([0.05, 0.0]))
        X, _, _ = generate_segment(lab, ch, 1000, rng)
        # dominant FFT bin of feature 0 at the injected frequency
        spec = np.abs(np.fft.rfft(X[:, 0] - X[:, 0].mean()))
        peak = np.argmax(spec[1:]) + 1
        assert abs(peak / 1000 - 0.05) < 0.01

    def test_segment_continuity_of_ar_state(self):
        lab = RandomTreeLabeler(2, 2, 0)
        ch = Channel(n_features=2, rho=np.array([0.9, 0.9]))
        rng = np.random.default_rng(1)
        _, _, z1 = generate_segment(lab, ch, 100, rng)
        X2, _, _ = generate_segment(lab, ch, 5, rng, z0=z1)
        assert np.all(np.isfinite(X2))

    def test_channel_random_axes_off_means_identity(self):
        ch = Channel.random(3, seed=1)
        np.testing.assert_array_equal(ch.shift, np.zeros(3))
        np.testing.assert_array_equal(ch.rho, np.zeros(3))
        np.testing.assert_array_equal(ch.amp, np.zeros(3))


class TestDatasets:
    @pytest.mark.parametrize("name", D.DATASET_NAMES)
    def test_build_all_datasets(self, name):
        ds = D.build_dataset(name, 0, length_scale=0.25)
        spec = D.SPECS[name]
        assert len(ds) == len(ds.y) == len(ds.concept_ids)
        assert ds.n_features == spec.n_features + spec.redundant_features
        assert set(np.unique(ds.concept_ids)) == set(range(spec.n_concepts))
        assert np.all(ds.y >= 0) and np.all(ds.y < spec.n_classes)
        assert np.all(np.isfinite(ds.X))

    def test_deterministic_in_seed(self):
        a = D.build_dataset("RTREE", 3, length_scale=0.2)
        b = D.build_dataset("RTREE", 3, length_scale=0.2)
        np.testing.assert_array_equal(a.X, b.X)
        np.testing.assert_array_equal(a.y, b.y)

    def test_different_seeds_differ(self):
        a = D.build_dataset("RTREE", 1, length_scale=0.2)
        b = D.build_dataset("RTREE", 2, length_scale=0.2)
        assert not np.array_equal(a.X, b.X)

    def test_each_concept_recurs(self):
        ds = D.build_dataset("STAGGER", 0, length_scale=0.2)
        segs, start = [], 0
        cids = ds.concept_ids
        for i in range(1, len(cids) + 1):
            if i == len(cids) or cids[i] != cids[start]:
                segs.append(int(cids[start])); start = i
        for c in range(D.SPECS["STAGGER"].n_concepts):
            assert segs.count(c) == D.SPECS["STAGGER"].reps

    def test_occurrence_order_avoids_self_repeat(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            order = D._occurrence_order(4, 3, rng)
            assert all(a != b for a, b in zip(order, order[1:]))

    def test_qg_has_redundant_features(self):
        ds = D.build_dataset("QG", 0, length_scale=0.2)
        assert ds.n_features == 16
        # redundant copies correlate strongly with an original feature
        corr = np.corrcoef(ds.X.T)
        assert (np.abs(corr[8:, :8]).max(axis=1) > 0.9).all()

    def test_characteristics_rows(self):
        rows = D.dataset_characteristics()
        assert len(rows) == 11
        for r in rows:
            assert r["our_contexts"] == r["paper_contexts"]
            # scaled down, except tiny CMC which rounds up marginally
            assert r["our_length"] <= r["paper_length"] * 1.1

    def test_synth_datasets_share_labeler_across_concepts(self):
        """Synth_* drift only in p(X): labeler identical across concepts."""
        spec = D.SPECS["Synth_D"]
        assert not spec.label_drift
        la = D._make_labeler(spec, 0, seed=0)
        lb = D._make_labeler(spec, 1, seed=0)
        u = np.random.default_rng(0).random(spec.n_features)
        assert ref.label(la, u) == ref.label(lb, u)


#: sha256 over ``build_dataset(name, seed, length_scale=scale)`` for seeds
#: (0, 1, 7) and scales (0.2, 0.5, 1.0), in that order: for each of X, y
#: and ``concept_ids``, its dtype string and shape, then its raw bytes.
#: Recorded with numpy 1.26 on x86-64; a change to how the streams are
#: generated must leave every digest as it is.
STREAM_SHA = {
    "AQSex": "b56337f9274610184231f56d47618d7711adf83aa5d3dd8d42e2f27f1beafa9c",
    "AQTemp": "a2e6bf38b716ea9d9b692ee59eb64b5e95fae7addccf23bec28d57fe23249f8f",
    "STAGGER": "48e3eea9b9aae9d00188446c95d8b5c9f7ed4619e35dfd9dc14236cfd73c1d58",
    "RBF": "ac0073173a00a9fdc38f8c18083ad4af51b938ffbb5290044eb74318b540c0a2",
    "RTREE": "351cc8024e1d3c579f1e8bf5f3249915eb45690c6b2a2313e73bb47089e09758",
    "Arabic": "d8c50dcb4481b299f6827fd9ef1777ef0cff6d4976353859c2809202647d311e",
    "CMC": "dcb45e28042e388fc0c6b3cdf0900d7338a5c236189e6fe5fca9717fd61dee45",
    "QG": "197211954252e28d7bfb1ba4dc00add9fb9939f0b8501bec97b8ef9d64ca462a",
    "UCI-Wine": "ca687735d74b884a67a3e2ccd6c8d9e28b322d38d378916001244a2aaacab115",
    "HPLANE-U": "98ac730e284b770aa445948abcc718e188a2614674383783be3b9de17f3dffc5",
    "RTREE-U": "acc4b157cd1936b0a224c0c168279f5c0cb36131fb3fbe0198eff72a3cbec744",
    "Synth_D": "9a5bd0159d93e23587a908f52b149fd60e4323ec883d820c41bdad8d2d999f9a",
    "Synth_A": "fa3d48fa2aa66dc641d1556f27f2a2c6fbb9bdbda94248de3584d2fa17f4598d",
    "Synth_F": "c96e3b0f8bae3de44b1da772b1155878251937912649042be59ec68a9330e873",
    "Synth_DA": "dddafc9520b4b3a0da2542a7c47ea254bf9ca2e754974f233dd9e8d3b4689335",
    "Synth_DF": "c6dc724e0e45ad5b3d2ddc8fb3eda1e9b0933a4e0822be64a65f416aef227c1a",
    "Synth_AF": "e377dcbad93cab7d12681ae96f98ee65f3b0c389acb9a1e9639e93e388a5b07b",
    "Synth_DAF": "3ee405364298b6c3e08e4c883e6c406f92006498eca4be17f16c159d5fa051d4",
}


def test_stream_digests_cover_every_dataset():
    assert list(STREAM_SHA) == D.DATASET_NAMES


@pytest.mark.parametrize("name", D.DATASET_NAMES)
def test_stream_digest(name):
    h = hashlib.sha256()
    for seed in (0, 1, 7):
        for scale in (0.2, 0.5, 1.0):
            ds = D.build_dataset(name, seed, length_scale=scale)
            assert ds.X.dtype == np.float64
            assert ds.y.dtype == ds.concept_ids.dtype == np.int64
            for a in (ds.X, ds.y, ds.concept_ids):
                h.update(f"{a.dtype.str}{a.shape}".encode())
                h.update(np.ascontiguousarray(a).tobytes())
    assert h.hexdigest() == STREAM_SHA[name]
