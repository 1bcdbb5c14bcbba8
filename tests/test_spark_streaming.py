"""Structured Streaming stateful drift-detection tests.

Exercises the custom stateful operator (applyInPandasWithState) across
multiple micro-batches with checkpointing — the Spark layer 3 of
DESIGN.md.
"""
import os
import time

import numpy as np
import pandas as pd
import pytest

from repro.sparkjobs.streaming import detect_drift_stream
from repro.streams.datasets import build_dataset

SCHEMA = "stream_id string, seq long, features array<double>, y long, l long"


def _obs_pdf(ds, n, stream_id="s0"):
    return pd.DataFrame(
        {
            "stream_id": stream_id,
            "seq": np.arange(n, dtype=np.int64),
            "features": list(ds.X[:n].tolist()),
            "y": ds.y[:n].astype(np.int64),
            "l": ds.y[:n].astype(np.int64),
        }
    )


@pytest.fixture(scope="module")
def drift_result(spark, tmp_path_factory):
    """Run the stateful operator over two micro-batches once; several
    tests assert on the collected output."""
    d = tmp_path_factory.mktemp("stream")
    src = d / "in"
    os.makedirs(src)
    ds = build_dataset("Synth_D", 0, length_scale=0.6)
    n = min(len(ds), 900)
    pdf = _obs_pdf(ds, n)
    pdf[pdf.seq < 450].to_parquet(src / "a.parquet")
    time.sleep(0.05)
    pdf[pdf.seq >= 450].to_parquet(src / "b.parquet")
    stream = (
        spark.readStream.schema(SCHEMA)
        .option("maxFilesPerTrigger", "1")
        .parquet(str(src))
    )
    out = detect_drift_stream(stream, ds.n_features)
    q = (
        out.writeStream.format("memory")
        .queryName("drift_test")
        .option("checkpointLocation", str(d / "ckpt"))
        .trigger(availableNow=True)
        .start()
    )
    q.awaitTermination(300)
    res = spark.sql("select * from drift_test order by seq").toPandas()
    boundaries = [i for i in range(1, n) if ds.concept_ids[i] != ds.concept_ids[i - 1]]
    return res, boundaries, n


def test_emits_one_row_per_observation(drift_result):
    res, _, n = drift_result
    assert len(res) == n
    assert list(res.seq) == list(range(n))


def test_state_survives_micro_batches(drift_result):
    """Similarity is already trained (non-NaN) right after the batch
    boundary at seq 450 — only possible if state crossed batches."""
    res, _, _ = drift_result
    just_after = res[(res.seq >= 450) & (res.seq < 460)].similarity
    assert just_after.notna().any()


def test_detects_drift_after_a_boundary(drift_result):
    res, boundaries, _ = drift_result
    drift_seqs = res[res.drift].seq.tolist()
    assert drift_seqs, "no drift detected at all"
    first = drift_seqs[0]
    assert any(b <= first <= b + 150 for b in boundaries), (
        f"first drift at {first}, boundaries {boundaries}"
    )


def test_no_drift_during_warmup(drift_result):
    res, boundaries, _ = drift_result
    assert not res[res.seq < boundaries[0]].drift.any()


def test_similarity_values_bounded(drift_result):
    res, _, _ = drift_result
    sims = res.similarity.dropna()
    assert len(sims) > 50
    assert sims.between(-1.0 - 1e-9, 1.0 + 1e-9).all()


def test_two_keys_independent_state(spark, tmp_path):
    """Two stream ids in one source get independent monitors."""
    src = tmp_path / "in2"
    os.makedirs(src)
    ds = build_dataset("Synth_D", 1, length_scale=0.3)
    n = min(len(ds), 300)
    a = _obs_pdf(ds, n, "a")
    b = _obs_pdf(ds, n, "b")
    pd.concat([a, b]).to_parquet(src / "x.parquet")
    stream = spark.readStream.schema(SCHEMA).parquet(str(src))
    out = detect_drift_stream(stream, ds.n_features)
    q = (
        out.writeStream.format("memory")
        .queryName("drift_two")
        .option("checkpointLocation", str(tmp_path / "ck2"))
        .trigger(availableNow=True)
        .start()
    )
    q.awaitTermination(300)
    res = spark.sql("select * from drift_two").toPandas()
    assert set(res.stream_id) == {"a", "b"}
    assert (res.groupby("stream_id").size() == n).all()


def _group_state(blob=None):
    """The GroupState Spark hands the operator for one key and batch."""
    from pyspark.sql import Row
    from pyspark.sql.streaming.state import GroupState, GroupStateTimeout
    from pyspark.sql.types import BinaryType, StructField, StructType

    return GroupState(
        Row(blob) if blob is not None else None, 0, GroupState.NO_TIMESTAMP,
        GroupStateTimeout.NoTimeout, False, False,
        blob is not None, False, False, GroupState.NO_TIMESTAMP,
        b"", StructType([StructField("blob", BinaryType())]),
    )


def test_malformed_rows_dropped_not_failing_batch(caplog):
    """A NaN row, a short row and a row with a null label are dropped and
    counted; the rest of the micro-batch is emitted as a clean monitor
    would, and the state is stored (no Spark session: the operator is
    called directly)."""
    import logging
    import pickle

    from repro.core.monitor import DriftMonitor
    from repro.sparkjobs.streaming import make_drift_fn

    ds = build_dataset("Synth_D", 0, length_scale=0.6)
    n = 120
    pdf = _obs_pdf(ds, n)
    feats = [list(f) for f in pdf.features]
    feats[10][0] = float("nan")
    feats[57] = feats[57][:-1]
    pdf["features"] = feats
    pdf["l"] = pdf["l"].astype(float)
    pdf.loc[90, "l"] = np.nan  # how Arrow hands pandas a null long
    bad = {10, 57, 90}

    fn = make_drift_fn(ds.n_features)
    state = _group_state()
    with caplog.at_level(logging.WARNING, logger="repro.sparkjobs.streaming"):
        out = pd.concat(list(fn(("s0",), iter([pdf]), state)))
    assert list(out.seq) == [s for s in range(n) if s not in bad]
    assert "dropped 3 malformed rows" in caplog.text

    ref = DriftMonitor(ds.n_features)
    want = [ref.add(ds.X[s], int(ds.y[s]), int(ds.y[s])) for s in range(n) if s not in bad]
    np.testing.assert_array_equal(out.similarity, [s for s, _ in want])
    assert list(out.drift) == [d for _, d in want]

    assert state.exists
    stored = pickle.loads(state.get[0])
    assert stored.i == n - len(bad) == ref.i
    assert stored.n_drifts == ref.n_drifts


def _feed(fn, batches, blob=None):
    """Call the operator once per micro-batch of one key, carrying the
    stored state across calls as Spark does; returns each call's emitted
    (seq, similarity, drift) rows and the final state blob."""
    out = []
    for pdf in batches:
        state = _group_state(blob)
        frames = list(fn(("s0",), iter([pdf]), state))
        rows = pd.concat(frames) if frames else pd.DataFrame(columns=["seq"])
        out.append(list(zip(rows.seq, rows.get("similarity", []), rows.get("drift", []))))
        blob = state.get[0]
    return out, blob


def _reference(ds, n):
    from repro.core.monitor import DriftMonitor

    ref = DriftMonitor(ds.n_features)
    return [ref.add(ds.X[i], int(ds.y[i]), int(ds.y[i])) for i in range(n)]


def _same_rows(rows, seqs, want):
    assert [s for s, _, _ in rows] == list(seqs)
    np.testing.assert_array_equal([m for _, m, _ in rows], [m for m, _ in want])
    assert [d for _, _, d in rows] == [d for _, d in want]


def test_sparse_sequence_numbers_not_from_zero():
    """Sequence numbers that start far from 0 and leave gaps (an event
    counter shared with other keys) feed every row exactly once."""
    import pickle

    from repro.sparkjobs.streaming import make_drift_fn

    ds = build_dataset("Synth_D", 0, length_scale=0.6)
    n = 240
    pdf = _obs_pdf(ds, n)
    pdf["seq"] = 5000 + 4 * np.arange(n, dtype=np.int64) + 1
    batches = [pdf.iloc[a:a + 30] for a in range(0, n, 30)]
    out, blob = _feed(make_drift_fn(ds.n_features), batches)
    _same_rows([r for rows in out for r in rows], pdf.seq, _reference(ds, n))
    stored = pickle.loads(blob)
    assert stored.i == n and stored.last_seq == int(pdf.seq.iloc[-1])


def test_replayed_batches_emit_nothing_twice():
    """A re-delivered batch, whole or overlapping the last one, emits only
    rows not fed before, and the outputs stay those of one monitor fed
    each row once."""
    import pickle

    from repro.sparkjobs.streaming import make_drift_fn

    ds = build_dataset("Synth_D", 0, length_scale=0.6)
    n = 270
    pdf = _obs_pdf(ds, n)
    pdf["seq"] = 100 + 2 * np.arange(n, dtype=np.int64)
    b = [pdf.iloc[a:a + 30] for a in range(0, n, 30)]
    overlap = pdf.iloc[150:210].sample(frac=1.0, random_state=0)  # b[5] again plus b[6], shuffled
    batches = [b[0], b[1], b[1], b[0], b[2], b[3], b[4], b[5], overlap, b[6], b[7], b[8], b[8]]
    out, blob = _feed(make_drift_fn(ds.n_features), batches)
    assert out[2] == out[3] == out[9] == out[12] == []
    assert [s for s, _, _ in out[8]] == list(b[6].seq)
    _same_rows([r for rows in out for r in rows], pdf.seq, _reference(ds, n))
    assert pickle.loads(blob).i == n


def test_replayed_malformed_row_not_dropped_twice(caplog):
    """A malformed row is handled once: re-delivering its batch neither
    feeds nor counts it again."""
    import logging

    from repro.sparkjobs.streaming import make_drift_fn

    ds = build_dataset("Synth_D", 0, length_scale=0.6)
    pdf = _obs_pdf(ds, 60)
    feats = [list(f) for f in pdf.features]
    feats[40][1] = float("nan")
    pdf["features"] = feats
    batches = [pdf.iloc[:30], pdf.iloc[30:], pdf.iloc[30:]]
    with caplog.at_level(logging.WARNING, logger="repro.sparkjobs.streaming"):
        out, _ = _feed(make_drift_fn(ds.n_features), batches)
    assert [len(rows) for rows in out] == [30, 29, 0]
    assert caplog.text.count("dropped 1 malformed rows") == 1


def test_two_keys_of_different_lengths_interleaved():
    """Two keys share each micro-batch until the shorter one's rows run
    out; each key's rows equal those of its own monitor, and a replay of
    the shorter key's last batch leaves its state blob unchanged."""
    from repro.sparkjobs.streaming import make_drift_fn

    ds = {"a": build_dataset("Synth_D", 0, length_scale=0.6),
          "b": build_dataset("Synth_D", 1, length_scale=0.6)}
    n = {"a": 270, "b": 120}
    pdf = {k: _obs_pdf(ds[k], n[k], stream_id=k) for k in ds}
    batches = [
        pd.concat([pdf[k].iloc[a:a + 30] for k in ("b", "a")]).sample(frac=1.0, random_state=a)
        for a in range(0, n["a"], 30)
    ]
    batches[6] = pd.concat([batches[6], pdf["b"].iloc[90:]])  # b's last batch again
    fn = make_drift_fn(ds["a"].n_features)
    blobs, rows, b_blobs = {}, {"a": [], "b": []}, []
    for batch in batches:
        for (k,), group in batch.groupby(["stream_id"]):  # one call per key, as Spark makes
            state = _group_state(blobs.get(k))
            for frame in fn((k,), iter([group]), state):
                rows[k] += zip(frame.seq, frame.similarity, frame.drift)
            blobs[k] = state.get[0]
            if k == "b":
                b_blobs.append(blobs[k])
    for k in ds:
        _same_rows(rows[k], pdf[k].seq, _reference(ds[k], n[k]))
    assert len(b_blobs) == 5 and b_blobs[4] == b_blobs[3]


def test_stale_state_blob_is_rejected():
    """State saved by a monitor without the replay and reuse fields fails
    the batch with a ValueError naming them, not an AttributeError later."""
    import pickle

    from repro.core.monitor import DriftMonitor
    from repro.sparkjobs.streaming import make_drift_fn

    ds = build_dataset("Synth_D", 0, length_scale=0.6)
    old = DriftMonitor(ds.n_features)
    for i in range(60):
        old.add(ds.X[i], int(ds.y[i]))
    del old.last_seq, old._raw_a
    blob = pickle.dumps(old)
    fn = make_drift_fn(ds.n_features)
    with pytest.raises(ValueError, match="last_seq"):
        list(fn(("s0",), iter([_obs_pdf(ds, 90).iloc[60:]]), _group_state(blob)))


def test_key_rows_split_across_frames_all_fed_in_seq_order():
    """Spark may hand one key's rows in several frames; a later frame
    holding lower seqs still has every row fed once, in seq order."""
    from repro.sparkjobs.streaming import make_drift_fn

    ds = build_dataset("Synth_D", 0, length_scale=0.6)
    n = 120
    pdf = _obs_pdf(ds, n)
    fn = make_drift_fn(ds.n_features)
    out = pd.concat(list(fn(("s0",), iter([pdf.iloc[60:], pdf.iloc[:60]]), _group_state())))
    _same_rows(list(zip(out.seq, out.similarity, out.drift)), range(n), _reference(ds, n))


def test_malformed_row_on_a_tick_and_state_reloaded_between_uneven_batches():
    """Micro-batches of 13, 30 and 47 rows, the state pickled and reloaded
    between them, with malformed rows mid-batch where a periodic step
    would fall: the outputs equal a per-row monitor fed the valid rows,
    and the stored monitor carries no attribute a fresh one lacks."""
    import pickle

    from repro.core.monitor import DriftMonitor
    from repro.sparkjobs.streaming import make_drift_fn

    ds = build_dataset("Synth_D", 0, length_scale=0.6)
    n = 810
    pdf = _obs_pdf(ds, n)
    feats = [list(f) for f in pdf.features]
    # rows 62 and 156 would complete observations 63 and 156, both periodic
    bad = (62, 156)
    for r in bad:
        feats[r][2] = float("inf")
    pdf["features"] = feats
    sizes = [13, 30, 47] * 9
    edges = np.cumsum([0] + sizes)
    assert edges[-1] == n and not {r for r in bad} & {*edges, *(edges - 1)}  # mid-batch
    batches = [pdf.iloc[a:b] for a, b in zip(edges, edges[1:])]
    out, blob = _feed(make_drift_fn(ds.n_features), batches)
    assert [len(rows) for rows in out] == [s - sum(a <= r < a + s for r in bad)
                                           for a, s in zip(edges, sizes)]

    ref = DriftMonitor(ds.n_features)
    good = [s for s in range(n) if s not in bad]
    want = [ref.add(ds.X[s], int(ds.y[s]), int(ds.y[s])) for s in good]
    _same_rows([r for rows in out for r in rows], good, want)
    stored = pickle.loads(blob)
    assert stored.i == ref.i == n - len(bad) and stored.n_drifts == ref.n_drifts > 0
    assert stored.__dict__.keys() == DriftMonitor(ds.n_features).__dict__.keys()
