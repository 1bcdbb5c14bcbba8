"""The benchmark's workloads, driven through the program's public entry
points without a Spark session.

- ``ficsum-full`` / ``ficsum-mean``: prequential runs of
  ``runner.make_method(...).process`` over the ``RBF`` and ``Arabic``
  streams, each followed by ``oracle_discrimination_ds``. One stream run
  plus its discrimination is the unit one Spark sweep task runs.
- ``drift-operator``: the per-key function returned by
  ``sparkjobs.streaming.make_drift_fn``, called per key and per
  micro-batch with a real ``GroupState``, as ``applyInPandasWithState``
  calls it.

A *pass* replays a workload's whole input once from fresh models or
state. Every pass of a seed does identical work and must give identical
outputs. Each timed interval covers one operation and is rescaled by the
host-speed factor current when it starts (see ``probe.py``). Probes,
checks and the reference computation run between intervals.
"""
from __future__ import annotations

import math
import pickle
import time
from array import array
from functools import partial

import numpy as np

from repro.core.discrimination import _segments, oracle_discrimination_ds
from repro.metrics import c_f1, kappa
from repro.runner import make_method
from repro.streams.datasets import build_dataset

LENGTH_SCALE = 0.5
PREQUENTIAL_STREAMS = ("RBF", "Arabic")
#: workload -> (method, stream seeds per pass). ficsum-mean is cheap
#: enough to average its cost over more generated streams; its first
#: stream seed is the one ficsum-full runs.
PREQUENTIAL = {"ficsum-full": ("FiCSUM", 1), "ficsum-mean": ("mi:mean", 8)}
#: stream seed j of a run is ``seed + j * SEED_STRIDE``
SEED_STRIDE = 1_000_003

DRIFT_KEYS = ("Synth_D", "Synth_A", "Synth_F", "Synth_DAF")
#: this key's ``seq`` comes from an event counter shared by all keys
STRIDED_KEY = "Synth_DAF"
SEQ_STRIDE = 4
BATCH_ROWS = 30
REDELIVER_SHARE = 0.10
UPSTREAM_ERROR = 0.10
DRIFT_N_FEATURES = 5
#: the monitor's window size (``DriftMonitor`` default)
MONITOR_WINDOW = 50
#: round trips of each final state blob behind ``streaming.state_rt_us``
STATE_RT_REPEATS = 25


def check_probe_windows(ds, window_size: int) -> None:
    """Refuse a stream whose later-occurrence segments are too short for
    the mid-segment probe window of ``oracle_discrimination_ds``: every
    probe would be skipped and discrimination would read exactly 0.0."""
    seen, short = set(), []
    for start, end, c in _segments(ds.concept_ids):
        if c in seen and start + (end - start) // 2 + window_size > end:
            short.append(end - start)
        seen.add(c)
    if short:
        raise ValueError(
            f"{ds.name}: later segments of {min(short)} observations cannot hold "
            f"a {window_size}-observation probe window at their midpoint; "
            "raise the length scale"
        )


def drift_delays(concept_ids: np.ndarray, flags) -> list[int]:
    """Per true boundary, observations until the first drift flag inside
    the new segment; a missed boundary counts the segment's length."""
    flags = sorted(flags)
    out = []
    for start, end, _ in _segments(concept_ids)[1:]:
        hit = next((i for i in flags if start <= i < end), None)
        out.append(end - start if hit is None else hit - start)
    return out


class Clock:
    """Raw timed intervals of one kind of pass, grouped into tasks, and
    their host-speed adjustment once the phase is over. An interval timed
    with ``in_task=False`` counts in the phase but in no task."""

    def __init__(self, host):
        self.host = host
        self.start = array("d")
        self.raw = array("d")
        self.weight = array("l")  # observations an interval carries
        self.task = array("l")
        self._task = -1

    def new_task(self) -> None:
        self._task += 1

    def time(self, fn, *args, weight: int = 1, in_task: bool = True):
        """Call ``fn(*args)`` inside one timed interval; returns (result,
        exception). Probes run after, never inside, it."""
        err = None
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        except Exception as e:  # a raising call is a failed operation
            out, err = None, e
        t1 = time.perf_counter()
        self.host.maybe_sample()
        self.start.append(t0)
        self.raw.append(t1 - t0)
        self.weight.append(weight)
        self.task.append(self._task if in_task else -1)
        return out, err

    def finish(self, passes: int = 1) -> dict:
        """Raw and adjusted seconds of the phase, which ran ``passes``
        identical passes. Per operation and per task: the fastest adjusted
        milliseconds over the passes, which drops host stalls inside an
        operation that probes between operations cannot see; an operation
        counts once for each observation it carries."""
        self.host.sample()  # every interval gets probes on both sides
        raw = np.frombuffer(self.raw)
        adj = raw * self.host.factors(np.frombuffer(self.start))
        task = np.frombuffer(self.task, dtype=np.int64)
        fastest = adj.reshape(passes, -1).min(axis=0)
        weight = np.frombuffer(self.weight, dtype=np.int64)[:fastest.size]
        tasks = np.bincount(task[task >= 0], weights=adj[task >= 0])
        return {
            "raw_s": float(raw.sum()),
            "adjusted_s": float(adj.sum()),
            "op_ms": np.repeat(fastest, weight) * 1e3,
            "task_ms": tasks.reshape(passes, -1).min(axis=0) * 1e3,
        }


# ------------------------------------------------------------- prequential
class Prequential:
    """``ficsum-full`` / ``ficsum-mean``: one operation is one
    ``process(x, y)`` call; a pass is a full run of each stream plus its
    oracle discrimination. A task is one repository period of a stream
    run: ``repo_period`` consecutive calls (the last may be shorter)."""

    #: one pass outlasts a run's --seconds
    min_passes = 1

    def __init__(self, workload: str, seed: int):
        self.method, n_seeds = PREQUENTIAL[workload]
        seeds = [seed + j * SEED_STRIDE for j in range(n_seeds)]
        self.streams = [(build_dataset(n, s, length_scale=LENGTH_SCALE), s)
                        for s in seeds for n in PREQUENTIAL_STREAMS]
        self._models = self._fresh_models()
        for (ds, _), model in zip(self.streams, self._models):
            check_probe_windows(ds, model.cfg.window_size)
        self.obs_per_pass = sum(len(ds) for ds, _ in self.streams)
        self.attempted = 0
        self.failed = 0
        self.first: list[dict] | None = None
        self.deterministic = True
        self.last_models: list = []

    def _fresh_models(self) -> list:
        return [make_method(self.method, ds.n_features, ds.n_classes, s)
                for ds, s in self.streams]

    def run_pass(self, clock: Clock) -> None:
        out = []
        for (ds, _), model in zip(self.streams, self._models):
            out.append(self._run_stream(ds, model, clock))
        self.last_models = self._models
        if self.first is None:
            self.first = out
        elif not all(_same_run(a, b) for a, b in zip(self.first, out)):
            self.deterministic = False
        self._models = self._fresh_models()

    def _run_stream(self, ds, model, clock: Clock) -> dict:
        n = len(ds)
        preds = np.full(n, -1)
        mids = np.full(n, -1)
        drifts = []
        for i in range(n):
            if i % model.cfg.repo_period == 0:
                clock.new_task()
            res, err = clock.time(model.process, ds.X[i], int(ds.y[i]))
            self.attempted += 1
            if err is not None or not (0 <= res.prediction < ds.n_classes) \
                    or res.model_id < 0:
                self.failed += 1
                continue
            preds[i], mids[i] = res.prediction, res.model_id
            if res.drift:
                drifts.append(i)
        disc, err = clock.time(partial(
            oracle_discrimination_ds, ds, source_mode=model.schema.source_mode,
            functions=model.cfg.functions, window_size=model.cfg.window_size),
            weight=0, in_task=False)
        if err is not None:
            raise err
        return {"preds": preds, "mids": mids, "drifts": drifts, "disc": disc}

    def exact_metrics(self) -> dict[str, float]:
        runs = [(ds, r) for (ds, _), r in zip(self.streams, self.first)]
        delays = [d for ds, r in runs for d in drift_delays(ds.concept_ids, r["drifts"])]
        return {
            "kappa": float(np.mean([kappa(ds.y, r["preds"]) for ds, r in runs])),
            "c_f1": float(np.mean([c_f1(ds.concept_ids, r["mids"]) for ds, r in runs])),
            "discrimination": float(np.mean([r["disc"] for _, r in runs])),
            "drift_delay_obs": float(np.mean(delays)),
        }

    def counters(self, host) -> dict[str, float]:
        return {"ficsum.drifts": float(sum(m.n_drifts for m in self.last_models)),
                "ficsum.models": float(sum(len(m.repo) for m in self.last_models))}

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.deterministic


def _same_run(a: dict, b: dict) -> bool:
    return (np.array_equal(a["preds"], b["preds"]) and np.array_equal(a["mids"], b["mids"])
            and a["drifts"] == b["drifts"] and a["disc"] == b["disc"])


# ---------------------------------------------------------- drift operator
class _Key:
    """One stream id of the drift operator: its rows and micro-batches."""

    def __init__(self, k: int, name: str, seed: int, rng: np.random.Generator):
        import pandas as pd

        self.name = name
        self.strided = name == STRIDED_KEY
        self.ds = ds = build_dataset(name, seed, length_scale=LENGTH_SCALE)
        n = len(ds)
        step = SEQ_STRIDE if self.strided else 1
        self.seq = np.arange(n, dtype=np.int64) * step + (k if self.strided else 0)
        self.index = {int(s): i for i, s in enumerate(self.seq)}
        # upstream predictions: the label, wrong for a seeded share of rows
        wrong = rng.random(n) < UPSTREAM_ERROR
        shift = rng.integers(1, ds.n_classes, size=n)
        self.l = l = np.where(wrong, (ds.y + shift) % ds.n_classes, ds.y).astype(np.int64)
        self.batches = [
            pd.DataFrame({
                "stream_id": name,
                "seq": self.seq[a:a + BATCH_ROWS],
                "features": list(ds.X[a:a + BATCH_ROWS]),
                "y": ds.y[a:a + BATCH_ROWS].astype(np.int64),
                "l": l[a:a + BATCH_ROWS],
            })
            for a in range(0, n, BATCH_ROWS)
        ]
        self.reference: dict[int, tuple[float, bool]] = {}
        self._ref_monitor = None

    def reference_rows(self, pdf) -> dict[int, tuple[float, bool]]:
        """Rows of a single DriftMonitor fed this key's rows once, in order."""
        from repro.core.monitor import DriftMonitor

        if self._ref_monitor is None:
            self._ref_monitor = DriftMonitor(DRIFT_N_FEATURES)
        for seq, x, y, l in zip(pdf["seq"], pdf["features"], pdf["y"], pdf["l"]):
            if int(seq) not in self.reference:
                self.reference[int(seq)] = self._ref_monitor.add(list(x), int(y), int(l))
        return self.reference


class DriftOperator:
    """``drift-operator``: one operation is one key's micro-batch handed to
    the stateful function. Batches go round-robin over the keys, and a
    seeded share of them is delivered twice, as an at-least-once source
    re-sends after a restart.

    A batch fails if the operator raises, a first delivery drops a row, or
    it emits a row that was already emitted or that differs from the
    reference monitor. One exception: the strided key's replay guard
    compares ``seq`` with an observation count (ROADMAP item 4), so its
    re-delivered rows are processed again and every later row of the key
    differs from the reference. Those rows are counted in
    ``rows_reprocessed`` and ``batches_diverged`` instead; a mismatch on
    that key before its first reprocessed row is still a failure."""

    #: a batch's latency is its fastest over at least two passes: a host
    #: stall inside one 70 ms call would otherwise set the batch tail
    min_passes = 2

    def __init__(self, seed: int):
        from pyspark.sql.types import BinaryType, StructField, StructType

        from repro.sparkjobs.streaming import make_drift_fn

        self.fn = make_drift_fn(DRIFT_N_FEATURES)
        self.state_schema = StructType([StructField("blob", BinaryType())])
        rng = np.random.default_rng([seed, 104729])
        self.keys = [_Key(k, name, seed, rng) for k, name in enumerate(DRIFT_KEYS)]
        firsts = [(k, b) for b in range(max(len(key.batches) for key in self.keys))
                  for k, key in enumerate(self.keys) if b < len(key.batches)]
        again = set(rng.choice(len(firsts), size=round(REDELIVER_SHARE * len(firsts)),
                               replace=False).tolist())
        self.schedule: list[tuple[int, int, bool]] = []
        for j, (k, b) in enumerate(firsts):
            self.schedule.append((k, b, False))
            if j in again:
                self.schedule.append((k, b, True))
        self.obs_per_pass = sum(len(self.keys[k].batches[b]) for k, b, _ in self.schedule)
        self.attempted = 0
        self.failed = 0
        self.batches_diverged = 0
        self.rows_reprocessed = 0
        self.rows_dropped = 0
        self.passes = 0
        self.first: list | None = None
        self.emitted: list[dict] = []
        self.deterministic = True
        self.blobs: list[bytes | None] = []

    def _state(self, blob: bytes | None):
        """The GroupState Spark hands the function for one key and batch."""
        from pyspark.sql import Row
        from pyspark.sql.streaming.state import GroupState, GroupStateTimeout

        return GroupState(
            Row(blob) if blob is not None else None, 0, GroupState.NO_TIMESTAMP,
            GroupStateTimeout.NoTimeout, False, False,
            blob is not None, False, False, GroupState.NO_TIMESTAMP,
            b"", self.state_schema,
        )

    def call(self, key: _Key, pdf, state) -> list:
        """Hand one key's micro-batch to the operator; its output frames."""
        return list(self.fn((key.name,), iter([pdf]), state))

    def run_pass(self, clock: Clock) -> None:
        blobs: list[bytes | None] = [None] * len(self.keys)
        emitted: list[dict] = [{} for _ in self.keys]
        replayed = [False] * len(self.keys)  # a row of the key was reprocessed
        outputs = []
        for k, b, again in self.schedule:
            key, pdf = self.keys[k], self.keys[k].batches[b]
            state = self._state(blobs[k])
            clock.new_task()
            # a row's output waits for its whole batch
            frames, err = clock.time(self.call, key, pdf, state, weight=len(pdf))
            self.attempted += 1
            ref = key.reference_rows(pdf)
            if err is not None:
                self.failed += 1
                outputs.append(None)
                continue
            option = state.getOption
            if option is not None:
                blobs[k] = option[0]
            rows = [(int(s), float(m), bool(d)) for f in frames
                    for s, m, d in zip(f["seq"], f["similarity"], f["drift"])]
            outputs.append(rows)
            ok, replayed[k] = self._check(key, pdf, rows, again, ref, emitted[k], replayed[k])
            if not ok:
                self.failed += 1
        self.blobs = blobs
        self.passes += 1
        if self.first is None:
            self.first, self.emitted = outputs, emitted
        elif not _same_batches(self.first, outputs):
            self.deterministic = False

    def _check(self, key: _Key, pdf, rows, again: bool, ref: dict, emitted: dict,
               replayed: bool) -> tuple[bool, bool]:
        """(batch passes, key has reprocessed a row). A batch passes if it
        emits no seq twice, every emitted row equals the reference
        monitor's, and a first delivery drops no row; on the strided key a
        reprocessed row, and any mismatch after one, counts as divergence."""
        ok, diverged = True, False
        for seq, sim, drift in rows:
            if seq in emitted:
                self.rows_reprocessed += 1
                replayed = replayed or key.strided
                diverged, ok = True, ok and key.strided
                continue
            emitted[seq] = (sim, drift)
            want = ref.get(seq)
            if want is None or want[1] != drift or not _same_float(want[0], sim):
                diverged, ok = True, ok and replayed
        if not again:
            missing = sum(1 for s in pdf["seq"] if int(s) not in emitted)
            self.rows_dropped += missing
            ok = ok and not missing
        self.batches_diverged += diverged and key.strided
        return ok, replayed

    # ----------------------------------------------------------- metrics
    def exact_metrics(self) -> dict[str, float]:
        """``drift_delay_obs`` per true boundary and ``c_f1`` of the
        segmentation the drift flags induce, from the first pass's output;
        ``discrimination`` of the monitor's fingerprint schema on the keys'
        streams (``oracle_discrimination_ds``); ``kappa`` of the upstream
        predictions the operator is fed, which pins the generated input."""
        from repro.core.meta_features import SEQUENCE_FUNCTIONS

        delays, cf1s, discs, kappas = [], [], [], []
        for key, emitted in zip(self.keys, self.emitted):
            cids = key.ds.concept_ids
            flag = np.zeros(len(cids), dtype=int)
            for seq, (_, d) in emitted.items():
                flag[key.index[seq]] = int(d)
            delays += drift_delays(cids, np.flatnonzero(flag).tolist())
            cf1s.append(c_f1(cids, np.cumsum(flag)))
            discs.append(oracle_discrimination_ds(
                key.ds, functions=tuple(SEQUENCE_FUNCTIONS), window_size=MONITOR_WINDOW))
            kappas.append(kappa(key.ds.y, key.l))
        return {
            "kappa": float(np.mean(kappas)),
            "c_f1": float(np.mean(cf1s)),
            "discrimination": float(np.mean(discs)),
            "drift_delay_obs": float(np.mean(delays)),
        }

    def counters(self, host) -> dict[str, float]:
        """Per-pass counts; ``streaming.state_rt_us`` is the host-speed
        adjusted median of ``STATE_RT_REPEATS`` round trips of each final
        state blob."""
        blobs = [b for b in self.blobs if b is not None]
        clock = Clock(host)
        for _ in range(STATE_RT_REPEATS):
            for b in blobs:
                clock.time(_round_trip, b, in_task=False)
        return {
            "streaming.state_bytes": float(max(len(b) for b in blobs)),
            "streaming.state_rt_us": float(np.median(clock.finish()["op_ms"])) * 1e3,
            "streaming.rows_reprocessed": self.rows_reprocessed / self.passes,
            "streaming.rows_dropped": self.rows_dropped / self.passes,
            "streaming.batches_diverged": self.batches_diverged / self.passes,
            "monitor.drifts": float(sum(pickle.loads(b).n_drifts for b in blobs)),
        }

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.deterministic


def _round_trip(blob: bytes) -> bytes:
    """The state pickle load plus dump the operator makes per batch."""
    return pickle.dumps(pickle.loads(blob))


def _same_float(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


def _same_batches(a: list, b: list) -> bool:
    def same(ra, rb) -> bool:
        if ra is None or rb is None:
            return ra is rb
        return len(ra) == len(rb) and all(
            x[0] == y[0] and x[2] == y[2] and _same_float(x[1], y[1])
            for x, y in zip(ra, rb))

    return len(a) == len(b) and all(same(ra, rb) for ra, rb in zip(a, b))


WORKLOADS = {
    **{name: partial(Prequential, name) for name in PREQUENTIAL},
    "drift-operator": DriftOperator,
}
