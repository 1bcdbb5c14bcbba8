"""Structured Streaming drift detection (DESIGN.md Spark layer 3).

A stateful operator keyed by stream id carries a pickled
:class:`repro.core.monitor.DriftMonitor` across micro-batches, feeds
each batch's observations in sequence order, and emits
(stream_id, seq, similarity, drift) rows — the Structured Streaming
expression of Algorithm 1's detection path ("fingerprints per window +
custom stateful operator" per the repro brief).

Implementation note: Spark 4.1's ``transformWithStateInPandas`` is the
newer stateful API, but its state-server protocol requires a protobuf
runtime (>= 6.33) that cannot be installed in this offline environment
(`ImportError: google.protobuf`), so the operator is built on the
Arrow-based ``applyInPandasWithState`` instead — same stateful
semantics (per-key state persisted across micro-batches), no protobuf
dependency.

Feature columns are packed into a single array column upstream so the
operator's input schema is independent of d.
"""
from __future__ import annotations

import logging
import pickle
from typing import Iterator

import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql.streaming.state import GroupState, GroupStateTimeout

OUTPUT_SCHEMA = "stream_id string, seq long, similarity double, drift boolean"
STATE_SCHEMA = "blob binary"

log = logging.getLogger(__name__)


def make_drift_fn(n_features: int):
    """Build the per-key stateful function for ``applyInPandasWithState``.

    The returned closure deserializes the per-key DriftMonitor, feeds
    the batch's rows in ``seq`` order, and stores the updated monitor
    back. Sequence numbers need only increase: they may start anywhere
    and have gaps. A row whose ``seq`` is not above the last one the
    operator handled (``DriftMonitor.last_seq``) is a re-delivery and is
    skipped, so a replayed batch emits nothing twice. A row the monitor
    rejects (wrong feature count, NaN or inf) or with a null label is
    dropped without touching the monitor's windows, and the batch's drop
    count is logged. A state blob saved by an older ``DriftMonitor`` fails the
    batch with ``ValueError`` when it is loaded.
    """

    def fn(
        key: tuple, pdfs: Iterator[pd.DataFrame], state: GroupState
    ) -> Iterator[pd.DataFrame]:
        from repro.core.monitor import DriftMonitor

        if state.exists:
            monitor = pickle.loads(state.get[0])
        else:
            monitor = DriftMonitor(n_features)
        out_rows = []
        rejected = 0
        for pdf in pdfs:
            pdf = pdf.sort_values("seq")
            for seq, x, y, l in zip(pdf["seq"], pdf["features"], pdf["y"], pdf["l"]):
                seq = int(seq)
                if monitor.last_seq is not None and seq <= monitor.last_seq:
                    continue  # already handled: a re-delivered row
                monitor.last_seq = seq
                try:
                    # a null label arrives as NaN; add checks x before any state changes
                    sim, drift = monitor.add(x, int(y), int(l))
                except ValueError:
                    rejected += 1
                    continue
                out_rows.append((key[0], seq, sim, drift))
        if rejected:
            log.warning("stream %s: dropped %d malformed rows in this batch",
                        key[0], rejected)
        state.update((pickle.dumps(monitor),))
        if out_rows:
            yield pd.DataFrame(
                out_rows, columns=["stream_id", "seq", "similarity", "drift"]
            )

    return fn


def detect_drift_stream(obs_stream: DataFrame, n_features: int) -> DataFrame:
    """Wire the stateful drift operator onto a streaming DataFrame with
    columns (stream_id string, seq long, features array<double>, y long,
    l long)."""
    return obs_stream.groupBy("stream_id").applyInPandasWithState(
        make_drift_fn(n_features),
        outputStructType=OUTPUT_SCHEMA,
        stateStructType=STATE_SCHEMA,
        outputMode="append",
        timeoutConf=GroupStateTimeout.NoTimeout,
    )
