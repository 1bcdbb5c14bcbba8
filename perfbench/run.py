"""FiCSUM benchmark: one single-threaded process, no Spark session.

Run from the repository root::

    python3 perfbench/run.py --workload ficsum-full --seed 1 --seconds 20 --trace 0

Workloads are ``ficsum-full``, ``ficsum-mean`` and ``drift-operator``
(see ``workloads.py`` and ``reference.json``). The run sets up the
workload, then replays whole passes of it, at least the workload's
``min_passes`` and otherwise ending as close to ``--seconds`` as whole
passes allow, and prints one JSON object as the last line of standard
output: ``{"correct", "attempted", "failed", "metrics"}``. With
``--trace 0`` the metrics are the end-to-end metrics; with ``--trace 1``
each pass is followed by one with the layer wrappers of ``tracing.py``
installed, and the metrics are the per-layer ones. Every timing is
rescaled to the host speed recorded in ``reference.json`` (see
``probe.py``). A fuller record (environment, raw timings) is written to
``.bench_out/``.
"""
from __future__ import annotations

import os
import sys
import time

T_START = time.perf_counter()
# single-threaded BLAS, set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: extra set-ups in child processes; set-up time is the median over them
#: and this process's own
SETUP_CHILDREN = 2


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _versions() -> dict:
    out = {"python": platform.python_version(), "nproc": os.cpu_count()}
    for pkg in ("numpy", "pandas", "pyspark"):
        try:
            out[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            out[pkg] = None
    return out


def _spark_active() -> bool:
    """A SparkContext can only exist if pyspark was imported."""
    if "pyspark" not in sys.modules:
        return False
    from pyspark import SparkContext

    return SparkContext._active_spark_context is not None


def _setup_children(args) -> list[tuple[float, float]]:
    """(raw set-up seconds, probe ms) of fresh processes doing the set-up."""
    out = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"]
    for _ in range(SETUP_CHILDREN):
        res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=120, check=True)
        rec = json.loads(res.stdout.strip().splitlines()[-1])
        out.append((rec["setup_s"], rec["probe_ms"]))
    return out


def _layer_metrics(tracer, traced: dict, passes: int, setup_raw: float,
                   probe_ms: float, probe_ref_ms: float) -> dict:
    """``L.calls``, ``L.self_share`` and ``L.us_p50`` for every layer."""
    from probe import adjust_time
    from tracing import LAYERS

    out = {}
    for name in LAYERS:
        calls, self_s, p50 = tracer.summary(name)
        in_setup = name == "datasets.build"
        out[f"{name}.calls"] = calls / (1 if in_setup else passes)
        out[f"{name}.self_share"] = self_s / (setup_raw if in_setup else traced["raw_s"])
        out[f"{name}.us_p50"] = adjust_time(p50, probe_ms, probe_ref_ms) * 1e6
    for name in ("ficsum.process", "monitor.add"):
        out[f"{name}.us_p99"] = adjust_time(
            tracer.percentile(name, 99), probe_ms, probe_ref_ms) * 1e6
    return out


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reference = json.loads((HERE / "reference.json").read_text())
    probe_ref_ms = float(reference["probe_ref_ms"])

    import numpy as np

    from probe import HostSpeed, adjust_time
    from tracing import Tracer
    from workloads import WORKLOADS, Clock

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    tracer = Tracer() if args.trace else None
    if tracer:
        with tracer.installed():  # datasets.build is traced during set-up
            workload = WORKLOADS[args.workload](args.seed % 2**32)
    else:
        workload = WORKLOADS[args.workload](args.seed % 2**32)
    host = HostSpeed(probe_ref_ms)
    setup_raw = time.perf_counter() - T_START
    setup_probe_ms = host.probe_ms
    if args.setup_only:
        print(json.dumps({"setup_s": setup_raw, "probe_ms": setup_probe_ms}))
        return 0

    plain, traced = Clock(host), Clock(host)
    passes = 0
    t_begin = time.perf_counter()
    while True:  # whole passes, ending as close to --seconds as they allow
        t_pass = time.perf_counter()
        workload.run_pass(plain)
        if tracer:
            with tracer.installed():
                workload.run_pass(traced)
        passes += 1
        now = time.perf_counter()
        if (passes >= workload.min_passes
                and now - t_begin + (now - t_pass) / 2 >= args.seconds):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    plain = plain.finish(passes)
    exact = workload.exact_metrics()
    counters = workload.counters(host)
    spark_left = _spark_active()
    correct = (workload.correct and not spark_left
               and all(np.isfinite(v) for v in exact.values()))
    probe_ms = statistics.median(host.samples)
    raw_obs_per_s = workload.obs_per_pass * passes / plain["raw_s"]
    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "probe_ref_ms": probe_ref_ms, **_versions(), "passes": passes,
              "spark_context_active": spark_left, "host.probe_ms": probe_ms,
              "host.raw_obs_per_s": raw_obs_per_s, "exact": exact, "counters": counters}

    if tracer:
        traced = traced.finish(passes)
        metrics = _layer_metrics(tracer, traced, passes, setup_raw, probe_ms, probe_ref_ms)
        metrics.update({name: counters.get(name, 0.0) for name in (
            "streaming.state_bytes", "streaming.state_rt_us", "streaming.rows_reprocessed",
            "streaming.rows_dropped", "streaming.batches_diverged", "ficsum.drifts",
            "ficsum.models", "monitor.drifts")})
        metrics.update(exact)
        metrics["host.probe_ms"] = probe_ms
        metrics["host.raw_obs_per_s"] = raw_obs_per_s
        metrics["trace.overhead_pct"] = (traced["adjusted_s"] / plain["adjusted_s"] - 1) * 100
    else:
        setups = [adjust_time(setup_raw, setup_probe_ms, probe_ref_ms)]
        setups += [adjust_time(s, p, probe_ref_ms) for s, p in _setup_children(args)]
        op_ms, task_ms = plain["op_ms"], plain["task_ms"]
        metrics = {
            "setup_s": statistics.median(setups),
            "obs_per_s": workload.obs_per_pass * passes / plain["adjusted_s"],
            "obs_ms_p50": float(np.percentile(op_ms, 50)),
            "obs_ms_p98": float(np.percentile(op_ms, 98)),
            "batch_ms_p50": float(np.percentile(task_ms, 50)),
            "batch_ms_p95": float(np.percentile(task_ms, 95)),
            "peak_rss_mb": peak_rss_mb,
        }
        result["setup_s_samples"] = setups
        result["batches_above_p95"] = int(np.sum(task_ms > metrics["batch_ms_p95"]))

    result.update(correct=correct, attempted=workload.attempted,
                  failed=workload.failed, metrics=metrics)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    (out_dir / f"result-{stem}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1))
    if tracer:
        tracer.write(out_dir / f"spans-{stem}.npz")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(json.dumps({
        "correct": bool(correct), "attempted": workload.attempted, "failed": workload.failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
