"""Benchmark of bosonbunch, run from the root of a checkout:

    python3 perfbench/run.py --workload sample-dense --seed 1 --seconds 30 --trace 0

Builds the workload's inputs from the seed, runs them once, keeps a
stratified subset and runs passes over it for the given seconds, checks
every op and prints one JSON result as the last line of stdout.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` traces every
other op and reports the per-layer metrics, taking the ones this workload
does not exercise from a few traced ops of a workload that does. The line
before the result holds the environment, the cost-model counts and the tail
percentile. Spans go to .perfbench_out/.
"""

from __future__ import annotations

import os

BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# one BLAS thread: the matrices are at most 24 x 24, and on a small shared
# machine extra threads add jitter, not speed
for _var in BLAS_VARS:
    os.environ.setdefault(_var, "1")

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 3


def parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def calibration_ms() -> float:
    """Median time of a fixed numpy and interpreter loop; shows machine
    drift between runs and is never used to rescale a metric."""
    import numpy as np

    def loop():
        a = np.random.default_rng(0).standard_normal((48, 48)) + 0j
        t0 = time.perf_counter()
        for _ in range(100):
            a = a @ a
            a /= np.abs(a).max()
        s = 0
        for k in range(50_000):
            s += k * k
        return time.perf_counter() - t0

    return 1e3 * statistics.median(loop() for _ in range(3))


def environment() -> dict:
    import numpy
    import scipy

    import bosonbunch

    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = done.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "bosonbunch").glob("*.py")):
        src.update(path.read_bytes())
    return {
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "bosonbunch": bosonbunch.__version__,
        "cpu_count": os.cpu_count(),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
    }


def setup_seconds(name: str, seed: int) -> list[float]:
    """Wall time of fresh interpreters that import bosonbunch and build the
    workload's inputs."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(HERE / "child.py"), "setup", name, str(seed),
                        str(WORKDIR / "setup")], check=True, cwd=ROOT, timeout=120)
        times.append(time.perf_counter() - t0)
    return times


@dataclass
class Op:
    i: int
    traced: bool
    times: list[float] = field(default_factory=list)  # seconds, one per pass
    result: object = None  # of the first pass; None when it raised
    differed: int = 0  # later passes whose result was not the first one's

    @property
    def latency(self) -> float:
        """The 90th percentile of the passes. On a shared machine some passes
        find a core to themselves and run up to twice as fast as the rest.
        Their share changes from run to run, from none to most passes, which
        moves the median and the fastest pass between runs far more than a
        high percentile."""
        if len(self.times) == 1:
            return self.times[0]
        return statistics.quantiles(self.times, n=10, method="inclusive")[8]


def once(w, op: Op, arg, tracer) -> tuple[float, object]:
    t0 = time.perf_counter()
    try:
        if op.traced:
            with tracer.span("op", op.i):
                return w.op(arg, op.i, tracer)
        return w.op(arg, op.i, None)
    except Exception:  # a raising op is a failed op
        return time.perf_counter() - t0, None


def run_ops(w, seconds: float, tracer, count: int, pool: int):
    """Runs ``pool`` inputs once, keeps ``count`` of them spread evenly over
    the order of their op units, and runs passes over the kept ones until
    the time is up. With a tracer every even op is traced. A repeat must
    return what the first run did. Returns all ops, the kept ones and the
    elapsed time."""
    from workloads import spread_evenly

    args = [w.input(i) for i in range(pool)]
    ops = [Op(i, traced=tracer is not None and i % 2 == 0) for i in range(pool)]
    start = time.perf_counter()
    for op, arg in zip(ops, args):
        latency, op.result = once(w, op, arg, tracer)
        op.times.append(latency)
    units = [w.op_units(op.result) if op.result is not None else 0 for op in ops]
    kept = [ops[j] for j in spread_evenly(units, count)]
    while time.perf_counter() - start < seconds:
        for op in kept:
            if time.perf_counter() - start >= seconds:
                break
            latency, result = once(w, op, args[op.i], tracer)
            op.times.append(latency)
            op.differed += result is None or op.result is None or not w.same(op.result, result)
    return ops, kept, time.perf_counter() - start


def checked(w, ops) -> list[int]:
    """Failed passes of each op: all of them when the first result fails its
    check, else those that returned something else."""
    def passes(op):
        try:
            return bool(w.check(op.i, op.result, op.traced))
        except Exception:  # a check that cannot read the result fails the op
            return False

    return [op.differed if op.result is not None and passes(op) else len(op.times)
            for op in ops]


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten ops beyond it, and its value."""
    xs = sorted(latencies)
    k = max(len(xs) - 11, 0)
    return 100.0 * (k + 1) / len(xs), xs[k]


def end_to_end(ops, setup, rss_mb, failed, attempted) -> tuple[dict, dict]:
    lat = [op.latency for op in ops]
    pct, tail_s = tail(lat)
    metrics = {
        "setup_s": statistics.median(setup),
        # ops one after another, each at its 90th-percentile pass
        "throughput_ops_per_s": len(ops) / sum(lat),
        "latency_p50_ms": 1e3 * statistics.median(lat),
        "latency_tail_ms": 1e3 * tail_s,
        "ok_frac": 1.0 - failed / attempted,
        "peak_rss_mb": rss_mb,
    }
    return metrics, {"tail_percentile": pct, "ops": len(ops)}


def per_layer(w, ops, failed, tracer, classes, traces) -> tuple[dict, int, int, dict]:
    """Per-layer metrics of a traced run, with probes of other workloads for
    the layers this one does not exercise. Returns the metrics, the probes'
    attempted and failed ops, and the workload each metric came from."""
    good = [op for op, f in zip(ops, failed) if f == 0]
    traced = [(op.i, op.latency, op.result) for op in good if op.traced]
    # time per op unit, so the mix of cheap and costly ops cancels out
    plain = [op.latency / w.op_units(op.result) for op in good if not op.traced]
    metrics = dict(w.layer_metrics(traced, tracer)) if traced else {}
    sources = dict.fromkeys(metrics, w.name)
    metrics["matrices.haar_unitary_ms"] = w.haar_ms()
    # the part of the traced ops' time that no layer span covers
    inner = tracer.child_seconds()
    op_spans = [s for s in tracer.spans if s["name"] == "op"]
    if op_spans:
        total = sum(s["end"] - s["start"] for s in op_spans)
        metrics["bench.untraced_frac"] = 1.0 - sum(inner[s["id"]] for s in op_spans) / total
    if traced and plain:
        metrics["bench.trace_overhead_frac"] = (
            statistics.median(lat / w.op_units(r) for _, lat, r in traced)
            / statistics.median(plain) - 1.0)
    probe_attempted = probe_failed = 0
    for name in ("sample-dense", "prob-haar", "cli-sample"):
        cls = classes[name]
        if name == w.name or all(m in metrics for m in cls.owns):
            continue
        probe = cls(w.seed, WORKDIR)
        probe_tracer = Tracer()
        probe_ops, _, _ = run_ops(probe, 0.0, probe_tracer, 2 * cls.probe_ops,
                                  2 * cls.probe_ops)
        probe_failed_ops = checked(probe, probe_ops)
        probe_attempted += len(probe_ops)
        probe_failed += sum(probe_failed_ops)
        probe_traced = [(op.i, op.latency, op.result) for op, f in zip(probe_ops, probe_failed_ops)
                        if op.traced and f == 0]
        if probe_traced:
            for key, value in probe.layer_metrics(probe_traced, probe_tracer).items():
                if key not in metrics:
                    metrics[key], sources[key] = value, name
        traces[name] = probe_tracer.spans
    return metrics, probe_attempted, probe_failed, sources


def main(argv=None) -> int:
    args = parse(argv)
    if not (ROOT / "src" / "bosonbunch" / "__init__.py").is_file():
        print(f"error: no bosonbunch package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import CLASSES, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fp:
        spec = json.load(fp)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    WORKDIR.mkdir(exist_ok=True)
    cls = WORKLOADS[args.workload]
    env = environment()
    calibration = [calibration_ms()]
    setup = setup_seconds(cls.name, args.seed)
    w = cls(args.seed, WORKDIR)
    tracer = Tracer() if args.trace else None
    ops, kept, elapsed = run_ops(w, args.seconds, tracer, cls.inputs, cls.pool)
    # peak resident memory of this process, which ran the ops
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    calibration.append(calibration_ms())

    failed_ops = checked(w, ops)
    canary = [False]
    try:
        canary = w.canary()
    except Exception:  # a canary that cannot run fails
        pass
    good = [op.result for op, f in zip(ops, failed_ops) if f == 0 and op in kept]
    detail = {
        "workload": cls.name, "n": cls.n, "m": cls.m, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "environment": env,
        "calibration_ms": calibration, "setup_runs_s": setup,
        "canary_ok": canary, "failed_ops": [op.i for op, f in zip(ops, failed_ops) if f][:20],
        "elapsed_s": elapsed, "passes": [min(len(op.times) for op in kept),
                                         max(len(op.times) for op in kept)],
        # the kept ops' first runs, before any repeat could be served from a cache
        "first_pass_p50_ms": 1e3 * statistics.median(op.times[0] for op in kept),
        "cost_model": w.cost_model(good) if good else None,
    }
    attempted = sum(len(op.times) for op in ops) + len(canary)
    failed = sum(failed_ops) + canary.count(False)
    if args.trace:
        traces = {cls.name: tracer.spans}
        metrics, probe_attempted, probe_failed, sources = per_layer(
            w, ops, failed_ops, tracer, CLASSES, traces)
        attempted += probe_attempted
        failed += probe_failed
        detail["layer_sources"] = sources
        with open(WORKDIR / f"trace-{cls.name}-{args.seed}.json", "w", encoding="utf-8") as fp:
            json.dump(traces, fp)
    else:
        metrics, extra = end_to_end(kept, setup, rss_mb, failed, attempted)
        detail.update(extra)
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
