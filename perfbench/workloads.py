"""The benchmark's workloads: inputs made from a seed, one timed op, its check.

Every workload drives only public functions of ``bosonbunch``. An op
returns ``(latency_s, result)``: the op decides what its latency covers. A
check returns True when the result is right; a False counts as a failed op.
``layer_metrics`` turns the spans and results of traced ops into per-layer
metrics, and ``owns`` names the ones a workload measures on its own path.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

from bosonbunch import cli, matrices, permanent, portstats, sampler

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
PINNED = Path(__file__).resolve().parent / "pinned.json"

PINNED_SEED = 0  # fixed seeds are a byte-identical contract; see pinned.json
EPSILON = 0.05  # failure probability of the paper's cost bounds
REL_TOL = 1e-9  # probability against the reference; measured error is about 1e-11
COUNT_CHECKED_OPS = 8  # untraced prob-haar ops whose state count is re-measured


def derived_seeds(name: str, seed: int) -> tuple[int, int]:
    """Two independent input seeds for one workload, made from the run seed."""
    tag = int.from_bytes(hashlib.sha256(name.encode()).digest()[:4], "little")
    a, b = np.random.SeedSequence([seed, tag]).generate_state(2)
    return int(a), int(b)


def span(tracer, name: str, op: int):
    return tracer.span(name, op) if tracer is not None else contextlib.nullcontext()


def model_states(prefix) -> int:
    """Enumerated states of one chain step over a realised port prefix:
    prod(c + 1) / min(c + 1) - 1 over the prefix's port counts, 0 when empty."""
    if not prefix:
        return 0
    factors = [c + 1 for c in Counter(prefix).values()]
    return math.prod(factors) // min(factors) - 1


def spread_evenly(keys, count: int) -> list[int]:
    """Indices of ``count`` of the keys at evenly spaced ranks of their order,
    in index order: a stratified subset, whose mix of costs varies far less
    from seed to seed than that of ``count`` independent draws."""
    order = sorted(range(len(keys)), key=lambda j: (keys[j], j))
    return sorted(order[(2 * k + 1) * len(keys) // (2 * count)] for k in range(count))


def sample_digest(i: int, ports) -> str:
    """SHA-256 of one sample's index and ports."""
    return hashlib.sha256(f"{i}:{' '.join(map(str, ports))}".encode()).hexdigest()


def pinned_outputs(name: str) -> list:
    """What the first ops of the pinned seed returned at the commit that
    defined the benchmark, one entry per op."""
    with open(PINNED, encoding="utf-8") as fp:
        return json.load(fp)[name]


def glynn_probability(u, occ) -> float:
    """Output probability from Glynn's formula on the expanded N x N matrix.

    Independent of the package's kernels: the row signs are enumerated as a
    table (2^9 inner times 2^(N-10) outer sign vectors), and the repeated
    columns enter as powers of their signed column sums.
    """
    occ = np.asarray(occ)
    n = int(occ.sum())
    cols = np.flatnonzero(occ)
    mult = occ[cols]
    a = u.matrix[:n][:, cols]
    inner = min(n - 1, 9)

    def signs(k):
        return 1.0 - 2.0 * ((np.arange(2**k)[:, None] >> np.arange(k)) & 1)

    s_in, s_out = signs(inner), signs(n - 1 - inner)
    t_in = s_in @ a[1 : 1 + inner]
    t_out = a[0] + s_out @ a[1 + inner :]
    par_in, par_out = s_in.prod(axis=1), s_out.prod(axis=1)
    groups = [(int(m), mult == m) for m in np.unique(mult)]
    total = 0j
    for k in range(0, t_out.shape[0], 32):
        sums = t_in[None, :, :] + t_out[k : k + 32, None, :]
        terms = np.ones(sums.shape[:2], dtype=np.complex128)
        for m, mask in groups:
            terms *= np.prod(sums[:, :, mask], axis=2) ** m
        total += par_out[k : k + 32] @ (terms @ par_in)
    per = total / 2 ** (n - 1)
    return float(abs(per) ** 2 / math.prod(math.factorial(int(c)) for c in occ))


class Workload:
    name = ""
    n = m = 0
    why = ""
    inputs = 0  # inputs every pass runs
    pool = 0  # inputs the first pass runs, from which ``inputs`` are kept
    owns: tuple[str, ...] = ()
    probe_ops = 0  # ops run when another workload's traced run needs these metrics

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.u_seed, self.input_seed = derived_seeds(self.name, seed)
        self.u = matrices.haar_unitary(self.m, seed=self.u_seed)
        self.pinned = pinned_outputs(self.name) if seed == PINNED_SEED else []

    def input(self, i: int):
        raise NotImplementedError

    def op(self, arg, i: int, tracer):
        raise NotImplementedError

    def check(self, i: int, result, traced: bool) -> bool:
        raise NotImplementedError

    def same(self, first, again) -> bool:
        """Whether a repeat of an op returned what its first run did."""
        raise NotImplementedError

    def canary(self) -> list[bool]:
        """Run and check the pinned seed's first ops, whatever the run's seed,
        so that every run holds the program to its fixed-seed outputs."""
        w = type(self)(PINNED_SEED, self.workdir)
        return [w.check(i, w.op(w.input(i), i, None)[1], False) for i in range(len(w.pinned))]

    def op_units(self, result) -> int:
        """The paper's operation count for one op."""
        raise NotImplementedError

    def cost_model(self, results) -> dict:
        raise NotImplementedError

    def layer_metrics(self, traced, tracer) -> dict:
        """Per-layer metrics from traced ops, given as (i, latency_s, result)."""
        raise NotImplementedError

    def haar_ms(self) -> float:
        """Median time of this workload's haar_unitary call over five calls."""
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            matrices.haar_unitary(self.m, seed=self.u_seed)
            times.append(time.perf_counter() - t0)
        return 1e3 * statistics.median(times)


class SampleWorkload(Workload):
    owns = (
        "sampler.states_per_sample",
        "sampler.op_units_per_sample",
        "sampler.step_ns_per_state",
        "sampler.step_share",
        "sampler.overhead_us_per_sample",
        "sampler.ns_per_op_unit",
        "portstats.bound_margin_log2",
    )
    probe_ops = 3
    inputs, pool = 96, 384

    def input(self, i):
        # the per-index seed sample_batch gives sample i of this master seed
        return np.random.SeedSequence(self.input_seed, spawn_key=(i,))

    def op(self, child, i, tracer):
        t0 = time.perf_counter()
        with span(tracer, "sampler.draw_sample_counted", i):
            result = sampler.draw_sample_counted(self.u, self.n, rng=np.random.default_rng(child))
        latency = time.perf_counter() - t0
        if tracer is not None:
            # replay the sample step by step through the public
            # conditional_weights right away, so machine drift between the
            # draw and its replay stays small
            seq = result[0]
            with tracer.span("replay", i):
                for k in range(self.n):
                    with tracer.span("sampler.conditional_weights", i):
                        sampler.conditional_weights(self.u, seq.row_order, seq.ports[:k])
        return latency, result

    def check(self, i, result, traced):
        seq, ops = result
        ports = seq.ports
        if len(ports) != self.n or any(not 1 <= p <= self.m for p in ports):
            return False
        if len(ops.per_step_gray) != self.n:
            return False
        if i < len(self.pinned) and sample_digest(i, ports) != self.pinned[i]:
            return False
        return all(got == model_states(ports[:k]) for k, got in enumerate(ops.per_step_gray))

    def same(self, first, again):
        return first == again

    def op_units(self, result):
        return result[1].op_units

    def cost_model(self, results):
        units = [self.op_units(r) for r in results]
        bounds = portstats.sampling_cost_bounds(self.n, self.m, EPSILON)
        return {
            "op_units_mean": statistics.fmean(units),
            "op_units_max": max(units),
            "sample_lower_log2": bounds.sample_lower_log2,
            "sample_upper_log2": bounds.sample_upper_log2,
            "epsilon": EPSILON,
        }

    def layer_metrics(self, traced, tracer):
        ops = {i for i, _, _ in traced}
        drawn, steps = {}, {}
        for s in tracer.spans:
            if s["op"] in ops and s["name"] == "sampler.draw_sample_counted":
                drawn[s["op"]] = s["end"] - s["start"]
            elif s["op"] in ops and s["name"] == "replay":
                steps[s["op"]] = s["end"] - s["start"]
        overhead = [drawn[i] - steps[i] for i in ops]
        sample_s, step_s = sum(drawn.values()), sum(steps.values())
        states = sum(r[1].gray_steps for _, _, r in traced)
        units = [r[1].op_units for _, _, r in traced]
        bound = portstats.sampling_cost_bounds(self.n, self.m, EPSILON).sample_upper_log2
        return {
            "sampler.states_per_sample": states / len(traced),
            "sampler.op_units_per_sample": statistics.fmean(units),
            "sampler.step_ns_per_state": 1e9 * step_s / max(states, 1),
            "sampler.step_share": step_s / sample_s,
            "sampler.overhead_us_per_sample": 1e6 * statistics.median(overhead),
            "sampler.ns_per_op_unit": 1e9 * sample_s / sum(units),
            "portstats.bound_margin_log2": bound - math.log2(max(units)),
        }


class SampleDense(SampleWorkload):
    name = "sample-dense"
    n, m = 12, 12
    why = "N=12 M=12 (rho=1): chain samples whose prefixes repeat ports, so high-radix leave-one-out walks dominate"


class SampleSparse(SampleWorkload):
    name = "sample-sparse"
    n, m = 12, 24
    why = "N=12 M=24 (rho=1/2): same N at half the density, few collisions and mostly radix-2 walks"


class ProbHaar(Workload):
    name = "prob-haar"
    n, m = 16, 16
    why = "N=16 M=16: output_probability on uniformly drawn multisets, the Haar-typical collision mix; permanent kernel alone"
    owns = (
        "permanent.states_per_op",
        "permanent.ns_per_state",
        "permanent.fixed_us_per_call",
        "permanent.ns_per_op_unit",
        "permanent.rel_err_max",
        "portstats.bound_margin_log2",
    )
    probe_ops = 12
    inputs = pool = 96
    draws = 4096  # multisets drawn, from which the inputs are spread over their cost order

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.rel_err: dict[int, float] = {}
        self.states: dict[int, int] = {}
        rng = np.random.default_rng(self.input_seed)
        drawn = [self.draw(rng) for _ in range(self.draws)]
        units = [permanent.cost_estimate(occ).op_units for occ in drawn]
        self.occs = [drawn[j] for j in spread_evenly(units, self.inputs)]

    def draw(self, rng):
        # stars and bars: N distinct positions among M + N - 1 give a
        # multiset of N ports, every multiset equally likely
        bars = np.sort(rng.choice(self.m + self.n - 1, self.n, replace=False)) - np.arange(self.n)
        return np.bincount(bars, minlength=self.m)

    def input(self, i):
        return self.occs[i]

    def op(self, occ, i, tracer):
        t0 = time.perf_counter()
        with span(tracer, "permanent.output_probability", i):
            p = permanent.output_probability(self.u, occ)
        return time.perf_counter() - t0, (occ, p)

    def check(self, i, result, traced):
        occ, p = result
        ref = self.pinned[i] if i < len(self.pinned) else glynn_probability(self.u, occ)
        self.rel_err[i] = abs(p - ref) / ref
        ok = self.rel_err[i] <= REL_TOL
        if traced or i < COUNT_CHECKED_OPS:
            cols = np.flatnonzero(occ)
            block = self.u.matrix[: self.n][:, cols]
            _, steps = permanent.repeated_column_expansion(block, occ[cols].tolist())
            self.states[i] = steps + 1
            est = permanent.cost_estimate(occ)
            ok = ok and self.states[i] == est.bunching_product // est.min_factor
        return ok

    def same(self, first, again):
        return first[1] == again[1]

    def op_units(self, result):
        return permanent.cost_estimate(result[0]).op_units

    def cost_model(self, results):
        units = [self.op_units(r) for r in results]
        bounds = portstats.probability_cost_bounds(self.n, self.m, EPSILON)
        return {
            "op_units_mean": statistics.fmean(units),
            "op_units_max": max(units),
            "prob_lower_log2": bounds.prob_lower_log2,
            "prob_upper_log2": bounds.prob_upper_log2,
            "epsilon": EPSILON,
        }

    def layer_metrics(self, traced, tracer):
        calls = {s["op"]: s["end"] - s["start"] for s in tracer.spans
                 if s["name"] == "permanent.output_probability"}
        times = np.array([calls[i] for i, _, _ in traced])
        est = [permanent.cost_estimate(r[0]) for _, _, r in traced]
        states = np.array([e.bunching_product // e.min_factor for e in est], dtype=float)
        slope, intercept = np.polyfit(states, times, 1)
        bound = portstats.probability_cost_bounds(self.n, self.m, EPSILON).prob_upper_log2
        return {
            "permanent.states_per_op": statistics.fmean(self.states[i] for i, _, _ in traced),
            "permanent.ns_per_state": 1e9 * slope,
            "permanent.fixed_us_per_call": 1e6 * intercept,
            "permanent.ns_per_op_unit": 1e9 * times.sum() / sum(e.op_units for e in est),
            "permanent.rel_err_max": max(self.rel_err.values()),
            "portstats.bound_margin_log2": bound - math.log2(max(e.op_units for e in est)),
        }


def package_env() -> dict:
    """Environment for child processes: the package from this checkout."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


class CliSample(Workload):
    name = "cli-sample"
    n, m = 8, 16
    count = 200
    why = "N=8 M=16: fresh python -m bosonbunch sample, 200 jsonl records to a pipe; process start and import dominate"
    owns = (
        "cli.import_ms",
        "cli.sample_ms",
        "cli.write_ms",
        "cli.bytes_out",
        "matrices.load_unitary_ms",
        "sampler.overhead_us_per_sample",
    )
    probe_ops = 2

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        folder = workdir / f"{self.name}-{seed}"
        folder.mkdir(parents=True, exist_ok=True)
        self.path = folder / "unitary.json"
        matrices.save_matrix(self.path, self.u)
        self.argv = ["sample", "--unitary", str(self.path), "-n", str(self.n),
                     "--count", str(self.count), "--seed", str(self.input_seed)]
        self.expected: str | None = None

    def input(self, i):
        return self.argv

    def op(self, argv, i, tracer):
        if tracer is None:
            cmd = [sys.executable, "-m", "bosonbunch", *argv]
        else:
            cmd = [sys.executable, str(CHILD), "cli", *argv]
        with open(self.workdir / f"{self.name}.stderr", "w+b") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                                    env=package_env(), cwd=ROOT)
            try:
                with proc.stdout:
                    out = proc.stdout.read()
                t_last = time.perf_counter()
            finally:
                proc.wait()
            err.seek(0)
            report = err.read().decode(errors="replace")
        result = {"code": proc.returncode, "out": out}
        if tracer is not None and proc.returncode == 0:
            child = json.loads(report.splitlines()[-1])
            op_span = next(s["id"] for s in reversed(tracer.spans) if s["op"] == i and s["name"] == "op")
            ids = {}
            for name, start, end, parent in child["spans"]:
                ids[name] = tracer.add(name, start, end, ids.get(parent, op_span), i)
            result["child"] = child
        return t_last - t0, result

    def render(self) -> bytes:
        """The command's output when its main runs in this process."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(self.argv)
        return buf.getvalue().encode() if code == 0 else b""

    def expected_digest(self) -> str:
        if self.expected is None:
            self.expected = (self.pinned[0] if self.pinned
                             else hashlib.sha256(self.render()).hexdigest())
        return self.expected

    def check(self, i, result, traced):
        if result["code"] != 0:
            return False
        lines = result["out"].decode().splitlines()
        if len(lines) != self.count + 1:
            return False
        header = json.loads(lines[0])
        if header.get("unitary_sha256") != matrices.fingerprint(self.u):
            return False
        return hashlib.sha256(result["out"]).hexdigest() == self.expected_digest()

    def op_units(self, result):
        lines = result["out"].decode().splitlines()[1:]
        return sum(json.loads(line)["ops"] for line in lines)

    def cost_model(self, results):
        steps = [self.op_units(r) / self.count for r in results]
        bounds = portstats.sampling_cost_bounds(self.n, self.m, EPSILON)
        return {
            "gray_steps_per_sample": statistics.fmean(steps),
            "sample_lower_log2": bounds.sample_lower_log2,
            "sample_upper_log2": bounds.sample_upper_log2,
            "epsilon": EPSILON,
        }

    def layer_metrics(self, traced, tracer):
        children = [r["child"] for _, _, r in traced]

        def per_op(name):
            return [end - start for c in children for n, start, end, _ in c["spans"] if n == name]

        main = per_op("cli.main")
        load = per_op("matrices.load_unitary")
        batch = per_op("sampler.sample_batch")
        return {
            "cli.import_ms": 1e3 * statistics.median(per_op("cli.import")),
            "cli.sample_ms": 1e3 * statistics.median(batch),
            "cli.write_ms": 1e3 * statistics.median(a - b - c for a, b, c in zip(main, load, batch)),
            "cli.bytes_out": statistics.median(len(r["out"]) for _, _, r in traced),
            "matrices.load_unitary_ms": 1e3 * statistics.median(load),
            "sampler.overhead_us_per_sample": 1e6 * statistics.median(
                (b - c["step_s"]) / self.count for b, c in zip(batch, children)),
        }


# the benchmarked workloads; cli-sample only feeds its layers' metrics to
# traced runs of the others (see README.md)
WORKLOADS = {w.name: w for w in (SampleDense, SampleSparse, ProbHaar)}
CLASSES = {**WORKLOADS, CliSample.name: CliSample}
