"""Instrumented runs reconciling measured operation counts with the model.

An operation unit is one enumerated state's worth of row work (one addition
and one multiplication per row); wall time is recorded for orientation but
never asserted. Envelope comparisons happen at exponent level (log2 counts)
with the asymptotic constants taken as one, which leaves a documented slack
of two bits on the lower side: the weight-evaluation work is M*K summed over
steps (about half of M*N^2) and a realized prefix can shave one doubling off
the final enumeration.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .matrices import UnitaryMatrix, haar_unitary
from .permanent import cost_estimate, repeated_column_expansion
from .portstats import probability_cost_bounds, sampling_cost_bounds
from .sampler import PortSequence, _chain_sample

LOWER_ENVELOPE_SLACK_LOG2 = 2.0

CSV_COLUMNS = (
    "N",
    "M",
    "rho",
    "mean_log2_ops",
    "max_log2_ops",
    "t1_lower_log2",
    "t1_upper_log2",
    "t2_lower_log2",
    "t2_upper_log2",
    "baseline_log2",
)

__all__ = [
    "OpTrace",
    "trace_permanent",
    "trace_sample",
    "scaling_report",
    "write_scaling_csv",
    "CSV_COLUMNS",
    "LOWER_ENVELOPE_SLACK_LOG2",
]


@dataclass(frozen=True)
class OpTrace:
    """Measured counters for one instrumented evaluation."""

    context: str  # "permanent" or "full-sample"
    occupations: tuple[int, ...]
    gray_steps: int
    row_ops: int
    op_units: int
    wall_time: float
    per_step_gray: tuple[int, ...] = ()


def trace_permanent(
    column_block, multiplicities: Sequence[int]
) -> tuple[complex, OpTrace]:
    """Repeated-column permanent plus exact counters.

    Raises if the measured Gray-step count ever drifts from the closed form
    prod(m_j + 1) / min(m_j + 1) - 1; the counter and the model must agree
    exactly or the cost accounting is broken.
    """
    started = time.perf_counter()
    value, steps = repeated_column_expansion(column_block, multiplicities)
    elapsed = time.perf_counter() - started
    estimate = cost_estimate(multiplicities)
    expected_steps = estimate.bunching_product // estimate.min_factor - 1
    if steps != expected_steps:
        raise RuntimeError(
            f"gray step counter {steps} drifted from model {expected_steps}"
            f" for multiplicities {list(multiplicities)}"
        )
    n_bosons = sum(int(m) for m in multiplicities)
    trace = OpTrace(
        context="permanent",
        occupations=tuple(int(m) for m in multiplicities),
        gray_steps=steps,
        row_ops=n_bosons * (steps + 1),
        op_units=estimate.op_units,
        wall_time=elapsed,
    )
    return value, trace


def _sample_envelope(n_bosons: int, n_ports: int, config: np.ndarray) -> tuple[int, int]:
    """Guaranteed per-sample op-unit envelope for a realized configuration."""
    occupied = config[config > 0]
    n_distinct = occupied.size
    max_occ = int(occupied.max())
    prod_p1 = math.prod(int(m) + 1 for m in occupied)
    overhead = n_ports * n_bosons**2
    lower = n_bosons * 2**n_distinct + overhead
    upper = (max_occ + 2) * n_bosons * prod_p1 + overhead
    return lower, upper


def trace_sample(
    u: UnitaryMatrix,
    n_bosons: int,
    rng: np.random.Generator | None = None,
    seed: int | None = None,
) -> tuple[PortSequence, OpTrace]:
    """One chain sample with accumulated per-step counters.

    Verifies on the way out that the realized op units sit inside the
    envelope instantiated with the realized configuration (lower side with
    the two-bit constants slack); a violation means the instrumentation and
    the cost model have diverged.
    """
    if rng is None:
        rng = np.random.default_rng(np.random.SeedSequence(seed))
    started = time.perf_counter()
    seq, ops = _chain_sample(u, n_bosons, rng, seed_note=seed)
    elapsed = time.perf_counter() - started
    config = seq.configuration(u.dim)
    lower, upper = _sample_envelope(n_bosons, u.dim, config)
    if not (lower <= ops.op_units * 2**LOWER_ENVELOPE_SLACK_LOG2 and ops.op_units <= upper):
        raise RuntimeError(
            f"sample op units {ops.op_units} escaped the realized envelope"
            f" [{lower} / {int(2 ** LOWER_ENVELOPE_SLACK_LOG2)}, {upper}]"
        )
    trace = OpTrace(
        context="full-sample",
        occupations=tuple(int(c) for c in config),
        gray_steps=ops.gray_steps,
        row_ops=ops.row_ops,
        op_units=ops.op_units,
        wall_time=elapsed,
        per_step_gray=ops.per_step_gray,
    )
    return seq, trace


def scaling_report(
    n_values: Sequence[int],
    m_rule: Callable[[int], int],
    samples_per_point: int,
    seed: int,
    epsilon: float = 0.1,
    max_op_units: int = 10**8,
) -> list[dict]:
    """Sweep (N, M) points, sampling each and tabulating measured op counts
    against the analytic bounds and the collision-free baseline N 2^(N-1).

    Infeasible points are refused up front, quoting the cost estimate of the
    worst (collision-free) configuration.
    """
    rows: list[dict] = []
    for idx, n_bosons in enumerate(n_values):
        n_ports = int(m_rule(n_bosons))
        worst = cost_estimate([1] * n_bosons + [0] * max(0, n_ports - n_bosons))
        expected_worst = worst.op_units + n_ports * n_bosons**2
        if expected_worst > max_op_units:
            raise ValueError(
                f"point (N={n_bosons}, M={n_ports}) is infeasible: about"
                f" {expected_worst} op units per sample (limit {max_op_units})"
            )
        unitary_seed = int(
            np.random.SeedSequence(entropy=seed, spawn_key=(idx,)).generate_state(1)[0]
        )
        u = haar_unitary(n_ports, seed=unitary_seed)

        op_units = []
        gray_totals = []
        for s in range(samples_per_point):
            child = np.random.SeedSequence(entropy=seed, spawn_key=(idx, s + 1))
            _, trace = trace_sample(u, n_bosons, rng=np.random.default_rng(child))
            op_units.append(trace.op_units)
            gray_totals.append(trace.gray_steps)

        t1 = probability_cost_bounds(n_bosons, n_ports, epsilon)
        t2 = sampling_cost_bounds(n_bosons, n_ports, epsilon)
        rows.append(
            {
                "N": n_bosons,
                "M": n_ports,
                "rho": n_bosons / n_ports,
                "mean_log2_ops": math.log2(float(np.mean(op_units))) if op_units else float("nan"),
                "max_log2_ops": math.log2(float(np.max(op_units))) if op_units else float("nan"),
                "t1_lower_log2": t1.prob_lower_log2,
                "t1_upper_log2": t1.prob_upper_log2,
                "t2_lower_log2": t2.sample_lower_log2,
                "t2_upper_log2": t2.sample_upper_log2,
                "baseline_log2": math.log2(n_bosons) + n_bosons - 1,
                "mean_gray_steps": float(np.mean(gray_totals)) if gray_totals else float("nan"),
            }
        )
    return rows


def write_scaling_csv(rows: Sequence[dict], fp) -> None:
    fp.write(",".join(CSV_COLUMNS) + "\n")
    for row in rows:
        fp.write(",".join(repr(row[c]) if isinstance(row[c], float) else str(row[c]) for c in CSV_COLUMNS) + "\n")
