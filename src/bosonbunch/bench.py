"""Chain samples checked against their cost envelope, and the scaling sweep.

The counters are the chain's own ``SampleOps``; this module defines none.
An operation unit is one enumerated state's worth of row work (one addition
and one multiplication per row). Envelope comparisons happen at exponent
level (log2 counts) with the asymptotic constants taken as one, which leaves
a documented slack of two bits on the lower side: the weight-evaluation
work is M*K summed over steps (about half of M*N^2) and a realized prefix
can shave one doubling off the final enumeration.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .matrices import UnitaryMatrix, haar_unitary
from .permanent import cost_estimate
from .portstats import probability_cost_bounds, sampling_cost_bounds
from .sampler import PortSequence, SampleOps, draw_sample_counted

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
    "trace_sample",
    "scaling_report",
    "write_scaling_csv",
    "CSV_COLUMNS",
    "LOWER_ENVELOPE_SLACK_LOG2",
]


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
) -> tuple[PortSequence, SampleOps]:
    """One chain sample with its counters.

    Verifies on the way out that the realized op units sit inside the
    envelope instantiated with the realized configuration (lower side with
    the two-bit constants slack); a violation means the chain's counters and
    the cost model have diverged.
    """
    seq, ops = draw_sample_counted(u, n_bosons, rng, seed)
    lower, upper = _sample_envelope(n_bosons, u.dim, seq.configuration(u.dim))
    if not (lower <= ops.op_units * 2**LOWER_ENVELOPE_SLACK_LOG2 and ops.op_units <= upper):
        raise RuntimeError(
            f"sample op units {ops.op_units} escaped the realized envelope"
            f" [{lower} / {int(2 ** LOWER_ENVELOPE_SLACK_LOG2)}, {upper}]"
        )
    return seq, ops


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
            _, ops = trace_sample(u, n_bosons, rng=np.random.default_rng(child))
            op_units.append(ops.op_units)
            gray_totals.append(ops.gray_steps)

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
