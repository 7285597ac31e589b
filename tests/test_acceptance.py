"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdicts.
"""

import math
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import scipy.stats

from bosonbunch import (
    UnitaryMatrix,
    brute_force_distribution,
    chi_square_fit,
    cost_estimate,
    draw_sample_counted,
    empirical_counts,
    haar_unitary,
    occupied_ports_pmf,
    permanent_glynn,
    permanent_naive,
    permanent_ryser,
    probability_cost_bounds,
    repeated_column_expansion,
    sample_batch,
    sampling_cost_bounds,
    solve_tail_crossings,
    total_variation_distance,
)
from bosonbunch.portstats import _entropy
from helpers import expand_columns, partitions, pinned_states, pmf_mode, random_complex, rel_err

BEAMSPLITTER = UnitaryMatrix(np.array([[1, 1], [1, -1]]) / np.sqrt(2))

def _verdict(number: int, description: str, ok: bool) -> None:
    line = f"[criterion {number:2d}] {'PASS' if ok else 'FAIL'}  {description}"
    print(line)
    assert ok, line


def test_criterion_1_permanent_oracle_suite():
    started = time.perf_counter()
    rng = np.random.default_rng(20_240_001)
    worst = 0.0
    for dim in range(2, 8):
        for _ in range(200):
            a = random_complex(rng, (dim, dim))
            reference = permanent_naive(a)
            worst = max(
                worst,
                rel_err(permanent_ryser(a), reference),
                rel_err(permanent_glynn(a), reference),
            )
    for n in range(2, 9):
        for pattern in partitions(n):
            for _ in range(3):
                block = random_complex(rng, (n, len(pattern)))
                value, _ = repeated_column_expansion(block, pattern)
                oracle = permanent_naive(expand_columns(block, pattern))
                worst = max(worst, rel_err(value, oracle))
    elapsed = time.perf_counter() - started
    _verdict(
        1,
        f"oracle agreement worst rel err {worst:.2e} (<1e-9), {elapsed:.1f}s (<60s)",
        worst < 1e-9 and elapsed < 60.0,
    )


def test_criterion_2_full_vs_reduced_expansion():
    # the pinned expansion against Ryser on the expanded matrix, which shares
    # no code with the expansion kernel
    rng = np.random.default_rng(20_240_002)
    all_patterns = [p for n in range(2, 9) for p in partitions(n)]
    worst = 0.0
    exact = True
    for pattern in all_patterns:
        block = random_complex(rng, (sum(pattern), len(pattern)))
        value, steps = repeated_column_expansion(block, pattern)
        exact &= steps == pinned_states(pattern) - 1
        worst = max(worst, rel_err(value, permanent_ryser(expand_columns(block, pattern))))
    _verdict(
        2,
        f"pinned expansion vs Ryser on {len(all_patterns)} partitions worst rel err"
        f" {worst:.2e} (<1e-12), steps prod(m+1)/min(m+1)-1",
        worst < 1e-12 and exact,
    )


def test_criterion_3_sampler_exactness():
    started = time.perf_counter()
    u = haar_unitary(5, seed=7)
    exact = brute_force_distribution(u, 3)
    batch = sample_batch(u, 3, 100_000, master_seed=2024)
    counts = empirical_counts(batch)
    tvd = total_variation_distance(counts, exact)
    _, pvalue = chi_square_fit(counts, exact)
    elapsed = time.perf_counter() - started

    hom = sample_batch(BEAMSPLITTER, 2, 10_000, master_seed=5)
    hom_counts = empirical_counts(hom)
    antibunched = hom_counts.get((1, 1), 0)
    bunched_rate = hom_counts.get((2, 0), 0) / 10_000

    ok = (
        tvd < 0.02
        and pvalue > 0.001
        and elapsed < 60.0
        and antibunched == 0
        and abs(bunched_rate - 0.5) <= 0.015
    )
    _verdict(
        3,
        f"TVD {tvd:.4f} (<0.02), chi2 p {pvalue:.4f} (>0.001), {elapsed:.1f}s (<60s); "
        f"HOM (1,1) count {antibunched} (=0), p(2,0) {bunched_rate:.4f} (0.5+-0.015)",
        ok,
    )


def test_criterion_4_pmf_identities_exact():
    ok = True
    for m_ports in range(1, 61):
        for n_bosons in range(1, m_ports + 1):
            dist = occupied_ports_pmf(n_bosons, m_ports)
            ok &= sum(dist.exact) == 1
            mean = sum(Fraction(n) * p for n, p in zip(dist.support(), dist.exact))
            ok &= mean == Fraction(m_ports * n_bosons, m_ports + n_bosons - 1)
    _verdict(4, "sum P(n) = 1 and mean = MN/(M+N-1) exactly for all N <= M <= 60", ok)


def test_criterion_5_figure_reproduction():
    n_bosons, m_ports = 50, 100
    dist = occupied_ports_pmf(n_bosons, m_ports)
    mode = pmf_mode(dist)
    mean = float(sum(Fraction(n) * p for n, p in zip(dist.support(), dist.exact)))

    delta_minus, delta_plus = solve_tail_crossings(n_bosons / m_ports)
    center = n_bosons / (1 + n_bosons / m_ports)
    n_minus = (1 - delta_minus) * center
    n_plus = (1 + delta_plus) * center
    left = [n for n in dist.support() if n <= n_minus]
    right = [n for n in dist.support() if n >= n_plus]
    dominated = all(dist.envelope[n - 1] >= dist.pmf[n - 1] for n in left + right)

    ok = 33 <= mode <= 35 and abs(mean - 5000 / 149) < 1e-12 and left and right and dominated
    _verdict(
        5,
        f"mode {mode} in 33..35, mean {mean:.4f}, envelope dominates n<= {n_minus:.2f}"
        f" and n>= {n_plus:.2f} ({len(left)}+{len(right)} points)",
        bool(ok),
    )


def test_criterion_6_tail_crossing_solver():
    worst = 0.0
    for rho in (0.1, 0.25, 0.5, 0.75, 1.0):
        delta_minus, delta_plus = solve_tail_crossings(rho)
        target = math.log1p(rho)
        worst = max(
            worst,
            abs(_entropy((1 - delta_minus) / (1 + rho)) - target),
            abs(_entropy((1 + delta_plus) / (1 + rho)) - target),
        )
    at_unit = solve_tail_crossings(1.0)
    ok = worst <= 1e-12 and at_unit == (0.0, 0.0)
    _verdict(6, f"crossing residual {worst:.2e} (<=1e-12), delta(rho=1) = {at_unit}", ok)


def test_criterion_7_cost_model_exactness():
    # permanents: one per partition of n = 2..8
    rng = np.random.default_rng(20_240_007)
    patterns = [p for n in range(2, 9) for p in partitions(n)]
    exact = all(
        repeated_column_expansion(random_complex(rng, (sum(p), len(p))), p)[1] == pinned_states(p) - 1
        for p in patterns
    )

    # chain samples: every step's counter must equal the prefix formula
    u = haar_unitary(5, seed=7)
    for s in range(200):
        seq, ops = draw_sample_counted(u, 4, rng=np.random.default_rng(s))
        occ = np.zeros(5, dtype=int)
        for port, gray in zip(seq.ports, ops.per_step_gray):
            expected = pinned_states(occ[occ > 0]) - 1
            exact &= gray == expected
            occ[port - 1] += 1
    _verdict(
        7,
        f"gray counters equal prod(m+1)/min(m+1)-1 on {len(patterns)} permanents"
        " and 200 sampled chains (integer equality)",
        exact,
    )


def test_criterion_8_cost_bound_envelope_statistical():
    started = time.perf_counter()
    epsilon = 0.1
    trials = 100
    summary = []
    ok = True
    for m_ports in (16, 32):
        report = probability_cost_bounds(16, m_ports, epsilon)
        escapes = 0
        for s in range(trials):
            u = haar_unitary(m_ports, seed=81_000 + 100 * m_ports + s)
            seq = draw_sample_counted(u, 16, rng=np.random.default_rng(s))[0]
            exponent = math.log2(cost_estimate(seq.configuration(m_ports)).op_units)
            if not report.prob_lower_log2 <= exponent <= report.prob_upper_log2:
                escapes += 1
        allowance = epsilon + 3 * math.sqrt(epsilon * (1 - epsilon) / trials)
        summary.append(f"(16,{m_ports}): {escapes}/{trials} escapes (<= {allowance:.2f})")
        ok &= escapes / trials <= allowance
    elapsed = time.perf_counter() - started
    ok &= elapsed < 600.0
    _verdict(8, "; ".join(summary) + f", {elapsed:.1f}s (<600s)", ok)


def test_criterion_9_equivalent_boson_count():
    report = sampling_cost_bounds(20, 60, 0.05)
    _verdict(9, f"N_equiv(20, 60) = {report.n_equiv} (= 15 exactly)", report.n_equiv == 15.0)


def test_criterion_10_haar_ensemble_port_counts():
    n_bosons, m_ports = 4, 8
    n_unitaries, per_unitary = 300, 30
    counts = Counter()
    for s in range(n_unitaries):
        u = haar_unitary(m_ports, seed=40_000 + s)
        batch = sample_batch(u, n_bosons, per_unitary, master_seed=50_000 + s)
        for seq in batch.samples:
            counts[int(np.count_nonzero(seq.configuration(m_ports)))] += 1
    dist = occupied_ports_pmf(n_bosons, m_ports)
    observed = np.array([counts.get(n, 0) for n in dist.support()])
    expected = dist.pmf * observed.sum()
    _, pvalue = scipy.stats.chisquare(observed, expected * observed.sum() / expected.sum())
    _verdict(
        10,
        f"pooled {observed.sum()} samples: chi2 p {pvalue:.4f} (>0.001) vs analytic pmf",
        pvalue > 0.001,
    )
