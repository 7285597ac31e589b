import math
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement

import numpy as np
import pytest

from bosonbunch import (
    UnitaryMatrix,
    draw_sample_counted,
    haar_unitary,
    sampling_cost_bounds,
)

BEAMSPLITTER = UnitaryMatrix(np.array([[1, 1], [1, -1]]) / np.sqrt(2))


def test_draw_sample_counted_basics():
    u = haar_unitary(5, seed=5)
    seq, ops = draw_sample_counted(u, 1, rng=np.random.default_rng(0))
    assert ops.gray_steps == 0
    assert ops.per_step_gray == (0,)
    assert sum(seq.configuration(5)) == 1

    # a bunched beamsplitter prefix degenerates to the single-product path
    _, ops = draw_sample_counted(BEAMSPLITTER, 2, rng=np.random.default_rng(0))
    assert ops.per_step_gray == (0, 0)


def test_draw_sample_counted_within_sampling_bounds():
    # exponent-level comparison against the epsilon = 0.01 bound report;
    # the bound itself may fail for about that fraction of unitaries
    n_bosons = n_ports = 10
    # the bounds take the asymptotic constants as one, which leaves two bits
    # of slack on the lower side: the weight work is M*K summed over steps
    # (about half of M*N^2), and a realized prefix can shave one doubling off
    # the final enumeration
    lower_slack_log2 = 2.0
    report = sampling_cost_bounds(n_bosons, n_ports, 0.01)
    outside = 0
    for s in range(100):
        u = haar_unitary(n_ports, seed=700 + s)
        _, ops = draw_sample_counted(u, n_bosons, rng=np.random.default_rng(s))
        exponent = math.log2(ops.op_units)
        if not (
            report.sample_lower_log2 - lower_slack_log2
            <= exponent
            <= report.sample_upper_log2
        ):
            outside += 1
    assert outside <= 4  # 1% expected failures plus generous statistical room


def _mean_gray_steps(n_bosons, m_ports, seed0, draws):
    totals = []
    for s in range(draws):
        u = haar_unitary(m_ports, seed=seed0 + s)
        _, ops = draw_sample_counted(u, n_bosons, rng=np.random.default_rng(s))
        totals.append(ops.gray_steps)
    return float(np.mean(totals))


def test_bunching_speeds_up_sampling():
    # at equal boson count, denser ports bunch more and cost fewer gray steps
    # on average; toward the collision-free limit the total over the chain's
    # steps approaches 2^(N-1)
    n_bosons = 14
    means = [_mean_gray_steps(n_bosons, m_ports, seed0, 30)
             for m_ports, seed0 in ((14, 800), (56, 900))]
    assert means[0] < means[1], means
    assert math.log2(means[-1]) > n_bosons - 3


def test_scaling_report_approaches_no_collision_baseline():
    # N = 10 from unit to sixteenfold port density: the mean gray steps rise
    # with M, and the sparsest nears the collision-free 2^(N-1)
    n_bosons = 10
    means = [_mean_gray_steps(n_bosons, m_ports, seed0, 20)
             for m_ports, seed0 in ((10, 1000), (40, 1100), (160, 1200))]
    assert means[0] < means[1] < means[2], means
    assert math.log2(means[2]) > n_bosons - 3


def _pinned_states(ports) -> int:
    """prod(c + 1) / min(c + 1) over the counts of ``ports``; 1 for none."""
    factors = [c + 1 for c in Counter(ports).values()]
    return math.prod(factors) // min(factors) if factors else 1


def _prefix_row_ops(ports) -> int:
    """The row ops the chain counts for a port sequence: step k does k rows
    of work on each state of the ports before it."""
    return sum(k * _pinned_states(ports[: k - 1]) for k in range(1, len(ports) + 1))


def _mean_pinned_states(j, m_ports) -> Fraction:
    """Exact mean of prod(c + 1) / min(c + 1) over a uniform j-boson multiset
    on ``m_ports`` ports. F_c = [x^j] (1 + sum_{m >= c} (m + 1) x^m)^M sums
    prod(c + 1) over the multisets whose occupied counts are all at least c,
    so those whose least count is c contribute (F_c - F_{c+1}) / (c + 1)."""
    if j == 0:
        return Fraction(1)

    def f(c):
        base = [1] + [m + 1 if m >= c else 0 for m in range(1, j + 1)]
        poly = [1] + [0] * j
        for _ in range(m_ports):
            poly = [sum(poly[i] * base[d - i] for i in range(d + 1)) for d in range(j + 1)]
        return poly[j]

    total = sum(Fraction(f(c) - f(c + 1), c + 1) for c in range(1, j + 1))
    return total / math.comb(m_ports + j - 1, j)


@pytest.mark.parametrize("j, m_ports", [(1, 3), (3, 5), (4, 6), (5, 4)])
def test_mean_pinned_states_matches_enumeration(j, m_ports):
    multisets = list(combinations_with_replacement(range(m_ports), j))
    exact = Fraction(sum(_pinned_states(ms) for ms in multisets), len(multisets))
    assert _mean_pinned_states(j, m_ports) == exact


@pytest.mark.parametrize(
    "n_bosons, m_ports, draws, foil_floor",
    [
        pytest.param(8, 16, 3000, 10, id="8-16-3000"),
        pytest.param(12, 24, 2000, 10, id="12-24-2000"),
        # the paper's point: past about 13 distinct ports a chain drops its
        # carried table and expands afresh, so this case checks that path
        pytest.param(20, 60, 100, 5, id="20-60-100"),
    ],
)
def test_mean_row_ops_match_the_exact_haar_mean(n_bosons, m_ports, draws, foil_floor):
    # Averaged over Haar unitaries every output multiset is equally likely
    # (Arkhipov & Kuperberg, arXiv:1106.0849), and the chain's port sequence
    # is exchangeable, so its first j ports form a uniform j-boson multiset
    # and the mean row ops are sum_k k * E[states of k - 1 ports]. One draw
    # per fresh unitary, each with its own seed: seeds reused across
    # unitaries favour the same port indices and bias the collisions.
    exact = float(sum(k * _mean_pinned_states(k - 1, m_ports) for k in range(1, n_bosons + 1)))
    unitaries = [haar_unitary(m_ports, seed=1_000_000 + s) for s in range(draws)]
    chain = [
        draw_sample_counted(u, n_bosons, rng=np.random.default_rng(s))[1].row_ops for s, u in enumerate(unitaries)
    ]

    # the foil: distinguishable particles, boson i on port j with
    # probability |U_ij|^2, counted by the same prefix formula
    rng = np.random.default_rng(0)
    foil = []
    for u in unitaries:
        cdf = np.cumsum(np.abs(u.matrix[:n_bosons]) ** 2, axis=1)
        ports = (cdf < rng.random(n_bosons)[:, None] * cdf[:, -1:]).sum(axis=1)
        foil.append(_prefix_row_ops(ports.tolist()))

    def z(values):
        x = np.asarray(values, dtype=np.float64)
        return (x.mean() - exact) / (x.std(ddof=1) / math.sqrt(x.size))

    assert abs(z(chain)) <= 5.0, (z(chain), exact)
    assert z(foil) >= foil_floor, (z(foil), exact)
