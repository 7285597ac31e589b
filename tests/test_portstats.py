import dataclasses
import hashlib
import json
import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats

from bosonbunch import (
    UnsupportedRegimeError,
    haar_unitary,
    occupied_ports_pmf,
    probability_cost_bounds,
    sample_batch,
    sampling_cost_bounds,
    solve_tail_crossings,
)
from bosonbunch import cli
from bosonbunch.portstats import (
    _binomial_envelope,
    _bisect,
    _entropy,
    _max_bunching_cutoff,
    _tail_half_width,
)
from helpers import compositions, pmf_mode


# -------------------------------------------------------------------- the pmf


def test_pmf_two_bosons_two_ports():
    # three equally likely configurations (2,0), (1,1), (0,2): one of them
    # occupies both ports
    dist = occupied_ports_pmf(2, 2)
    assert dist.exact == (Fraction(2, 3), Fraction(1, 3))


def test_pmf_single_boson():
    dist = occupied_ports_pmf(1, 1)
    assert dist.exact == (Fraction(1),)


def test_pmf_figure_case():
    dist = occupied_ports_pmf(50, 100)
    assert pmf_mode(dist) == 34
    assert abs(sum(dist.pmf) - 1.0) < 1e-12
    assert sum(dist.exact) == 1


def test_pmf_identities_exact_up_to_60():
    for m_ports in range(1, 61):
        for n_bosons in range(1, m_ports + 1):
            dist = occupied_ports_pmf(n_bosons, m_ports)
            assert sum(dist.exact) == 1
            mean = sum(Fraction(n) * p for n, p in zip(dist.support(), dist.exact))
            assert mean == Fraction(m_ports * n_bosons, m_ports + n_bosons - 1)


def test_pmf_rejects_bad_counts():
    with pytest.raises(ValueError):
        occupied_ports_pmf(0, 5)
    with pytest.raises(UnsupportedRegimeError):
        occupied_ports_pmf(6, 5)


@pytest.mark.parametrize("n_bosons, n_ports", [(2.5, 4), (2, 4.5), (math.nan, 4), ("2", 4)])
def test_pmf_rejects_non_integer_counts(n_bosons, n_ports):
    with pytest.raises(ValueError, match="integers only"):
        occupied_ports_pmf(n_bosons, n_ports)


# every public count argument, each named by the value it reaches
COUNTED = {
    "envelope-N": lambda c: tuple(occupied_ports_pmf(c, 4).envelope),
    "envelope-M": lambda c: tuple(occupied_ports_pmf(2, c).envelope),
    "half_width-N": lambda c: probability_cost_bounds(c, 4, 0.1).tail_half_width,
    "half_width-M": lambda c: probability_cost_bounds(2, c, 0.1).tail_half_width,
    "cutoff-N": lambda c: sampling_cost_bounds(c, 4, 0.1).bunching_cutoff,
    "cutoff-M": lambda c: sampling_cost_bounds(2, c, 0.1).bunching_cutoff,
}


@pytest.mark.parametrize("count", [2.5, math.nan, "2", None])
@pytest.mark.parametrize("call", COUNTED.values(), ids=COUNTED)
def test_counts_must_be_integers(call, count):
    with pytest.raises(ValueError, match="integers only"):
        call(count)


@pytest.mark.parametrize("call", COUNTED.values(), ids=COUNTED)
def test_integer_valued_counts_give_int_results(call):
    assert call(3.0) == call(np.int64(3)) == call(3)


def test_pmf_accepts_integer_valued_counts():
    reference = occupied_ports_pmf(3, 5)
    for dist in (occupied_ports_pmf(3.0, 5.0), occupied_ports_pmf(np.int64(3), np.int16(5))):
        assert (dist.n_bosons, dist.n_ports, dist.exact) == (3, 5, reference.exact)
        assert np.array_equal(dist.envelope, reference.envelope)


def test_mode_sits_at_the_density_peak():
    for n_bosons, m_ports in [(20, 40), (20, 80), (50, 100), (50, 200)]:
        dist = occupied_ports_pmf(n_bosons, m_ports)
        rho = n_bosons / m_ports
        assert abs(pmf_mode(dist) - n_bosons / (1 + rho)) <= 1.0


def test_mean_occupied_ports():
    # the pmf's mean is MN / (M + N - 1), also past the range of the identity test
    for n_bosons, m_ports in [(1, 1), (7, 12), (50, 100), (150, 250)]:
        dist = occupied_ports_pmf(n_bosons, m_ports)
        mean = sum(Fraction(n) * p for n, p in zip(dist.support(), dist.exact))
        assert mean == Fraction(m_ports * n_bosons, m_ports + n_bosons - 1)


# ------------------------------------------------------------------- envelope


def test_envelope_balanced_density_is_plain_binomial():
    m_ports = 30
    for n in (0, 7, 15, 30):
        assert _binomial_envelope(m_ports, m_ports, n) == pytest.approx(
            math.comb(m_ports, n) / 2**m_ports, rel=1e-12
        )


def test_envelope_normalizes():
    total = sum(_binomial_envelope(50, 100, n) for n in range(0, 101))
    assert total == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n_bosons, n_ports", [(1, 1), (3, 5), (50, 100), (150, 250)])
def test_envelope_is_correctly_rounded(n_bosons, n_ports):
    for n in range(n_ports + 1):
        exact = Fraction(math.comb(n_ports, n) * n_bosons**n * n_ports ** (n_ports - n), (n_bosons + n_ports) ** n_ports)
        assert _binomial_envelope(n_bosons, n_ports, n) == float(exact), n


def test_envelope_large_arguments_use_log_space():
    value = _binomial_envelope(300, 600, 200)
    assert 0 < value < 1
    # cross-check against scipy's binomial pmf
    assert value == pytest.approx(scipy.stats.binom.pmf(200, 600, 1 / 3), rel=1e-9)


# -------------------------------------------------------------------- entropy


def test_entropy_values():
    assert _entropy(0.5) == pytest.approx(math.log(2), rel=1e-15)
    assert _entropy(0.0) == 0.0
    assert _entropy(1.0) == 0.0
    for z in (0.1, 0.25, 0.4):
        assert _entropy(z) == pytest.approx(_entropy(1 - z), rel=1e-12)


# ------------------------------------------------------------- tail crossings


def test_crossings_solve_the_entropy_equation():
    for rho in (0.1, 0.25, 0.5, 0.75, 1.0):
        delta_minus, delta_plus = solve_tail_crossings(rho)
        target = math.log1p(rho)
        assert abs(_entropy((1 - delta_minus) / (1 + rho)) - target) <= 1e-12
        assert abs(_entropy((1 + delta_plus) / (1 + rho)) - target) <= 1e-12
        assert 0 <= delta_minus < 1
        assert 0 <= delta_plus <= rho


def test_crossings_vanish_at_unit_density():
    assert solve_tail_crossings(1.0) == (0.0, 0.0)


def test_crossings_widen_as_density_drops():
    widths = [solve_tail_crossings(rho)[0] for rho in (0.1, 0.3, 0.5, 0.7, 0.9)]
    assert widths == sorted(widths, reverse=True)


def test_crossings_reject_bad_density():
    with pytest.raises(UnsupportedRegimeError):
        solve_tail_crossings(1.5)
    with pytest.raises(ValueError):
        solve_tail_crossings(0.0)
    with pytest.raises(ValueError, match="rho must be positive, got nan"):
        solve_tail_crossings(math.nan)
    # 1 + rho rounds to 1, so the peak 1 / (1 + rho) would close the right bracket
    with pytest.raises(ValueError, match=r"^rho must exceed 2\*\*-53 so that 1 \+ rho > 1, got 1e-30$"):
        solve_tail_crossings(1e-30)
    assert solve_tail_crossings(2**-52) == (1.0, 2.220446049250313e-16)


def test_bisect_refuses_a_bracket_without_a_sign_change():
    with pytest.raises(RuntimeError, match=r"^no sign change on \[0\.0, 1\.0\]$"):
        _bisect(lambda x: x + 1.0, 0.0, 1.0)


# ------------------------------------------------------------ tail half-width


def test_tail_half_width_closed_form():
    # ln(2 / (2/e)) = 1
    assert _tail_half_width(100, 1.0, 2 / math.e) == pytest.approx(
        2 * math.sqrt(2 / 100), rel=1e-12
    )


def test_tail_half_width_inverts_the_tail_bound():
    for epsilon in (0.3, 0.05, 0.004):
        delta = _tail_half_width(80, 0.5, epsilon)
        assert 2 * math.exp(-(delta**2) * 80 / (4 * 1.5)) == pytest.approx(epsilon, rel=1e-12)


def test_tail_half_width_scales_inverse_sqrt():
    assert _tail_half_width(400, 0.5, 0.1) == pytest.approx(
        _tail_half_width(100, 0.5, 0.1) / 2, rel=1e-12
    )


@pytest.mark.parametrize(
    "n_bosons, rho, epsilon",
    # a finite rho and epsilon whose product overflows, then 2 / epsilon overflowing
    [(1, 1e306, 1e-300), (3, 0.6, 1e-320)],
)
def test_tail_half_width_refuses_an_overflowing_width(n_bosons, rho, epsilon):
    with pytest.raises(ValueError, match="rho = .* and epsilon = "):
        _tail_half_width(n_bosons, rho, epsilon)


# ------------------------------------------------------------------- bunching


def test_bunching_cutoff_example():
    cutoff = _max_bunching_cutoff(20, 1.0, 0.05)
    assert cutoff == pytest.approx(math.log(400) / math.log(2), rel=1e-12)


def capped_configurations(n_bosons, n_ports, m):
    """Number of ways to put N bosons into M ports with at most m in each:
    sum_j (-1)^j C(M, j) C(N - j(m+1) + M - 1, M - 1), by inclusion-exclusion
    over the j ports forced to hold more than m."""
    return sum(
        (-1) ** j * math.comb(n_ports, j) * math.comb(n_bosons - j * (m + 1) + n_ports - 1, n_ports - 1)
        for j in range(min(n_ports, n_bosons // (m + 1)) + 1)
    )


@pytest.mark.parametrize("n_bosons, n_ports, m", [(4, 3, 1), (5, 5, 2), (6, 4, 3), (7, 3, 2)])
def test_capped_configurations_match_enumeration(n_bosons, n_ports, m):
    enumerated = sum(max(c) <= m for c in compositions(n_bosons, n_ports))
    assert capped_configurations(n_bosons, n_ports, m) == enumerated


@pytest.mark.parametrize("ports_per_boson", [1, 2, 3, 10], ids=["M=N", "M=2N", "M=3N", "M=10N"])
def test_bunching_cutoff_round_trip(ports_per_boson):
    # every output configuration is equally likely over the Haar measure, so
    # the largest occupation exceeds the cutoff with exactly the capped
    # configurations' missing share, compared here in rationals
    for n_bosons in (5, 10, 20, 50, 100, 200, 500, 1000):
        n_ports = ports_per_boson * n_bosons
        total = math.comb(n_ports + n_bosons - 1, n_bosons)
        for epsilon in (0.5, 0.1, 0.01, 1e-4):
            m = math.floor(_max_bunching_cutoff(n_bosons, n_bosons / n_ports, epsilon))
            escape = Fraction(total - capped_configurations(n_bosons, n_ports, m), total)
            assert escape <= Fraction(epsilon), (n_bosons, n_ports, epsilon, m)


def test_bunching_cutoff_monotone_in_epsilon():
    cuts = [_max_bunching_cutoff(30, 0.5, eps) for eps in (0.2, 0.1, 0.02, 0.004)]
    assert cuts == sorted(cuts)


def test_bunching_cutoff_no_collision_limit_is_small():
    assert _max_bunching_cutoff(50, 0.02, 0.05) < 4.0


# ------------------------------------------------------------------ the bounds


def test_probability_bounds_figure_case():
    report = probability_cost_bounds(50, 100, 0.05)
    assert report.tail_half_width == pytest.approx(
        2 * math.sqrt(1.5 / 50 * math.log(40)), rel=1e-12
    )
    assert report.prob_lower_log2 <= report.prob_upper_log2
    assert report.n_minus == pytest.approx((1 - report.tail_half_width) * 50 / 1.5)
    assert report.n_plus == pytest.approx((1 + report.tail_half_width) * 50 / 1.5)


def test_bound_bases_at_unit_density():
    # at rho = 1 and vanishing half-width the per-boson bases approach
    # sqrt(2) below and sqrt(3) above
    report = probability_cost_bounds(10**6, 10**6, 0.05)
    lower_base = (report.prob_lower_log2 - math.log2(10**6)) / 10**6
    upper_base = (report.prob_upper_log2 - math.log2(10**6)) / 10**6
    assert abs(lower_base - 0.5) < 0.01  # log2 sqrt(2)
    assert abs(upper_base - math.log2(math.sqrt(3))) < 0.01


def test_bounds_flag_vanishing_density_branch():
    report = probability_cost_bounds(16, 16 * 64, 0.1)
    assert report.right_tail_absent
    assert report.radix == 1.0
    # with radix 1 the upper bound collapses to the collision-free N 2^N
    assert report.prob_upper_log2 == pytest.approx(math.log2(16) + 16, rel=1e-12)


def test_sampling_bounds_equivalent_boson_count():
    report = sampling_cost_bounds(20, 60, 0.05)
    assert report.n_equiv == 15.0
    assert report.bunching_cutoff is not None
    assert report.sample_lower_log2 <= report.sample_upper_log2
    assert report.sample_lower_log2 >= report.prob_lower_log2


def test_sampling_bounds_reduce_to_no_collision_estimate():
    n = 40
    report = sampling_cost_bounds(n, n**3, 0.05)
    assert report.radix == 1.0
    expected_upper = np.logaddexp2(
        math.log2(report.bunching_cutoff + 2) + math.log2(n) + n,
        math.log2(n**3) + 2 * math.log2(n),
    )
    assert report.sample_upper_log2 == pytest.approx(float(expected_upper), rel=1e-12)


def test_sampling_bounds_square_case_monotone():
    report = sampling_cost_bounds(30, 30, 0.05)
    assert report.sample_lower_log2 <= report.sample_upper_log2
    assert report.prob_lower_log2 <= report.prob_upper_log2


def test_bounds_reject_bad_inputs():
    with pytest.raises(UnsupportedRegimeError):
        probability_cost_bounds(10, 5, 0.1)
    with pytest.raises(ValueError):
        sampling_cost_bounds(10, 20, 1.5)
    with pytest.raises(ValueError, match=r"^epsilon must lie in \(0, 1\), got 1\.0$"):
        probability_cost_bounds(10, 20, 1.0)


def _bounds_document(report):
    # the document that ``bosonbunch bounds`` prints
    return {**dataclasses.asdict(report), "formulas": cli._FORMULAS}


def test_bounds_report_serializes():
    doc = _bounds_document(sampling_cost_bounds(12, 24, 0.1))
    for key in ("n_bosons", "rho", "tail_half_width", "radix", "n_equiv", "formulas"):
        assert key in doc


def test_probability_bounds_dict_is_pinned():
    # keys, their order, values and formulas of the report
    doc = json.dumps(_bounds_document(probability_cost_bounds(12, 12, 0.1)))
    digest = hashlib.sha256(doc.encode()).hexdigest()
    assert digest == "bed439f9185f4039fd6ffa53cff235af8b45c9eb58d582a1a825dae5ae237b4c"


# ----------------------------------------------------------- joint properties


def test_tail_mass_beats_the_exponential_bound():
    # the pmf mass inside (1 +- delta) N / (1 + rho) exceeds
    # 1 - 2 exp(-delta^2 N / (4 (1 + rho)))
    n_bosons, m_ports = 50, 100
    rho = 0.5
    dist = occupied_ports_pmf(n_bosons, m_ports)
    for epsilon in (0.1, 0.01):
        delta = _tail_half_width(n_bosons, rho, epsilon)
        center = n_bosons / (1 + rho)
        lo = math.ceil((1 - delta) * center)
        hi = math.floor((1 + delta) * center)
        mass = sum(
            p for n, p in zip(dist.support(), dist.exact) if lo <= n <= hi
        )
        assert float(mass) > 1 - 2 * math.exp(-(delta**2) * n_bosons / (4 * (1 + rho)))


def test_envelope_dominates_both_tails_of_figure_case():
    n_bosons, m_ports = 50, 100
    dist = occupied_ports_pmf(n_bosons, m_ports)
    delta_minus, delta_plus = solve_tail_crossings(0.5)
    center = n_bosons / 1.5
    n_minus = (1 - delta_minus) * center
    n_plus = (1 + delta_plus) * center
    left = [n for n in dist.support() if n <= n_minus]
    right = [n for n in dist.support() if n >= n_plus]
    assert left and right
    for n in left + right:
        assert dist.envelope[n - 1] >= dist.pmf[n - 1], n


def test_occupied_port_counts_match_pmf_over_haar_ensemble():
    # smaller sibling of the acceptance check: pool sampled occupied-port
    # counts over many unitaries and compare with the analytic pmf
    n_bosons, m_ports = 3, 6
    counts = np.zeros(n_bosons, dtype=int)
    for s in range(100):
        u = haar_unitary(m_ports, seed=90_000 + s)
        batch = sample_batch(u, n_bosons, 30, master_seed=91_000 + s)
        for seq in batch.samples:
            counts[np.count_nonzero(seq.configuration(m_ports)) - 1] += 1
    expected = occupied_ports_pmf(n_bosons, m_ports).pmf * counts.sum()
    _, pvalue = scipy.stats.chisquare(counts, expected * counts.sum() / expected.sum())
    assert pvalue > 0.001
