"""Statistics of the number of occupied output ports, and cost-bound reports.

Averaged over Haar-random interferometers every output configuration is
equally likely, so the number n of occupied ports follows a hypergeometric-
style law: choose n of the M ports, then distribute the remaining N - n
bosons among them. That pmf is bell-shaped around N / (1 + rho) and its
tails fall under a binomial envelope with success rate x = rho / (1 + rho),
which is what turns per-configuration operation counts into bounds that
hold for all but an epsilon fraction of interferometers.

Exact identities (normalization, mean) are kept in big-integer rationals;
probabilistic quantities are IEEE doubles, with very large binomials moved
to log-gamma space.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from fractions import Fraction
from typing import Iterator

import numpy as np

from .errors import UnsupportedRegimeError, _check_boson_count

RATIONAL_LIMIT = 400  # above this N + M, binomial doubles come from log-gamma
BISECTION_ITERATIONS = 200
CROSSING_TOLERANCE = 1e-12

__all__ = [
    "PortDistribution",
    "BoundsReport",
    "occupied_ports_pmf",
    "mean_occupied_ports",
    "binomial_envelope",
    "entropy",
    "solve_tail_crossings",
    "tail_half_width",
    "max_occupation_cdf",
    "max_bunching_cutoff",
    "probability_cost_bounds",
    "sampling_cost_bounds",
]


@dataclass(frozen=True)
class PortDistribution:
    """pmf of the occupied-port count n = 1..N with its binomial envelope.

    ``exact`` carries the pmf as rationals (the identity anchor); ``pmf`` and
    ``envelope`` are the double-precision pmf and envelope values at the same
    support points. ``x`` is the envelope success rate rho / (1 + rho).
    """

    n_bosons: int
    n_ports: int
    x: float
    exact: tuple[Fraction, ...]
    pmf: np.ndarray
    envelope: np.ndarray

    def support(self) -> range:
        return range(1, self.n_bosons + 1)

    def rows(self) -> Iterator[tuple[int, Fraction, float, float]]:
        for i, n in enumerate(self.support()):
            yield n, self.exact[i], float(self.pmf[i]), float(self.envelope[i])

    def mode(self) -> int:
        return 1 + max(range(self.n_bosons), key=lambda i: self.exact[i])

    def write_csv(self, fp, regions: tuple[float, float] | None = None) -> None:
        """Emit n, P_exact, P, B rows; with ``regions`` = (n_minus, n_plus)
        a fifth column tags each row left-tail / core / right-tail."""
        header = "n,P_exact,P,B"
        if regions is not None:
            header += ",region"
        fp.write(header + "\n")
        for n, exact, pmf, env in self.rows():
            line = f"{n},{exact},{pmf!r},{env!r}"
            if regions is not None:
                n_minus, n_plus = regions
                tag = "left-tail" if n <= n_minus else "right-tail" if n >= n_plus else "core"
                line += f",{tag}"
            fp.write(line + "\n")


def _envelope_exact(n_bosons: int, n_ports: int, n: int) -> Fraction:
    x = Fraction(n_bosons, n_bosons + n_ports)
    return math.comb(n_ports, n) * x**n * (1 - x) ** (n_ports - n)


def binomial_envelope(n_bosons: int, n_ports: int, n: int) -> float:
    """Binomial term C(M, n) x^n (1-x)^(M-n) at x = rho / (1 + rho)."""
    if n_bosons < 1 or n_ports < 1:
        raise ValueError("n_bosons and n_ports must be >= 1")
    if not 0 <= n <= n_ports:
        raise ValueError(f"n must lie in 0..{n_ports}, got {n}")
    if n_bosons + n_ports <= RATIONAL_LIMIT:
        return float(_envelope_exact(n_bosons, n_ports, n))
    log_x = math.log(n_bosons) - math.log(n_bosons + n_ports)
    log_1mx = math.log(n_ports) - math.log(n_bosons + n_ports)
    log_comb = (
        math.lgamma(n_ports + 1) - math.lgamma(n + 1) - math.lgamma(n_ports - n + 1)
    )
    return math.exp(log_comb + n * log_x + (n_ports - n) * log_1mx)


def occupied_ports_pmf(n_bosons: int, n_ports: int) -> PortDistribution:
    """Distribution of how many output ports end up occupied, for N <= M.

    P(n) = C(M, n) C(N-1, n-1) / C(M+N-1, M-1), exact rationals. The rows
    sum to one identically (a Vandermonde convolution) and the mean is
    MN / (M + N - 1); both identities are preserved bit-exactly.
    """
    n_bosons, n_ports = _check_boson_count(n_bosons, n_ports)
    denominator = math.comb(n_ports + n_bosons - 1, n_ports - 1)
    exact = tuple(
        Fraction(math.comb(n_ports, n) * math.comb(n_bosons - 1, n - 1), denominator)
        for n in range(1, n_bosons + 1)
    )
    envelope = np.array(
        [binomial_envelope(n_bosons, n_ports, n) for n in range(1, n_bosons + 1)]
    )
    return PortDistribution(
        n_bosons=n_bosons,
        n_ports=n_ports,
        x=n_bosons / (n_bosons + n_ports),
        exact=exact,
        pmf=np.array([float(p) for p in exact]),
        envelope=envelope,
    )


def mean_occupied_ports(n_bosons: int, n_ports: int) -> float:
    """Average occupied-port count MN / (M + N - 1)."""
    if n_bosons < 1 or n_ports < 1:
        raise ValueError("n_bosons and n_ports must be >= 1")
    return float(Fraction(n_ports * n_bosons, n_ports + n_bosons - 1))


def entropy(z: float) -> float:
    """Natural-log binary entropy, with H(0) = H(1) = 0 by continuity."""
    if not 0.0 <= z <= 1.0:
        raise ValueError(f"entropy is defined on [0, 1], got {z}")
    if z == 0.0 or z == 1.0:
        return 0.0
    return -z * math.log(z) - (1.0 - z) * math.log1p(-z)


def _bisect(f, lo: float, hi: float) -> float:
    f_lo, f_hi = f(lo), f(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if (f_lo < 0.0) == (f_hi < 0.0):
        raise RuntimeError(f"no sign change on [{lo}, {hi}]")
    for _ in range(BISECTION_ITERATIONS):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid < 0.0) == (f_lo < 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
    return 0.5 * (lo + hi)


def solve_tail_crossings(rho: float) -> tuple[float, float]:
    """Half-widths (delta_minus, delta_plus) where the occupied-port pmf's
    tails pass under the binomial envelope, from the entropy equation
    H((1 +- delta) / (1 + rho)) = ln(1 + rho).

    The left root lies below the peak position 1 / (1 + rho) and the right
    root above it; each is found by bisection to residual 1e-12 or better.
    At rho = 1 both sides touch at the peak, so both half-widths are zero.
    Only densities 0 < rho <= 1 admit solutions.
    """
    if rho <= 0.0:
        raise ValueError(f"rho must be positive, got {rho}")
    if rho > 1.0:
        raise UnsupportedRegimeError(
            f"the crossing equation has no solution for rho = {rho} > 1"
        )
    target = math.log1p(rho)
    peak = 1.0 / (1.0 + rho)
    f = lambda z: entropy(z) - target
    z_left = _bisect(f, 0.0, peak)
    z_right = _bisect(f, peak, 1.0)
    delta_minus = 1.0 - (1.0 + rho) * z_left
    delta_plus = (1.0 + rho) * z_right - 1.0
    for z in (z_left, z_right):
        if abs(entropy(z) - target) > CROSSING_TOLERANCE:
            raise RuntimeError(
                f"bisection residual {abs(entropy(z) - target):.3e} exceeds"
                f" {CROSSING_TOLERANCE:.0e} at rho = {rho}"
            )
    return delta_minus, delta_plus


def tail_half_width(n_bosons: int, rho: float, epsilon: float) -> float:
    """Half-width delta = 2 sqrt((1 + rho) / N * ln(2 / epsilon)) such that
    the occupied-port count stays within (1 +- delta) N / (1 + rho) except
    with probability epsilon."""
    if n_bosons < 1:
        raise ValueError(f"n_bosons must be >= 1, got {n_bosons}")
    if not rho > 0.0:
        raise ValueError(f"rho must be positive, got {rho}")
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    return 2.0 * math.sqrt((1.0 + rho) / n_bosons * math.log(2.0 / epsilon))


def max_occupation_cdf(n_bosons: int, n_ports: int, m: float) -> float:
    """Approximate probability that no output port holds more than m bosons:
    [1 - (rho / (1 + rho))^(m+1)]^M."""
    if n_bosons < 1 or n_ports < 1:
        raise ValueError("n_bosons and n_ports must be >= 1")
    if not m >= 0:
        raise ValueError(f"m must be >= 0, got {m}")
    rho = n_bosons / n_ports
    return (1.0 - (rho / (1.0 + rho)) ** (m + 1.0)) ** n_ports


def max_bunching_cutoff(n_bosons: int, rho: float, epsilon: float) -> float:
    """Occupation level m = ln(N / (rho epsilon)) / ln((1 + rho) / rho) that
    the largest port occupation stays under with probability 1 - epsilon."""
    if n_bosons < 1:
        raise ValueError(f"n_bosons must be >= 1, got {n_bosons}")
    if not 0.0 < rho <= 1.0:
        raise ValueError(f"rho must lie in (0, 1], got {rho}")
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    return math.log(n_bosons / (rho * epsilon)) / math.log((1.0 + rho) / rho)


_FORMULAS = {
    "tail_half_width": "2*sqrt((1+rho)/N*ln(2/epsilon))",
    "radix": "max(1, (1+rho)/(1+delta))",
    "bunching_cutoff": "ln(N/(rho*epsilon))/ln((1+rho)/rho)",
    "prob_lower_log2": "log2(N * 2^((1-delta)*N/(1+rho)))",
    "prob_upper_log2": "log2(N * (1+r)^(N/r))",
    "sample_lower_log2": "log2(N * 2^((1-delta)*N/(1+rho)) + M*N^2)",
    "sample_upper_log2": "log2((m+2) * N * (1+r)^(N/r) + M*N^2)",
    "n_equiv": "N/(1+rho)",
}


@dataclass(frozen=True)
class BoundsReport:
    """Operation-count bounds holding for all but an epsilon fraction of
    Haar-random interferometers, in log2 op-units with constants set to one.

    ``prob_*`` bound the cost of one output probability; ``sample_*`` (when
    filled) bound the cost of one chain-rule sample, which adds the M*N^2
    weight-evaluation overhead and the bunching-cutoff prefactor. ``n_equiv``
    is the boson count whose collision-free sampling problem the instance is
    at least as hard as. ``right_tail_absent`` flags the delta >= rho branch
    where the effective radix r collapses to one.
    """

    n_bosons: int
    n_ports: int
    rho: float
    epsilon: float
    tail_half_width: float
    radix: float
    n_minus: float
    n_plus: float
    prob_lower_log2: float
    prob_upper_log2: float
    right_tail_absent: bool
    n_equiv: float
    bunching_cutoff: float | None = None
    sample_lower_log2: float | None = None
    sample_upper_log2: float | None = None

    def as_dict(self) -> dict:
        return {**asdict(self), "formulas": dict(_FORMULAS)}


def probability_cost_bounds(n_bosons: int, n_ports: int, epsilon: float) -> BoundsReport:
    """Bounds on the operation count of one output probability.

    With probability at least 1 - epsilon over the Haar measure the count
    lies between N 2^((1-delta) N / (1+rho)) and N (1+r)^(N/r), where r is
    the effective radix max(1, (1+rho)/(1+delta)).
    """
    n_bosons, n_ports = _check_boson_count(n_bosons, n_ports)
    rho = n_bosons / n_ports
    delta = tail_half_width(n_bosons, rho, epsilon)
    radix = max(1.0, (1.0 + rho) / (1.0 + delta))
    log2_n = math.log2(n_bosons)
    lower = log2_n + (1.0 - delta) * n_bosons / (1.0 + rho)
    upper = log2_n + n_bosons / radix * math.log2(1.0 + radix)
    return BoundsReport(
        n_bosons=n_bosons,
        n_ports=n_ports,
        rho=rho,
        epsilon=epsilon,
        tail_half_width=delta,
        radix=radix,
        n_minus=(1.0 - delta) * n_bosons / (1.0 + rho),
        n_plus=(1.0 + delta) * n_bosons / (1.0 + rho),
        prob_lower_log2=lower,
        prob_upper_log2=upper,
        right_tail_absent=delta >= rho,
        n_equiv=n_bosons * n_ports / (n_ports + n_bosons),
    )


def sampling_cost_bounds(n_bosons: int, n_ports: int, epsilon: float) -> BoundsReport:
    """Bounds on the operation count of one full chain-rule sample.

    Extends the per-probability bounds with the M N^2 weight-evaluation
    term and, on the upper side, the (m + 2) prefactor from summing the
    per-step costs under the bunching cutoff m.
    """
    base = probability_cost_bounds(n_bosons, n_ports, epsilon)
    cutoff = max_bunching_cutoff(n_bosons, base.rho, epsilon)
    overhead_log2 = math.log2(n_ports) + 2.0 * math.log2(n_bosons)
    sample_lower = float(np.logaddexp2(base.prob_lower_log2, overhead_log2))
    sample_upper = float(
        np.logaddexp2(math.log2(cutoff + 2.0) + base.prob_upper_log2, overhead_log2)
    )
    return replace(
        base,
        bunching_cutoff=cutoff,
        sample_lower_log2=sample_lower,
        sample_upper_log2=sample_upper,
    )
