"""Checks of the chain (``sampler`` holds only the chain): the brute-force
oracle and the fit statistics against it.

The oracle enumerates every configuration through ``output_probability``
and shares no step with the chain.
"""

from __future__ import annotations

import math
import numbers
import sys
from collections import Counter
from itertools import combinations_with_replacement
from typing import Mapping

import numpy as np

from .errors import _check_boson_count, _check_counts
from .matrices import UnitaryMatrix, _check_unitary
from .permanent import output_probability
from .sampler import SampleBatch

BRUTE_FORCE_LIMIT = 100_000
MIN_EXPECTED = 5.0

__all__ = [
    "BRUTE_FORCE_LIMIT",
    "brute_force_distribution",
    "empirical_counts",
    "total_variation_distance",
    "chi_square_fit",
]


def brute_force_distribution(
    u: UnitaryMatrix, n_bosons: int
) -> dict[tuple[int, ...], float]:
    """Exact output distribution by enumerating every configuration.

    Refuses above BRUTE_FORCE_LIMIT configurations; this is the oracle the
    sampler is validated against, so it stays deliberately independent of
    the chain-rule machinery.
    """
    _check_unitary(u, "brute_force_distribution")
    m_ports = u.dim
    n_bosons, _ = _check_boson_count(n_bosons, m_ports)
    n_configs = math.comb(m_ports + n_bosons - 1, n_bosons)
    if n_configs > BRUTE_FORCE_LIMIT:
        raise ValueError(
            f"{n_configs} configurations exceed the enumeration limit {BRUTE_FORCE_LIMIT}"
        )
    out: dict[tuple[int, ...], float] = {}
    for multiset in combinations_with_replacement(range(1, m_ports + 1), n_bosons):
        config = np.bincount(np.asarray(multiset), minlength=m_ports + 1)[1:]
        out[tuple(int(c) for c in config)] = output_probability(u, config)
    return out


def empirical_counts(batch: SampleBatch) -> Counter[tuple[int, ...]]:
    """Configuration frequency table of a batch."""
    return Counter(tuple(seq.configuration(batch.n_ports).tolist()) for seq in batch.samples)


def _check_probabilities(counts: Mapping[tuple, int], probabilities: Mapping[tuple, float]) -> int:
    """The total of ``counts`` through the count gate, as a Python int (an
    int64 sum can overflow near 2**63); ValueError unless the probabilities are
    real numbers (not strings, booleans, None or complex), non-negative and
    summing to one within 1e-9 (exact totals reach 1e-14)."""
    total = sum(_check_counts(list(counts.values()), "counts").tolist())
    values = list(probabilities.values())
    # numpy parses "0.5" and True as floats, so look at the entries
    bad = [v for v in values if not isinstance(v, numbers.Real) or isinstance(v, bool)]
    if bad:
        raise ValueError(f"probabilities must be real numbers, got {bad[0]!r}")
    p = np.array(values, dtype=np.float64)
    if p.ndim != 1 or not ((p >= 0).all() and abs(p.sum() - 1.0) <= 1e-9):
        raise ValueError(f"probabilities must be non-negative and sum to 1 within 1e-9, got {p.sum()}")
    return total


def total_variation_distance(
    counts: Mapping[tuple, int], probabilities: Mapping[tuple, float]
) -> float:
    total = _check_probabilities(counts, probabilities)
    keys = set(counts) | set(probabilities)
    return 0.5 * sum(
        abs(counts.get(k, 0) / total - probabilities.get(k, 0.0)) for k in keys
    )


def chi_square_fit(
    counts: Mapping[tuple, int],
    probabilities: Mapping[tuple, float],
) -> tuple[float, float]:
    """Goodness-of-fit statistic and p-value of observed counts against an
    exact distribution.

    Bins with expected count below ``MIN_EXPECTED`` are pooled, the standard
    validity fix for sparse cells. The statistic is Pearson's, summed as
    ``scipy.stats.chisquare`` sums it, and the p-value its upper tail with
    one degree of freedom fewer than the bins. A positive count on a
    configuration whose probability is zero or missing is an immediate
    failure, (inf, 0.0); a zero count there is ignored, as in the total
    variation distance.
    """
    total = _check_probabilities(counts, probabilities)
    if any(n and not probabilities.get(k) for k, n in counts.items()):
        return math.inf, 0.0

    f_obs: list[float] = []
    f_exp: list[float] = []
    pooled_obs = 0.0
    pooled_exp = 0.0
    for key, p in probabilities.items():
        observed = counts.get(key, 0)
        expected = p * total
        if expected < MIN_EXPECTED:
            pooled_obs += observed
            pooled_exp += expected
        else:
            f_obs.append(observed)
            f_exp.append(expected)
    if pooled_exp > 0.0:
        f_obs.append(pooled_obs)
        f_exp.append(pooled_exp)
    if len(f_obs) < 2:
        return 0.0, 1.0
    exp = np.asarray(f_exp)
    exp *= total / exp.sum()
    with np.errstate(over="ignore"):  # a bin expected near the smallest double overflows to inf
        statistic = float(((np.asarray(f_obs, dtype=np.float64) - exp) ** 2 / exp).sum())
    return statistic, _chi_square_sf(statistic, len(f_obs) - 1)


def _chi_square_sf(statistic: float, dof: int) -> float:
    """Upper tail of the chi-square distribution: the regularised upper
    incomplete gamma Q(a, x) at a = dof / 2, x = statistic / 2, with the
    factor x^a e^-x / Gamma(a) taken in log space. Below x = a + 1 it is one
    minus the series of P (A&S 6.5.29), above it Lentz's continued fraction
    for Q (A&S 6.5.31); a tail below the smallest double, or an infinite
    statistic, comes out 0."""
    a, x = dof / 2, statistic / 2
    if not x > 0.0:
        return 1.0
    if x == math.inf:
        return 0.0
    log_front = a * math.log(x) - x - math.lgamma(a)
    eps, tiny = sys.float_info.epsilon, sys.float_info.min
    if x < a + 1.0:
        term = total = 1.0 / a
        n = a
        while term > total * eps:
            n += 1.0
            term *= x / n
            total += term
        return 1.0 - math.exp(log_front) * total
    b = x + 1.0 - a
    c, d = 1.0 / tiny, 1.0 / b
    h, i, delta = d, 0, 0.0
    while abs(delta - 1.0) > eps:
        i += 1
        an, b = i * (a - i), b + 2.0
        d = 1.0 / (an * d + b or tiny)
        c = b + an / c or tiny
        delta = c * d
        h *= delta
    return math.exp(log_front + math.log(h))
