"""Matrix permanents and the cost model of their evaluation.

Four routes are provided: the literal permutation sum (cross-check oracle),
Ryser's inclusion-exclusion over a table of column-subset sums, Glynn's
signed row-sum average, and a roots-of-unity expansion for matrices built
from repeated columns. Glynn is the expansion with every multiplicity one.
The expansion gives each summed column a variable over the roots of unity
of its radix (multiplicity + 1) and builds the row sums of every variable
assignment in tables of at most ``INNER_STATES`` states, so a state costs
one vectorised row product rather than a Python step; pinning the variable
of a least-repeated column shrinks the enumeration by that column's factor.

The cost is reported as ``gray_steps``: the enumerated states less one,
the moves a Gray walk over them would make, though no walk is taken.
``cost_estimate`` gives the same cost in closed form, N row products per
state, N * prod(m_l + 1) / min(m_l + 1) op units in all.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import _integer_entries
from .matrices import UnitaryMatrix

NAIVE_LIMIT = 10
GRAY_LIMIT = 30
# cap on the states of one expansion table: 4096 states of 30 rows is 2 MB
INNER_STATES = 4096

__all__ = [
    "CostEstimate",
    "permanent_naive",
    "permanent_ryser",
    "permanent_glynn",
    "repeated_column_expansion",
    "permanent_repeated",
    "cost_estimate",
    "output_probability",
]


def _as_square(matrix, limit: int, algorithm: str) -> np.ndarray:
    a = np.asarray(matrix, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError(f"{algorithm} needs a square matrix, got shape {a.shape}")
    if a.shape[0] > limit:
        raise ValueError(
            f"{algorithm} is capped at dimension {limit}, got {a.shape[0]}"
        )
    return a


def permanent_naive(matrix) -> complex:
    """Permanent as the literal sum over all row-to-column assignments.

    Factorial cost, capped at dimension 10; this is the independent oracle
    the fast evaluators are checked against.
    """
    a = _as_square(matrix, NAIVE_LIMIT, "permanent_naive")
    n = a.shape[0]
    rows = np.arange(n)
    total = 0j
    perms = itertools.permutations(range(n))
    while True:
        chunk = list(itertools.islice(perms, 40320))
        if not chunk:
            break
        idx = np.array(chunk, dtype=np.intp)
        total += a[rows, idx].prod(axis=1).sum()
    return complex(total)


def permanent_ryser(matrix) -> complex:
    """Ryser's inclusion-exclusion over column subsets, in the centred form of
    Nijenhuis and Wilf: every row sum starts from a_in - (1/2) sum_j a_ij and
    runs over the subsets of the first n - 1 columns, which halves the work
    and keeps the cancellation small (about 2e-15 relative on rank-one
    matrices at n = 20, where the plain form loses up to 2e-12).

    Shares no code with the expansion kernel, so it cross-checks Glynn and
    the repeated-column expansion.
    """
    a = _as_square(matrix, GRAY_LIMIT, "permanent_ryser")
    n = a.shape[0]
    # one table of row sums over the subsets of the first k columns (at most
    # INNER_STATES), shifted once per subset of the remaining ones
    k = min(n - 1, INNER_STATES.bit_length() - 1)
    sums = (a[:, -1] - a.sum(axis=1) / 2)[:, None]
    signs = np.ones(1)
    for j in range(k):
        sums = np.hstack([sums, sums + a[:, j : j + 1]])
        signs = np.concatenate([signs, -signs])
    total = 0j
    for subset in itertools.product((0.0, 1.0), repeat=n - 1 - k):
        shifted = sums + (a[:, k : n - 1] @ np.array(subset))[:, None]
        total += (-1) ** sum(subset) * (signs @ shifted.prod(axis=0))
    return complex((-1) ** (n - 1) * 2 * total)


def permanent_glynn(matrix) -> complex:
    """Signed average of row-sum products over +-1 auxiliary variables.

    The first variable is pinned to +1 and the other n-1 are summed: this is
    ``repeated_column_expansion`` with every multiplicity one.
    """
    a = _as_square(matrix, GRAY_LIMIT, "permanent_glynn")
    value, _ = repeated_column_expansion(a, [1] * a.shape[0])
    return value


@lru_cache(maxsize=None)
def _unit_roots(order: int) -> np.ndarray:
    k = np.arange(order)
    roots = np.exp(2j * np.pi * k / order)
    # exact quarter turns, so that +-1 variables keep real matrices real
    quarter = 4 * k % order == 0
    roots[quarter] = np.array([1, 1j, -1, -1j])[4 * k[quarter] // order]
    roots.flags.writeable = False
    return roots


def _expansion_sum(block: np.ndarray, radices: Sequence[int], fix_minimal: bool, term):
    """Sum of ``term(p, t)`` over the states of the roots-of-unity expansion,
    returned with the number of states.

    Column j of the K-row ``block`` carries a variable over the
    ``radices[j]``-th roots of unity. With ``fix_minimal`` the variable of
    the first least-radix column is pinned to 1; the others are summed, so
    there are prod(summed radices) states. ``term`` receives chunks of them:
    ``p[s]`` is the product of state s's variables and ``t[:, s]`` its K row
    sums. The summed columns, sorted by radix, fill an inner table of at most
    ``INNER_STATES`` states, built column by column as a broadcast sum; each
    tuple of the remaining (outer) variables shifts that table once.
    """
    n_rows = block.shape[0]
    fixed = radices.index(min(radices)) if fix_minimal else None
    summed = sorted((j for j in range(len(radices)) if j != fixed), key=radices.__getitem__)
    n_inner, size = 0, 1
    while n_inner < len(summed) and size * radices[summed[n_inner]] <= INNER_STATES:
        size *= radices[summed[n_inner]]
        n_inner += 1

    p = np.ones(1, dtype=np.complex128)
    t = np.zeros((n_rows, 1), dtype=np.complex128)
    if fixed is not None:
        t[:, 0] = block[:, fixed]
    for j in summed[:n_inner]:
        roots = _unit_roots(radices[j])
        t = (t[:, None, :] + np.multiply.outer(block[:, j], roots)[:, :, None]).reshape(n_rows, -1)
        p = np.multiply.outer(roots, p).ravel()

    outer = summed[n_inner:]
    states = math.prod(radices[j] for j in summed)
    if not outer:
        return term(p, t), states
    cols = block[:, outer]
    total = sum(
        term(p * math.prod(xs), t + (cols @ np.array(xs))[:, None])
        for xs in itertools.product(*(_unit_roots(radices[j]) for j in outer))
    )
    return total, states


def _row_products(p: np.ndarray, t: np.ndarray) -> complex:
    return p @ t.prod(axis=0)


def _repeated_permanent(
    block: np.ndarray, mult: list[int], fix_minimal: bool = True
) -> tuple[complex, int]:
    """Permanent of ``block`` with column j repeated ``mult[j]`` times, with
    the number of enumerated states; no validation."""
    total, states = _expansion_sum(block, [m + 1 for m in mult], fix_minimal, _row_products)
    scale = math.prod(map(math.factorial, mult)) / states
    return complex(total * scale), states


def repeated_column_expansion(
    column_block, multiplicities: Sequence[int], fix_minimal: bool = True
) -> tuple[complex, int]:
    """Permanent of the matrix whose j-th column of ``column_block`` appears
    ``multiplicities[j]`` times, returned with the Gray-step count.

    Each column j carries an auxiliary variable ranging over the
    (multiplicities[j] + 1)-th roots of unity; averaging the variable-weighted
    row-sum products filters out exactly the assignments that use every column
    the prescribed number of times, which recovers the standard permanent
    after multiplying by the product of multiplicity factorials.

    With ``fix_minimal`` the variable of the first least-repeated column is
    pinned to 1 and dropped from the enumeration, which is valid precisely
    because that column's multiplicity is minimal. Every state's row sums are
    built afresh from table entries, not updated step by step, so there is no
    drift along the walk. The returned count is the number of states less
    one, the steps a Gray walk over them would take:
    prod(m_j + 1) / min(m_j + 1) - 1 with the pin, prod(m_j + 1) - 1 without.
    """
    a = np.asarray(column_block, dtype=np.complex128)
    mult = _integer_entries(multiplicities, "multiplicities").tolist()
    if not mult:
        raise ValueError("multiplicities must be non-empty")
    if min(mult) < 1:
        raise ValueError(f"multiplicities must all be >= 1, got {mult}")
    n_cols = len(mult)
    n_rows = sum(mult)
    if a.ndim != 2 or a.shape != (n_rows, n_cols):
        raise ValueError(
            f"column block must have shape ({n_rows}, {n_cols}) for multiplicities"
            f" {mult}, got {a.shape}"
        )
    value, states = _repeated_permanent(a, mult, fix_minimal)
    return value, states - 1


def permanent_repeated(column_block, multiplicities: Sequence[int]) -> complex:
    """Standard permanent of an N x N matrix given as distinct columns plus
    their repetition counts (sum of counts = N)."""
    value, _ = repeated_column_expansion(column_block, multiplicities)
    return value


@dataclass(frozen=True)
class CostEstimate:
    """Operation count of the repeated-column evaluation, exact integers.

    op_units = N * bunching_product / min_factor, where bunching_product is
    prod(m_l + 1) over occupied ports and min_factor its smallest term.
    """

    op_units: int
    bunching_product: int
    min_factor: int


def _pinned_states(counts) -> int:
    """States of one expansion over ports holding ``counts`` bosons (each at
    least one) with a least-count port pinned: prod(c + 1) / min(c + 1)."""
    factors = [c + 1 for c in counts]
    return math.prod(factors) // min(factors)


def cost_estimate(occupations: Sequence[int]) -> CostEstimate:
    """Evaluation cost of one output probability for the given configuration."""
    occ = _integer_entries(occupations, "occupations").tolist()
    if any(m < 0 for m in occ):
        raise ValueError(f"occupations must be non-negative, got {occ}")
    counts = [m for m in occ if m > 0]
    if not counts:
        raise ValueError("configuration holds no bosons")
    return CostEstimate(
        op_units=sum(counts) * _pinned_states(counts),
        bunching_product=math.prod(c + 1 for c in counts),
        min_factor=min(counts) + 1,
    )


def output_probability(u, configuration, input_ports: Sequence[int] | None = None) -> float:
    """Probability of detecting the given output configuration.

    ``configuration`` is the per-port boson count vector (length M, summing
    to N); bosons enter input ports 1..N unless ``input_ports`` overrides.
    The value is |permanent|^2 over the multiplicity factorials.

    Raises ``ValueError`` unless the counts are M non-negative integers
    (integer-valued floats pass) holding at least one boson, with N <= M for
    the default ports; explicit ports must be N distinct integers in 1..M.
    Past these checks the cost is one call of the expansion kernel,
    prod(m_l + 1) / min(m_l + 1) states of N row sums over the occupied
    ports l.
    """
    if not isinstance(u, UnitaryMatrix):
        raise TypeError("output_probability expects a UnitaryMatrix")
    m_ports = u.matrix.shape[0]
    occ = _integer_entries(configuration, "configuration")
    if occ.shape[0] != m_ports:
        raise ValueError(
            f"configuration must have one entry per port ({m_ports}), got shape {occ.shape}"
        )
    (cols,) = occ.nonzero()
    mult = occ[cols].tolist()
    if not mult:
        raise ValueError("configuration holds no bosons")
    if min(mult) < 0:
        raise ValueError("configuration entries must be non-negative")
    n_bosons = sum(mult)
    if input_ports is None:
        if n_bosons > m_ports:
            raise ValueError(
                f"{n_bosons} bosons on {m_ports} ports: the default input ports"
                f" 1..{n_bosons} do not exist"
            )
        block = u.matrix[:n_bosons].take(cols, axis=1)
    else:
        rows = _integer_entries(input_ports, "input ports").tolist()
        if len(rows) != n_bosons:
            raise ValueError(
                f"need {n_bosons} input ports for {n_bosons} bosons, got {len(rows)}"
            )
        if len(set(rows)) != len(rows) or any(not 1 <= r <= m_ports for r in rows):
            raise ValueError(f"input ports must be distinct and within 1..{m_ports}: {rows}")
        block = u.matrix[np.ix_([r - 1 for r in rows], cols)]
    per, _ = _repeated_permanent(block, mult)
    return float(abs(per) ** 2 / math.prod(map(math.factorial, mult)))
