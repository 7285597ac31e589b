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
Each level of a table is one broadcast sum of the last level and the new
column's shifts; a larger enumeration refills one buffer per tuple of its
remaining variables.

Supported range: the naive sum to n = 10, Ryser and Glynn to n = 30, and
every expansion route, the sampler's steps included, to 2**29 enumerated
states (Glynn's count at n = 30) however many rows they have. Larger inputs
and non-finite entries raise ``ValueError`` before any work.

The cost is reported as ``gray_steps``: the enumerated states less one,
the moves a Gray walk over them would make, though no walk is taken.
``cost_estimate`` states the cost model once, in closed form: N row
products per state, N * prod(m_l + 1) / min(m_l + 1) op units in all.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import _check_boson_count, _check_counts
from .matrices import _as_complex_matrix, _check_unitary

NAIVE_LIMIT = 10
GRAY_LIMIT = 30
# cap on the states of one expansion table: 4096 states of 30 rows is 2 MB
INNER_STATES = 4096
# ufunc buffer of an expansion, in elements: numpy's default 8192 copies the
# short rows of a level's broadcast sum through it, 2.4-3.2x slower than adding
# them in place; numpy 1.x needs a multiple of 16
UFUNC_BUFFER = 256

__all__ = [
    "CostEstimate",
    "permanent_naive",
    "permanent_ryser",
    "permanent_glynn",
    "repeated_column_expansion",
    "cost_estimate",
    "output_probability",
]


def _as_square(matrix, limit: int, algorithm: str) -> np.ndarray:
    a = _as_complex_matrix(matrix)
    if a.shape[0] != a.shape[1]:
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
    value, _ = _repeated_permanent(a, [1] * a.shape[0])
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


@lru_cache(maxsize=128)
def _root_products(radices: tuple[int, ...]) -> np.ndarray:
    """The variable products of an inner table's states: the Kronecker
    product of its levels' roots of unity, in level order, read-only. They
    depend on the radices alone, so each pattern is built once: 128 cached
    patterns of at most ``INNER_STATES`` entries (64 KB), 8 MB at worst."""
    p = np.ones(1, dtype=np.complex128)
    for radix in radices:
        p = (_unit_roots(radix)[:, None] * p).ravel()
    p.flags.writeable = False
    return p


def _level_table(t: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """The (K, r * S) table whose i-th block of S states is the (K, S) table
    ``t`` plus column i of the (K, r) ``shifts``: the level step of the
    expansion and of the chain's carried table."""
    return (t[:, None, :] + shifts[:, :, None]).reshape(t.shape[0], -1)


def _expansion_sum(block: np.ndarray, radices: Sequence[int], term):
    """Sum of ``term(p, t)`` over the states of the roots-of-unity expansion,
    returned with the number of states.

    Column j of the K-row ``block`` carries a variable over the
    ``radices[j]``-th roots of unity. The variable of the first least-radix
    column is pinned to 1 and the others are summed, so there are
    prod(radices) / min(radices) states. ``term`` receives chunks of them:
    ``p[s]`` is the product of state s's variables (``p`` may be shared by
    calls, read-only) and ``t[:, s]`` its K row sums. The summed columns,
    sorted by radix, fill an inner table of at most ``INNER_STATES``
    states, one ``_level_table`` per column. Each tuple of the remaining
    (outer) variables shifts that table once, into one buffer that the call
    allocates once and refills per tuple, so ``term`` must not keep its
    ``t`` past the call. More than 2**(GRAY_LIMIT - 1) states raise
    ``ValueError`` before any table is built.

    Past ``UFUNC_BUFFER`` states the call runs under that ufunc buffer and
    restores the caller's size on return or error; smaller calls skip the
    set and restore (2.3 us). The buffer keeps the bits of elementwise ops,
    ``prod`` folds and BLAS dots, not of a pairwise ``add.reduce``: no
    ``.sum()`` here or in ``term``.
    """
    fixed = radices.index(min(radices))
    summed = sorted((j for j in range(len(radices)) if j != fixed), key=radices.__getitem__)
    states = math.prod(radices[j] for j in summed)
    if states > 2 ** (GRAY_LIMIT - 1):
        raise ValueError(f"{states} expansion states exceed the supported 2**{GRAY_LIMIT - 1}")
    n_inner, size = 0, 1
    while n_inner < len(summed) and size * radices[summed[n_inner]] <= INNER_STATES:
        size *= radices[summed[n_inner]]
        n_inner += 1

    caller_buffer = np.setbufsize(UFUNC_BUFFER) if states > UFUNC_BUFFER else None
    try:
        p = _root_products(tuple(radices[j] for j in summed[:n_inner]))
        t = block[:, fixed, None].copy()
        for j in summed[:n_inner]:
            t = _level_table(t, block[:, j, None] * _unit_roots(radices[j]))

        outer = summed[n_inner:]
        if not outer:
            return term(p, t), states
        cols = block[:, outer]
        shifted = np.empty_like(t)
        total = 0
        for xs in itertools.product(*(_unit_roots(radices[j]) for j in outer)):
            np.add(t, (cols @ np.array(xs))[:, None], out=shifted)
            total += term(p * math.prod(xs), shifted)
        return total, states
    finally:
        if caller_buffer is not None:
            np.setbufsize(caller_buffer)


def _row_products(p: np.ndarray, t: np.ndarray) -> complex:
    return p @ t.prod(axis=0)


def _repeated_permanent(block: np.ndarray, mult: list[int]) -> tuple[complex, int]:
    """Permanent of ``block`` with column j repeated ``mult[j]`` times, with
    the number of enumerated states; no validation."""
    total, states = _expansion_sum(block, [m + 1 for m in mult], _row_products)
    scale = math.prod(map(math.factorial, mult)) / states
    return complex(total * scale), states


def repeated_column_expansion(column_block, multiplicities: Sequence[int]) -> tuple[complex, int]:
    """Permanent of the matrix whose j-th column of ``column_block`` appears
    ``multiplicities[j]`` times, returned with the Gray-step count.

    Each column j carries an auxiliary variable ranging over the
    (multiplicities[j] + 1)-th roots of unity; averaging the variable-weighted
    row-sum products filters out exactly the assignments that use every column
    the prescribed number of times, which recovers the standard permanent
    after multiplying by the product of multiplicity factorials.

    The variable of the first least-repeated column is pinned to 1 and
    dropped from the enumeration, which is valid precisely because that
    column's multiplicity is minimal. Every state's row sums are built afresh
    from table entries, not updated step by step, so there is no drift along
    the walk. The returned count is the number of states less one, the steps
    a Gray walk over them would take: prod(m_j + 1) / min(m_j + 1) - 1.
    """
    a = _as_complex_matrix(column_block)
    mult = _check_counts(multiplicities, "multiplicities", minimum=1).tolist()
    n_cols = len(mult)
    n_rows = sum(mult)
    if a.shape != (n_rows, n_cols):
        raise ValueError(
            f"column block must have shape ({n_rows}, {n_cols}) for multiplicities"
            f" {mult}, got {a.shape}"
        )
    value, states = _repeated_permanent(a, mult)
    return value, states - 1


@dataclass(frozen=True)
class CostEstimate:
    """Operation count of the repeated-column evaluation, exact integers.

    op_units = N * bunching_product / min_factor, where bunching_product is
    prod(m_l + 1) over occupied ports and min_factor its smallest term.
    """

    op_units: int
    bunching_product: int
    min_factor: int


def cost_estimate(occupations: Sequence[int]) -> CostEstimate:
    """Evaluation cost of one output probability for the given configuration,
    exact since the least factor divides the product."""
    counts = [m for m in _check_counts(occupations, "occupations").tolist() if m > 0]
    product, least = math.prod(c + 1 for c in counts), min(counts) + 1
    return CostEstimate(op_units=sum(counts) * product // least, bunching_product=product, min_factor=least)


def output_probability(u, configuration) -> float:
    """Probability of detecting the given output configuration.

    ``configuration`` is the per-port boson count vector (length M, summing
    to N); bosons enter input ports 1..N, as in every draw. For other input
    ports, permute the unitary's rows: ``UnitaryMatrix(u.matrix[order])``.
    The value is |permanent|^2 over the multiplicity factorials.

    Raises ``ValueError`` unless the counts are M non-negative integers
    (integer-valued floats pass) holding at least one boson, and
    ``UnsupportedRegimeError`` for more than M bosons, as every draw does.
    Past these checks the cost is one call of the expansion kernel,
    prod(m_l + 1) / min(m_l + 1) states of N row sums over the occupied
    ports l.
    """
    _check_unitary(u, "output_probability")
    m_ports = u.matrix.shape[0]
    occ = _check_counts(configuration, "configuration")
    if occ.shape[0] != m_ports:
        raise ValueError(
            f"configuration must have one entry per port ({m_ports}), got shape {occ.shape}"
        )
    (cols,) = occ.nonzero()
    mult = occ[cols].tolist()
    n_bosons, _ = _check_boson_count(sum(mult), m_ports)
    per, _ = _repeated_permanent(u.matrix[:n_bosons].take(cols, axis=1), mult)
    return float(abs(per) ** 2 / math.prod(map(math.factorial, mult)))
