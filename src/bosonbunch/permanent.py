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

The chain rule in ``sampler`` reads one more expansion, ``_PrefixTable``,
held here with its leave-one-out terms: a table of all N rows, one port's
variable pinned at 1, carried from step to step by one broadcast per pick
and dropped past ``INNER_STATES`` states for the from-scratch expansion.

Supported range: the naive sum to n = 10, Ryser and Glynn to n = 30, and
every from-scratch expansion to 2**29 enumerated states (Glynn's count at
n = 30) however many rows it has. Larger inputs and non-finite entries
raise ``ValueError`` before any work, as does a sampler chain of more
than ``CHAIN_LIMIT`` = 31 bosons, the longest whose steps all fit.

The cost is reported as ``gray_steps``: the enumerated states less one,
the moves a Gray walk over them would make, though no walk is taken.
``cost_estimate`` states the cost model once, in closed form: N row
products per state, N * prod(m_l + 1) / min(m_l + 1) op units in all.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import _check_boson_count, _check_counts
from .matrices import _as_complex_matrix, _check_unitary

NAIVE_LIMIT = 10
GRAY_LIMIT = 30
# a chain step over k - 1 prefix ports needs at most 2**(k - 2) states, so every
# chain of at most GRAY_LIMIT + 1 bosons stays within 2**(GRAY_LIMIT - 1) states
CHAIN_LIMIT = GRAY_LIMIT + 1
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


# Largest table (k rows times S states) that _leave_one_out reduces in one
# masked product. In two (k, S) sweeps on a 2-core x86 host the row loop won
# from k * S = 1,500-2,000 at k = 2..6 and 2,000-3,000 at k = 8..16 (masked
# over loop time 0.4-0.8 at 1,000, 1.4-4.2 at 8,192); whole chains at (N, M)
# = (8, 16), (12, 12), (12, 24), (16, 16) ran within 2 % for limits 2,048-3,072.
MASKED_LIMIT = 2560


def _leave_one_out(p: np.ndarray, t: np.ndarray) -> np.ndarray:
    """out[i] = sum over states s of p[s] times the product of the row sums
    t[:, s] other than row i (division-free: row sums are exactly 0 for
    identity and beamsplitter rows).

    A chain step's table is small, so the fixed cost of each numpy call, not
    the products, sets its price. A table of at most ``MASKED_LIMIT`` entries
    takes one masked product, k * k * S multiplies in a handful of calls; a
    larger one takes the row loop, about 2 * k * S multiplies in 3 * k calls.
    """
    if t.size <= MASKED_LIMIT:
        return _masked_leave_one_out(p, t)
    return _row_leave_one_out(p, t)


def _masked_leave_one_out(p: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Copy i of ``t`` has its own row i set to 1, then every copy is
    multiplied down its rows."""
    k = t.shape[0]
    e = t[None].repeat(k, axis=0)
    e.reshape(k * k, -1)[:: k + 1] = 1
    return e.prod(axis=1) @ p


def _row_leave_one_out(p: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Exclusive prefix and suffix products, one row at a time, so that
    every multiply spans all states; ``np.cumprod`` along the row axis is an
    order of magnitude slower on complex tables."""
    k = t.shape[0]
    prefix = np.empty_like(t)
    prefix[0] = p
    for i in range(1, k):
        np.multiply(prefix[i - 1], t[i - 1], out=prefix[i])
    out = np.empty(k, dtype=np.complex128)
    suffix = np.ones(t.shape[1], dtype=np.complex128)
    for i in range(k - 1, -1, -1):
        out[i] = prefix[i] @ suffix
        suffix *= t[i]
    return out


class _PrefixTable:
    """The roots-of-unity expansion of a chain's prefix ports, carried from
    step to step.

    ``mp`` holds the unitary's rows in chain order, so step k uses
    ``mp[:k]``. ``t`` has shape (N, S): the row sums of every state for all
    N rows. A state gives each summed port a variable over the r-th roots
    of unity, one digit of the state index. ``summed`` maps each summed port
    to the radix r = count + 1 its digit was built with, oldest first, so
    its last entry is the slowest digit. ``p`` has shape (S,) and holds each
    state's variable product. The pinned port sits in ``t`` with its
    variable fixed at 1, so there are S = prod(c + 1) / min(c + 1) states.
    Each pick, a repeat included, costs one broadcast, plus a column add
    when the pin moves to a new port. S changes only in ``_spread``, which
    drops the table only when its next size would pass ``INNER_STATES``
    (memory stays at most N x INNER_STATES entries); ``t`` and ``p`` are
    then None, ``add`` only counts and ``accumulators`` expands the prefix
    afresh. A retaken step (``weights``) leaves a power of two on each row.
    """

    def __init__(self, mp: np.ndarray):
        self.mp = mp
        self.counts: dict[int, int] = {}
        self.pin: int | None = None
        self.summed: dict[int, int] = {}
        self.t = np.zeros((mp.shape[0], 1), dtype=np.complex128)
        self.p = np.ones(1, dtype=np.complex128)

    def accumulators(self, k: int) -> tuple[np.ndarray, int]:
        """Leave-one-out accumulators of rows ``mp[:k]``, up to one factor
        shared by every row (multiplicity factorials over the number of
        states), and the step count prod(c + 1) / min(c + 1) - 1."""
        if self.t is not None:
            return _leave_one_out(self.p, self.t[:k]), self.p.size - 1
        occupied = sorted(self.counts)
        radices = [self.counts[j] + 1 for j in occupied]
        acc, states = _expansion_sum(self.mp[:k, occupied], radices, _leave_one_out)
        return acc, states - 1

    def weights(self, k: int) -> tuple[np.ndarray, np.ndarray, int]:
        """Squared amplitudes of the k-th port, their running sum and the
        step count. A total that is not a positive normal number (underflow
        on a long prefix, or rows far from unitary: numpy warns of the
        overflow) is taken again after each row of ``mp`` and ``t`` is scaled
        by 2**-e, e the ``np.frexp`` exponent of its largest prefix-port
        modulus (zero rows keep 1), unless some 2**-e is not finite; it
        raises RuntimeError if still not one."""
        acc, steps = self.accumulators(k)
        w = np.abs(acc @ self.mp[:k]) ** 2
        cdf = w.cumsum()
        if not sys.float_info.min <= cdf[-1] < math.inf:
            _, e = np.frexp(np.abs(self.mp[:, list(self.counts)]).max(axis=1, initial=0.0))
            if (-e < sys.float_info.max_exp).all():
                scale = np.ldexp(1.0, -e)[:, None]
                self.mp = self.mp * scale
                if self.t is not None:
                    self.t = self.t * scale
                w = np.abs(self.accumulators(k)[0] @ self.mp[:k]) ** 2
                cdf = w.cumsum()
            if not sys.float_info.min <= cdf[-1] < math.inf:
                raise RuntimeError("conditional weights vanished; cannot continue the chain")
        return w, cdf, steps

    def add(self, q: int) -> None:
        """Record one more boson at port ``q`` (0-based). The pin stays while
        its count is the least, otherwise it moves to ``q`` if ``q`` is new,
        or else to the newest summed port with the least count."""
        c = self.counts.get(q, 0)
        self.counts[q] = c + 1
        if self.t is None:
            return
        pin, least = self.pin, min(self.counts.values())
        if pin is None:
            self.pin = q
            self.t = self.t + self.mp[:, q, None]
        elif self.counts[pin] == least:
            if q != pin:
                self._spread(q, fix=q if c else None)
        else:
            self.pin = q if c == 0 else next(j for j in reversed(self.summed) if self.counts[j] == least)
            self._spread(pin, fix=self.pin)

    def _spread(self, port: int, fix: int | None) -> None:
        """Sum ``port``'s variable over the roots of unity of radix count + 1
        as the new slowest digit, so that the broadcast runs along the
        existing states. The variable of ``fix`` is set to 1 first: a summed
        port's digit-0 slice is taken, a new port's column is added to every
        state; both leave 2-D tables for the broadcast. A ``fix`` comes
        exactly when ``port`` was the pin or is a repeat, so that ``t`` then
        holds its column once and the broadcast adds the roots minus 1."""
        radix = self.counts[port] + 1
        if self.p.size // self.summed.get(fix, 1) * radix > INNER_STATES:
            self.t = self.p = None
            return
        n = len(self.t)
        t, p = self.t, self.p
        if fix in self.summed:
            i = list(self.summed).index(fix)
            r = self.summed.pop(fix)
            outer = math.prod(list(self.summed.values())[i:])
            t = t.reshape(n, outer, r, -1)[:, :, 0].reshape(n, -1)
            p = p.reshape(outer, r, -1)[:, 0].ravel()
        elif fix is not None:
            t = t + self.mp[:, fix, None]
        roots = _unit_roots(radix)
        shifts = self.mp[:, port, None] * (roots if fix is None else roots - 1)
        self.t = _level_table(t, shifts)
        self.p = (roots[:, None] * p).ravel()
        self.summed[port] = radix


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
