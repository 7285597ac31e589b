"""Exact sampling of N-boson output ports via the conditional chain rule.

A uniformly random ordering of the input rows makes the distribution of each
next output port proportional to a squared permanent of the rows seen so
far. Expanding that permanent along the candidate column reduces one
sampling step to the K leave-one-row-out subpermanents of the already-chosen
ports, and all K of them come out of one roots-of-unity expansion over the
distinct prefix ports. ``_leave_one_out`` picks how those products are
taken, and ``_PrefixTable.weights`` squares a step's amplitudes and alone
decides whether a step is drawn from, retaken on rescaled rows or refused.

Consecutive steps differ by one row and one port, so a chain keeps one state
table for all N rows, with one port's variable pinned at 1, and changes it by
a single broadcast after each pick, a repeated port included. Past
``INNER_STATES`` states the chain finishes on the from-scratch expansion,
which works in chunks of that size. ``conditional_weights`` replays a prefix
through the same table, dropped at the same add, so it refuses the steps a
draw refuses and returns a draw's weights, bit for bit if no step was
retaken. A draw takes the row permutation from its generator, then N uniforms.

This module holds only the chain; ``validate`` holds what checks it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import _check_boson_count, _check_count, _check_permutation, _check_ports
from .matrices import UnitaryMatrix, _check_unitary
from .permanent import INNER_STATES, _expansion_sum, _level_table, _unit_roots

__all__ = [
    "PortSequence",
    "SampleOps",
    "SampleBatch",
    "conditional_weights",
    "draw_sample_counted",
    "sample_batch",
]


@dataclass(frozen=True)
class PortSequence:
    """Ordered output ports of one sample, with provenance.

    ``ports`` are 1-based and in sampling order; ``row_order`` is the random
    input-row ordering the chain used. ``seed`` is the (master_seed, index)
    pair of a batch member, and None for a direct draw, whose generator the
    caller supplied.
    """

    ports: tuple[int, ...]
    row_order: tuple[int, ...]
    seed: tuple[int, int] | None = None

    def configuration(self, n_ports: int) -> np.ndarray:
        """Collapse to the per-port occupation vector of length ``n_ports``;
        ValueError when ``n_ports`` is not a positive integer (2.0 passes) or
        a port lies outside 1..``n_ports``."""
        n_ports = _check_count(n_ports, "n_ports")
        ports = _check_ports(self.ports, "ports", n_ports)
        return np.bincount(ports, minlength=n_ports + 1)[1:]


@dataclass(frozen=True)
class SampleOps:
    """Operation counters accumulated while drawing one sample."""

    per_step_gray: tuple[int, ...]
    row_ops: int
    weight_ops: int

    @property
    def gray_steps(self) -> int:
        return sum(self.per_step_gray)

    @property
    def op_units(self) -> int:
        return self.row_ops + self.weight_ops


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
        if k == 1:
            return np.ones(1, dtype=np.complex128), 0
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
        modulus (zero rows keep 1); it raises RuntimeError if still not one."""
        acc, steps = self.accumulators(k)
        w = np.abs(acc @ self.mp[:k]) ** 2
        cdf = w.cumsum()
        if not sys.float_info.min <= cdf[-1] < math.inf:
            _, e = np.frexp(np.abs(self.mp[:, list(self.counts)]).max(axis=1, initial=0.0))
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


def conditional_weights(u: UnitaryMatrix, pi: Sequence[int], prefix: Sequence[int]) -> np.ndarray:
    """Unnormalized weights over all M candidate next ports.

    ``pi`` is the input-row ordering (a permutation of 1..N) and ``prefix``
    the 1-based ports already sampled. Entry l-1 is proportional to the
    probability that the next port is l, up to a constant common to all
    candidates. A replay through a draw's table gives the draw's step-k
    weights bit for bit unless an earlier step was retaken, and it raises
    RuntimeError where a draw stops, as for a prefix of probability zero.
    """
    _check_unitary(u, "conditional_weights")
    pi = _check_permutation(pi, "pi")
    ports = _check_ports(prefix, "prefix", u.dim)
    if len(ports) >= len(pi):
        raise ValueError(f"prefix of length {len(ports)} leaves no port to sample")
    _check_boson_count(len(pi), u.dim)
    k = len(ports) + 1
    table = _PrefixTable(u.matrix[np.asarray(pi[:k], dtype=int) - 1])
    for q in ports:
        table.add(q - 1)
    return table.weights(k)[0]


def _chain_sample(
    u: UnitaryMatrix, n_bosons: int, rng: np.random.Generator, seed_note: tuple[int, int] | None = None
) -> tuple[PortSequence, SampleOps]:
    m_ports = u.dim
    perm = rng.permutation(n_bosons)  # n checked by the caller; row_order records it
    uniforms = rng.random(n_bosons).tolist()
    table = _PrefixTable(u.matrix[perm])

    ports: list[int] = []
    per_step: list[int] = []
    for k, r in enumerate(uniforms, start=1):
        _, cdf, gray = table.weights(k)
        per_step.append(gray)

        pick = int(cdf.searchsorted(r * cdf[-1], side="right"))
        ports.append(pick + 1)
        if k < n_bosons:
            table.add(pick)

    seq = PortSequence(ports=tuple(ports), row_order=tuple((perm + 1).tolist()), seed=seed_note)
    row_ops = sum(k * (gray + 1) for k, gray in enumerate(per_step, start=1))
    weight_ops = m_ports * n_bosons * (n_bosons + 1) // 2
    ops = SampleOps(per_step_gray=tuple(per_step), row_ops=row_ops, weight_ops=weight_ops)
    return seq, ops


def draw_sample_counted(
    u: UnitaryMatrix, n_bosons: int, rng: np.random.Generator
) -> tuple[PortSequence, SampleOps]:
    """One exact sample of the N output ports and its operation counters,
    drawn on ``rng``; a generator built from a fixed seed gives a
    reproducible sample. ``rng`` is checked by its type before any work."""
    _check_unitary(u, "draw_sample_counted")
    if not isinstance(rng, np.random.Generator):
        raise TypeError(f"rng must be a numpy Generator, got {type(rng).__name__}")
    n_bosons, _ = _check_boson_count(n_bosons, u.dim)
    return _chain_sample(u, n_bosons, rng)


@dataclass(frozen=True)
class SampleBatch:
    """A reproducible batch of chain samples from one unitary on ``n_ports``
    ports; sample i records ``seed = (master_seed, i)``, and ``gray_steps``
    holds each sample's step count."""

    n_ports: int
    samples: tuple[PortSequence, ...]
    gray_steps: tuple[int, ...]


def sample_batch(
    u: UnitaryMatrix, n_bosons: int, count: int, master_seed: int
) -> SampleBatch:
    """``count`` independent samples; sample i draws from
    ``default_rng(SeedSequence(master_seed, spawn_key=(i,)))``, so the result
    is identical however it is scheduled."""
    _check_unitary(u, "sample_batch")
    n_bosons, _ = _check_boson_count(n_bosons, u.dim)
    count = _check_count(count, "count", minimum=0)
    master_seed = _check_count(master_seed, "master_seed", minimum=0)
    samples = []
    steps = []
    for i in range(count):
        rng = np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(i,)))
        seq, ops = _chain_sample(u, n_bosons, rng, seed_note=(master_seed, i))
        samples.append(seq)
        steps.append(ops.gray_steps)
    return SampleBatch(n_ports=u.dim, samples=tuple(samples), gray_steps=tuple(steps))
