"""Exact sampling of N-boson output ports via the conditional chain rule.

A uniformly random ordering of the input rows makes the distribution of each
next output port proportional to a squared permanent of the rows seen so
far. Expanding that permanent along the candidate column reduces one
sampling step to the K leave-one-row-out subpermanents of the already-chosen
ports, and all K of them come out of one roots-of-unity expansion over the
distinct prefix ports. A small state table takes every leave-one-out product
in one masked reduction over K copies of the table; a large one takes
exclusive prefix and suffix products over its rows.

Consecutive steps differ by one row and one port, so a chain keeps one state
table for all N rows and changes it by a single broadcast after each pick
instead of expanding the prefix afresh. Once the table would pass
``INNER_STATES`` states, the chain finishes on the from-scratch expansion,
which works in chunks of that size; ``conditional_weights`` always uses it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import Iterator, Mapping, Sequence

import numpy as np

from .errors import _check_boson_count, _integer_entries
from .matrices import UnitaryMatrix, fingerprint
from .permanent import INNER_STATES, _expansion_sum, _pinned_states, _unit_roots

BRUTE_FORCE_LIMIT = 100_000

__all__ = [
    "BRUTE_FORCE_LIMIT",
    "PortSequence",
    "SampleOps",
    "SampleBatch",
    "sample_permutation",
    "conditional_weights",
    "draw_sample",
    "draw_sample_counted",
    "sample_batch",
    "brute_force_distribution",
    "empirical_counts",
    "total_variation_distance",
    "chi_square_fit",
]


@dataclass(frozen=True)
class PortSequence:
    """Ordered output ports of one sample, with provenance.

    ``ports`` are 1-based and in sampling order; ``row_order`` is the random
    input-row ordering the chain used. ``seed`` is the integer seed for a
    direct draw, a (master_seed, index) pair for batch members, or None when
    the caller supplied its own generator.
    """

    ports: tuple[int, ...]
    row_order: tuple[int, ...]
    seed: object = None

    def configuration(self, n_ports: int) -> np.ndarray:
        """Collapse to the per-port occupation vector of length ``n_ports``."""
        return np.bincount(np.asarray(self.ports), minlength=n_ports + 1)[1:]


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


def sample_permutation(n: int, rng: np.random.Generator) -> tuple[int, ...]:
    """Uniformly random ordering of 1..n; deterministic per generator state."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return tuple(int(p) + 1 for p in rng.permutation(n))


# Largest k * k * S (rows squared times states) that _leave_one_out reduces in
# one masked product. A (k, S) sweep on a 2-core x86 host, masked over loop
# time: 0.37-0.85 at k * k * S = 6,912-9,600 for k = 2..16; the loop wins
# first at small k, from 16,384 at k = 4 (1.19) and from about 25,000 at
# k = 8..12 (1.02-1.18). At 8,192 the masked temporary is 128 KiB.
MASKED_LIMIT = 8192


def _leave_one_out(p: np.ndarray, t: np.ndarray) -> np.ndarray:
    """out[i] = sum over states s of p[s] times the product of the row sums
    t[:, s] other than row i (division-free: row sums are exactly 0 for
    identity and beamsplitter rows).

    A chain step's table is small, so the fixed cost of each numpy call, not
    the k * S products, sets its price. While k copies of ``t`` hold at most
    ``MASKED_LIMIT`` entries, one masked product does k * k * S multiplies
    in a handful of calls; a larger table takes the row loop, about
    2 * k * S multiplies in 3 * k calls.
    """
    k = t.shape[0]
    if k * t.size <= MASKED_LIMIT:
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


def _subpermanent_accumulators(
    block: np.ndarray, counts: Sequence[int]
) -> tuple[np.ndarray, int]:
    """Leave-one-row-out permanents of ``block``'s repeated-column multiset,
    up to one constant shared by every row.

    ``block`` is K x s (candidate rows by distinct prefix ports) and
    ``counts`` the port multiplicities summing to K - 1. Returns the K
    accumulators and the Gray-step count prod(c + 1) / min(c + 1) - 1 of
    the expansion. The shared constant (multiplicity factorials over the
    number of states) is dropped because callers only need ratios.
    """
    acc, states = _expansion_sum(block, [int(c) + 1 for c in counts], True, _leave_one_out)
    return acc, states - 1


def _weights_counted(
    mat: np.ndarray, rows: np.ndarray, occupied: np.ndarray, counts: np.ndarray
) -> tuple[np.ndarray, int]:
    """Unnormalized next-port weights for the rows ``rows`` (0-based) given
    the prefix described by occupied ports (0-based) and their counts."""
    if rows.shape[0] == 1:
        w = np.abs(mat[rows[0]]) ** 2
        return w, 0
    block = mat[np.ix_(rows, occupied)]
    acc, steps = _subpermanent_accumulators(block, counts)
    return _rescaled_weights(acc, mat[rows]), steps


def _rescaled_weights(acc: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Squared amplitudes of the candidate ports from the leave-one-out
    accumulators of ``rows``, rescaled first so that large prefixes cannot
    overflow."""
    scale = float(np.abs(acc).max())
    if scale > 0.0:
        acc = acc / scale
    return np.abs(acc @ rows) ** 2


class _PrefixTable:
    """The roots-of-unity expansion of a chain's prefix ports, carried from
    step to step.

    ``mp`` holds the unitary's rows in chain order, so step k uses
    ``mp[:k]``. ``t`` has shape (N, r_1, ..., r_d): the row sums of every
    state for all N rows, one axis per summed port (listed in ``axes``,
    newest first) whose variable runs over the r-th roots of unity,
    r = count + 1. ``p`` has shape (r_1, ..., r_d) and holds each state's
    variable product. The pinned port, a least-count one, sits in ``t`` with
    its variable fixed at 1, so there are prod(c + 1) / min(c + 1) states.
    Once that number would pass ``INNER_STATES`` the table is dropped (memory
    stays at most N x INNER_STATES entries) and ``weights`` expands the
    prefix afresh.
    """

    def __init__(self, mp: np.ndarray):
        self.mp = mp
        self.counts: dict[int, int] = {}
        self.pin: int | None = None
        self.axes: list[int] = []
        self.t = np.zeros(mp.shape[0], dtype=np.complex128)
        self.p = np.ones((), dtype=np.complex128)

    def accumulators(self, k: int) -> tuple[np.ndarray, int]:
        """Leave-one-out accumulators of rows ``mp[:k]`` and the step count,
        as ``_subpermanent_accumulators`` gives them up to a shared factor."""
        return _leave_one_out(self.p.ravel(), self.t[:k].reshape(k, -1)), self.p.size - 1

    def weights(self, k: int) -> tuple[np.ndarray, int]:
        """Unnormalized weights of the k-th port and the step count."""
        if self.t is None:
            occupied = np.array(sorted(self.counts))
            counts = [self.counts[j] for j in occupied]
            return _weights_counted(self.mp, np.arange(k), occupied, counts)
        acc, steps = self.accumulators(k)
        return _rescaled_weights(acc, self.mp[:k]), steps

    def add(self, q: int) -> None:
        """Record one more boson at port ``q`` (0-based)."""
        c = self.counts.get(q, 0)
        self.counts[q] = c + 1
        if self.t is None:
            return
        if _pinned_states(self.counts.values()) > INNER_STATES:
            self.t = self.p = None
            return
        pin = self.pin
        if pin is None:
            self._pin(q)
        elif q == pin:
            # the pin stays unless another port still has its old count
            other = next((j for j in self.axes if self.counts[j] == c), None)
            if other is not None:
                self._pin(other)
                self._spread(pin, c + 2, held=True)
        elif c == 0 and self.counts[pin] > 1:
            self._pin(q)
            self._spread(pin, self.counts[pin] + 1, held=True)
        else:
            if c:
                self._fix(q)
            self._spread(q, c + 2, held=c > 0)

    def _fix(self, port: int) -> None:
        """Set ``port``'s variable to 1: its digit-0 slice if it is summed,
        otherwise add its column to every state."""
        if port in self.axes:
            i = self.axes.index(port)
            self.axes.pop(i)
            self.t = self.t[(slice(None),) * (i + 1) + (0,)]
            self.p = self.p[(slice(None),) * i + (0,)]
        else:
            self.t = self.t + self.mp[:, port].reshape((-1,) + (1,) * (self.t.ndim - 1))

    def _pin(self, port: int) -> None:
        self._fix(port)
        self.pin = port

    def _spread(self, port: int, radix: int, held: bool) -> None:
        """Sum ``port``'s variable over the ``radix``-th roots of unity on a
        new first state axis, so that the broadcast runs along the existing
        states; ``held`` when ``t`` already holds its column once."""
        roots = _unit_roots(radix)
        shifts = roots - 1 if held else roots
        shape = (-1, radix) + (1,) * (self.t.ndim - 1)
        self.t = self.t[:, None] + np.multiply.outer(self.mp[:, port], shifts).reshape(shape)
        self.p = np.multiply.outer(roots, self.p)
        self.axes.insert(0, port)


def conditional_weights(u: UnitaryMatrix, pi: Sequence[int], prefix: Sequence[int]) -> np.ndarray:
    """Unnormalized weights over all M candidate next ports.

    ``pi`` is the input-row ordering (a permutation of 1..N) and ``prefix``
    the 1-based ports already sampled. Entry l-1 is proportional to the
    probability that the next port is l; a constant common to all candidates
    is dropped, which is all the chain rule needs at a fixed step.
    """
    n = len(pi)
    if sorted(pi) != list(range(1, n + 1)):
        raise ValueError("pi must be a permutation of 1..N")
    if len(prefix) >= n:
        raise ValueError(f"prefix of length {len(prefix)} leaves no port to sample")
    m_ports = u.dim
    ports = _integer_entries(prefix, "prefix")
    if ports.size and (ports.min() < 1 or ports.max() > m_ports):
        raise ValueError(f"prefix ports must lie in 1..{m_ports}")
    rows = np.asarray(pi[: len(prefix) + 1], dtype=int) - 1
    occ = np.bincount(ports, minlength=m_ports + 1)[1:]
    occupied = np.flatnonzero(occ)
    weights, _ = _weights_counted(u.matrix, rows, occupied, occ[occupied])
    return weights


def _chain_sample(
    u: UnitaryMatrix, n_bosons: int, rng: np.random.Generator, seed_note=None
) -> tuple[PortSequence, SampleOps]:
    m_ports = u.dim
    n_bosons, _ = _check_boson_count(n_bosons, m_ports)
    pi = sample_permutation(n_bosons, rng)
    table = _PrefixTable(u.matrix[np.asarray(pi) - 1])

    ports: list[int] = []
    per_step: list[int] = []
    row_ops = 0
    weight_ops = 0
    for k in range(1, n_bosons + 1):
        weights, gray = table.weights(k)
        per_step.append(gray)
        row_ops += k * (gray + 1)
        weight_ops += m_ports * k

        cdf = weights.cumsum()
        total = cdf[-1]
        if not total > 0.0:
            raise RuntimeError("conditional weights vanished; cannot continue the chain")
        pick = int(cdf.searchsorted(rng.random() * total, side="right"))
        pick = min(pick, m_ports - 1)
        ports.append(pick + 1)
        if k < n_bosons:
            table.add(pick)

    seq = PortSequence(ports=tuple(ports), row_order=pi, seed=seed_note)
    ops = SampleOps(per_step_gray=tuple(per_step), row_ops=row_ops, weight_ops=weight_ops)
    return seq, ops


def _resolve_rng(rng, seed):
    if rng is not None:
        return rng
    return np.random.default_rng(np.random.SeedSequence(seed))


def draw_sample(
    u: UnitaryMatrix,
    n_bosons: int,
    rng: np.random.Generator | None = None,
    seed: int | None = None,
) -> PortSequence:
    """One exact sample of the N output ports. Pass either a generator or a
    seed; with a fixed seed the sample is reproducible."""
    seq, _ = _chain_sample(u, n_bosons, _resolve_rng(rng, seed), seed_note=seed)
    return seq


def draw_sample_counted(
    u: UnitaryMatrix,
    n_bosons: int,
    rng: np.random.Generator | None = None,
    seed: int | None = None,
) -> tuple[PortSequence, SampleOps]:
    """Like draw_sample, also returning the operation counters."""
    return _chain_sample(u, n_bosons, _resolve_rng(rng, seed), seed_note=seed)


@dataclass(frozen=True)
class SampleBatch:
    """A reproducible batch of chain samples from one unitary."""

    unitary_sha256: str
    n_bosons: int
    n_ports: int
    master_seed: int
    samples: tuple[PortSequence, ...]
    gray_steps: tuple[int, ...]

    def configurations(self) -> np.ndarray:
        """(count, M) array of collapsed occupation vectors."""
        out = np.zeros((len(self.samples), self.n_ports), dtype=int)
        for i, seq in enumerate(self.samples):
            out[i] = seq.configuration(self.n_ports)
        return out

    def header(self) -> dict:
        return {
            "unitary_sha256": self.unitary_sha256,
            "n_bosons": self.n_bosons,
            "n_ports": self.n_ports,
            "master_seed": self.master_seed,
            "count": len(self.samples),
        }

    def record(self, i: int) -> dict:
        """The output record of sample ``i``, shared by every output format."""
        seq = self.samples[i]
        return {
            "idx": i,
            "ports": list(seq.ports),
            "config": seq.configuration(self.n_ports).tolist(),
            "ops": self.gray_steps[i],
        }

    def jsonl_lines(self) -> Iterator[str]:
        yield json.dumps(self.header())
        for i in range(len(self.samples)):
            yield json.dumps(self.record(i))

    def write_jsonl(self, fp) -> None:
        for line in self.jsonl_lines():
            fp.write(line)
            fp.write("\n")


def sample_batch(
    u: UnitaryMatrix, n_bosons: int, count: int, master_seed: int
) -> SampleBatch:
    """``count`` independent samples with per-sample seeds derived from
    (master_seed, index); the result is identical however it is scheduled."""
    n_bosons, _ = _check_boson_count(n_bosons, u.dim)
    (count,) = _integer_entries([count], "count").tolist()
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    children = np.random.SeedSequence(master_seed).spawn(count)
    samples = []
    steps = []
    for i, child in enumerate(children):
        seq, ops = _chain_sample(
            u, n_bosons, np.random.default_rng(child), seed_note=(master_seed, i)
        )
        samples.append(seq)
        steps.append(ops.gray_steps)
    return SampleBatch(
        unitary_sha256=fingerprint(u.matrix),
        n_bosons=n_bosons,
        n_ports=u.dim,
        master_seed=master_seed,
        samples=tuple(samples),
        gray_steps=tuple(steps),
    )


def brute_force_distribution(
    u: UnitaryMatrix, n_bosons: int
) -> dict[tuple[int, ...], float]:
    """Exact output distribution by enumerating every configuration.

    Refuses above BRUTE_FORCE_LIMIT configurations; this is the oracle the
    sampler is validated against, so it stays deliberately independent of
    the chain-rule machinery.
    """
    from .permanent import output_probability

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


def empirical_counts(batch: SampleBatch) -> dict[tuple[int, ...], int]:
    """Configuration frequency table of a batch."""
    counts: dict[tuple[int, ...], int] = {}
    for seq in batch.samples:
        key = tuple(int(c) for c in seq.configuration(batch.n_ports))
        counts[key] = counts.get(key, 0) + 1
    return counts


def total_variation_distance(
    counts: Mapping[tuple, int], probabilities: Mapping[tuple, float]
) -> float:
    total = sum(counts.values())
    if total == 0:
        raise ValueError("empty sample")
    keys = set(counts) | set(probabilities)
    return 0.5 * sum(
        abs(counts.get(k, 0) / total - probabilities.get(k, 0.0)) for k in keys
    )


def chi_square_fit(
    counts: Mapping[tuple, int],
    probabilities: Mapping[tuple, float],
    min_expected: float = 5.0,
) -> tuple[float, float]:
    """Goodness-of-fit statistic and p-value of observed counts against an
    exact distribution.

    Bins with expected count below ``min_expected`` are pooled, the standard
    validity fix for sparse cells. Any observation outside the support (or
    in a zero-probability bin) is an immediate failure with p = 0.
    """
    total = sum(counts.values())
    if total == 0:
        raise ValueError("empty sample")
    if set(counts) - set(probabilities):
        return math.inf, 0.0

    f_obs: list[float] = []
    f_exp: list[float] = []
    pooled_obs = 0.0
    pooled_exp = 0.0
    for key, p in probabilities.items():
        observed = counts.get(key, 0)
        expected = p * total
        if expected == 0.0:
            if observed:
                return math.inf, 0.0
            continue
        if expected < min_expected:
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
    from scipy import stats  # over a second to import, and only needed here

    exp = np.asarray(f_exp)
    exp *= total / exp.sum()
    statistic, pvalue = stats.chisquare(np.asarray(f_obs), exp)
    return float(statistic), float(pvalue)
