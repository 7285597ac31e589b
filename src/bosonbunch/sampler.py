"""Exact sampling of N-boson output ports via the conditional chain rule.

A uniformly random ordering of the input rows makes the distribution of each
next output port proportional to a squared permanent of the rows seen so
far. Expanding that permanent along the candidate column reduces one
sampling step to the K leave-one-row-out subpermanents of the already-chosen
ports, all from one roots-of-unity expansion over the distinct prefix ports:
``permanent._PrefixTable``, which the chain carries from step to step.

A draw takes the row permutation from its generator, then N uniforms.
``conditional_weights`` replays a prefix through a draw's table, so it
refuses the steps a draw refuses and returns a draw's weights, bit for bit
if no step was retaken. This module holds only the chain; ``validate``
holds what checks it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import _check_boson_count, _check_count, _check_permutation, _check_ports
from .matrices import UnitaryMatrix, _check_unitary
from .permanent import CHAIN_LIMIT, _PrefixTable

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


def conditional_weights(u: UnitaryMatrix, pi: Sequence[int], prefix: Sequence[int]) -> np.ndarray:
    """Unnormalized weights over all M candidate next ports.

    ``pi`` is the input-row ordering (a permutation of 1..N) and ``prefix``
    the 1-based ports already sampled. Entry l-1 is proportional to the
    probability that the next port is l, up to a constant common to all
    candidates. A replay through a draw's table gives the draw's step-k
    weights bit for bit unless an earlier step was retaken, and it raises
    RuntimeError where a draw stops, as for a prefix of probability zero.
    It takes one step, so N may pass ``CHAIN_LIMIT`` if that step's table fits.
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


def _check_chain(n_bosons, n_ports: int) -> int:
    """N as an int; ValueError before any work unless 1 <= N <= M and
    N <= ``CHAIN_LIMIT``, so that every step of the chain fits the kernel."""
    n_bosons, _ = _check_boson_count(n_bosons, n_ports)
    if n_bosons > CHAIN_LIMIT:
        raise ValueError(f"a chain of {n_bosons} bosons exceeds the supported {CHAIN_LIMIT}")
    return n_bosons


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
    return _chain_sample(u, _check_chain(n_bosons, u.dim), rng)


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
    n_bosons = _check_chain(n_bosons, u.dim)
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
