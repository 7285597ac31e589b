import hashlib
import json
import math
import os
import platform
import subprocess
import sys
import time
import warnings
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.stats

import bosonbunch
from bosonbunch import (
    PortSequence,
    UnitaryMatrix,
    UnsupportedRegimeError,
    brute_force_distribution,
    chi_square_fit,
    conditional_weights,
    cost_estimate,
    draw_sample_counted,
    empirical_counts,
    haar_unitary,
    output_probability,
    permanent_naive,
    permanent_ryser,
    repeated_column_expansion,
    sample_batch,
    save_matrix,
    submatrix,
    total_variation_distance,
)
from bosonbunch import permanent, sampler
from bosonbunch.cli import main
from bosonbunch.permanent import (
    INNER_STATES,
    MASKED_LIMIT,
    UFUNC_BUFFER,
    _expansion_sum,
    _leave_one_out,
    _masked_leave_one_out,
    _PrefixTable,
    _row_leave_one_out,
)
from bosonbunch.sampler import _chain_sample
from bosonbunch.validate import _chi_square_sf
from helpers import (
    DEFAULT_BUFFER,
    count_calls,
    dispatch_record,
    openblas_core,
    pinned_states,
    platform_note,
    random_complex,
    simd_extensions,
    ufunc_buffer,
)

BEAMSPLITTER = UnitaryMatrix(np.array([[1, 1], [1, -1]]) / np.sqrt(2))


# ------------------------------------------------------- conditional weights


def test_first_step_weights_are_row_amplitudes():
    u = haar_unitary(5, seed=1)
    pi = (3, 1, 2, 4, 5)
    w = conditional_weights(u, pi, ())
    assert np.allclose(w, np.abs(u.matrix[2]) ** 2)


def test_hong_ou_mandel_forbids_antibunching():
    # first boson seen at port 1: the second must join it
    w = conditional_weights(BEAMSPLITTER, (1, 2), (1,))
    assert w[1] == pytest.approx(0.0, abs=1e-12)
    assert w[0] > 0


def test_weights_normalize_to_probability_vector():
    u = haar_unitary(4, seed=3)
    w = conditional_weights(u, (2, 4, 1, 3), (2, 2))
    assert np.all(w >= 0)
    w = w / w.sum()
    assert w.sum() == pytest.approx(1.0)


def test_weights_match_naive_permanent_oracle():
    u = haar_unitary(4, seed=11)
    pi = (3, 1, 4, 2)
    for prefix in [(2,), (2, 2), (2, 3), (1, 4), (3, 3), (4, 4, 4), (1, 2, 3)]:
        k = len(prefix) + 1
        w = conditional_weights(u, pi, prefix)
        w = w / w.sum()
        oracle = np.array(
            [
                abs(permanent_naive(submatrix(u, list(pi[:k]), sorted(prefix + (l,))))) ** 2
                for l in range(1, 5)
            ]
        )
        oracle /= oracle.sum()
        assert np.allclose(w, oracle, atol=1e-12)


@pytest.mark.parametrize("bosons", [20, 116, 117, 120, 229, 240, 249])
def test_single_port_prefix_weights_match_the_closed_form(bosons):
    # L bosons on port q: the permanent over rows 1..L+1 is L! prod_i u_iq times
    # sum_i u_il / u_iq, whose square cannot underflow; the unscaled total is
    # subnormal at L = 116 and 117 and 0 at L = 120, and from L = 229 on the
    # accumulators themselves underflow, so the step must be retaken on rows
    # scaled like the chain's
    u = haar_unitary(300, seed=1)
    w = conditional_weights(u, range(1, 251), [1] * bosons)
    assert 0.0 < w.sum() < math.inf
    rows = u.matrix[: bosons + 1]
    closed = np.abs((rows / rows[:, :1]).sum(axis=0)) ** 2
    np.testing.assert_allclose(w / w.sum(), closed / closed.sum(), rtol=1e-9)


def _per_row_expansion(block, counts):
    return np.array(
        [repeated_column_expansion(np.delete(block, i, axis=0), counts)[0] for i in range(block.shape[0])]
    )


def _fresh_accumulators(block, counts):
    # leave-one-out accumulators of one from-scratch expansion, and its step count
    acc, states = _expansion_sum(block, [int(c) + 1 for c in counts], _leave_one_out)
    return acc, states - 1


def test_leave_one_out_matches_per_row_expansion():
    # 6,561 summed states: more than one inner table, so outer shifts run
    counts = [2] * 8 + [1]
    k = sum(counts) + 1
    rng = np.random.default_rng(14)
    block = rng.standard_normal((k, len(counts))) + 1j * rng.standard_normal((k, len(counts)))
    acc, steps = _fresh_accumulators(block, counts)
    assert steps == 3**8 - 1
    per_row = _per_row_expansion(block, counts)
    assert np.allclose(acc / acc[0], per_row / per_row[0], rtol=1e-10, atol=0)


def _assert_same_ratios(got, reference, rtol):
    # proportional vectors: compare after scaling both by the largest reference entry
    j = int(np.argmax(np.abs(reference)))
    got, reference = got / got[j], reference / reference[j]
    assert np.max(np.abs(got - reference)) <= rtol * np.max(np.abs(reference))


def _expansion_table(block, counts):
    # the (p, t) pair that _fresh_accumulators hands to _leave_one_out
    (p, t), _ = _expansion_sum(block, [c + 1 for c in counts], lambda p, t: (p, t))
    return p, t


@pytest.mark.parametrize(
    "counts, masked",
    [
        ([1] * 9, True),  # k = 10, 256 states: 2,560 entries, exactly the bound
        ([3] + [1] * 7, False),  # k = 11, 256 states: 2,816 entries, past the bound
    ],
)
def test_leave_one_out_forms_agree_at_the_bound(counts, masked):
    k = sum(counts) + 1
    rng = np.random.default_rng(k + len(counts))
    block = rng.standard_normal((k, len(counts))) + 1j * rng.standard_normal((k, len(counts)))
    p, t = _expansion_table(block, counts)
    assert (t.size <= MASKED_LIMIT) == masked
    by_mask, by_rows = _masked_leave_one_out(p, t), _row_leave_one_out(p, t)
    assert np.array_equal(_leave_one_out(p, t), by_mask if masked else by_rows)
    _assert_same_ratios(by_mask, by_rows, 1e-12)
    reference = _per_row_expansion(block, counts)
    _assert_same_ratios(by_mask, reference, 1e-12)
    _assert_same_ratios(by_rows, reference, 1e-12)


@pytest.mark.parametrize("states", [MASKED_LIMIT // 2, MASKED_LIMIT // 2 + 1])
def test_leave_one_out_two_rows_around_the_bound(states):
    rng = np.random.default_rng(states)
    p = rng.standard_normal(states) + 1j * rng.standard_normal(states)
    t = rng.standard_normal((2, states)) + 1j * rng.standard_normal((2, states))
    reference = np.array([p @ t[1], p @ t[0]])
    by_mask, by_rows = _masked_leave_one_out(p, t), _row_leave_one_out(p, t)
    # 2 rows of MASKED_LIMIT // 2 states are exactly the bound, which still takes the masked form
    assert np.array_equal(_leave_one_out(p, t), by_mask if 2 * states <= MASKED_LIMIT else by_rows)
    _assert_same_ratios(by_mask, reference, 1e-12)
    _assert_same_ratios(by_rows, reference, 1e-12)


@pytest.mark.parametrize("states", [1, 5, MASKED_LIMIT + 1])
def test_leave_one_out_single_row_is_the_prefactor_sum(states):
    rng = np.random.default_rng(states)
    p = rng.standard_normal(states) + 1j * rng.standard_normal(states)
    t = rng.standard_normal((1, states)) + 1j * rng.standard_normal((1, states))
    for out in (_masked_leave_one_out(p, t), _row_leave_one_out(p, t), _leave_one_out(p, t)):
        assert out.shape == (1,)
        assert out[0] == pytest.approx(p.sum(), rel=1e-12)


@pytest.mark.parametrize("k", range(1, 13))
def test_leave_one_out_bits_do_not_depend_on_the_ufunc_buffer(k):
    # a dropped table's steps run their leave-one-out products as the term of
    # an expansion, under UFUNC_BUFFER; a carried table's run on the default
    rng = np.random.default_rng(k)
    for states in sorted({1, 2, 7, MASKED_LIMIT // (2 * k), MASKED_LIMIT // k}):
        p = random_complex(rng, states)
        t = random_complex(rng, (k, states))
        # beamsplitter rows: row sums that cancel to exact zeros
        zeroed = t.copy()
        zeroed[::2] = 0
        for table in (t, zeroed):
            for form in (_masked_leave_one_out, _row_leave_one_out):
                with ufunc_buffer(DEFAULT_BUFFER):
                    want = form(p, table)
                with ufunc_buffer(UFUNC_BUFFER):
                    assert form(p, table).tobytes() == want.tobytes()


def test_single_port_prefix_cdfs_are_pinned():
    # a prefix on one port leaves one state (S = 1), where numpy runs the
    # masked product's middle-axis fold with another complex multiply than at
    # S > 1; the same fold down the outer axis changes these bytes
    rng = np.random.default_rng(12)
    mp = random_complex(rng, (9, 6))
    digest = hashlib.sha256()
    for script in ([0, 0, 0, 0, 1, 1, 2, 0, 3], [4, 4, 1, 4, 4, 1, 1, 5, 0]):
        table = _PrefixTable(mp)
        for k, q in enumerate(script, start=1):
            _, cdf, steps = table.weights(k)
            digest.update(cdf.tobytes() + steps.to_bytes(4, "little"))
            table.add(q)
    assert digest.hexdigest() == "dc4b9dbe7a2482f0d8342065a8e8f904cfe2fc14f526c4aafacc585add58e99c", platform_note()


@pytest.mark.parametrize("k", [5, 9, 12])  # 80 and 1,152 masked entries; 12,288 on the row loop
def test_leave_one_out_keeps_exactly_zero_row_sums(k):
    # identity rows: the last row meets no prefix port, so its row sum is exactly 0
    # in every state and only leaving that row out gives a nonzero subpermanent
    block = np.eye(k, dtype=complex)[:, : k - 1]
    counts = [1] * (k - 1)
    p, t = _expansion_table(block, counts)
    assert not t[-1].any()
    reference = _per_row_expansion(block, counts)
    for out in (_masked_leave_one_out(p, t), _row_leave_one_out(p, t)):
        assert np.all(out[:-1] == 0) and out[-1] != 0
        _assert_same_ratios(out, reference, 1e-12)


def _retaken_step(mp, prefix, k):
    # the rows scaled by 2**-e, e the np.frexp exponent of each row's largest
    # modulus on the prefix ports, and the cdf of step k on a table built on them
    _, e = np.frexp(np.abs(mp[:, sorted(set(prefix))]).max(axis=1))
    scaled = mp * 2.0 ** -e[:, None]
    table = _PrefixTable(scaled)
    for q in prefix:
        table.add(q)
    return scaled, table.weights(k)[1]


def _assert_old_rescale_cdf(cdf, acc, mp):
    # the normalised cdf of the step taken on accumulators divided by their
    # largest modulus, the rule before rows were scaled
    old = (np.abs((acc / np.abs(acc).max()) @ mp) ** 2).cumsum()
    np.testing.assert_allclose(cdf / cdf[-1], old / old[-1], rtol=1e-12)


@pytest.mark.parametrize("k", [2, 3])
def test_overflowing_step_takes_the_rescaled_weights(k):
    # rows scaled by 1e100: the unscaled squared amplitudes of step k overflow
    rng = np.random.default_rng(k)
    mp = 1e100 * (rng.standard_normal((k, 5)) + 1j * rng.standard_normal((k, 5)))
    table = _PrefixTable(mp)
    for q in range(k - 1):
        table.add(q)
    acc, _ = table.accumulators(k)
    with np.errstate(over="ignore"):
        assert np.isinf((np.abs(acc @ mp[:k]) ** 2).sum())
    with pytest.warns(RuntimeWarning, match="overflow"):
        _, cdf, steps = table.weights(k)
    assert steps == 2 ** (k - 2) - 1
    assert np.isfinite(cdf[-1]) and cdf[-1] > 0
    scaled, retaken = _retaken_step(mp, range(k - 1), k)
    assert np.array_equal(cdf, retaken) and np.array_equal(table.mp, scaled)
    _assert_old_rescale_cdf(cdf, acc, mp[:k])


def test_dropped_table_step_that_overflows_is_retried():
    # 14 distinct prefix ports: 8,192 states pass INNER_STATES, so step 15
    # expands afresh, and rows scaled by 1e15 overflow its unscaled weights
    rng = np.random.default_rng(15)
    mp = 1e15 * (rng.standard_normal((15, 16)) + 1j * rng.standard_normal((15, 16)))
    table = _PrefixTable(mp)
    for q in range(14):
        table.add(q)
    assert table.t is None and 2**13 > INNER_STATES
    acc, _ = table.accumulators(15)
    with np.errstate(over="ignore"):
        assert np.isinf((np.abs(acc @ mp) ** 2).sum())
    with pytest.warns(RuntimeWarning, match="overflow"):
        _, cdf, steps = table.weights(15)
    assert steps == 2**13 - 1
    assert np.isfinite(cdf[-1]) and cdf[-1] > 0
    scaled, retaken = _retaken_step(mp, range(14), 15)
    assert np.array_equal(cdf, retaken) and np.array_equal(table.mp, scaled)
    _assert_old_rescale_cdf(cdf, acc, mp)


def test_dropped_table_overflow_retake_expands_twice(monkeypatch):
    # the table of the test above: the first try and the retake on the scaled
    # rows each expand the prefix afresh
    rng = np.random.default_rng(15)
    mp = 1e15 * (rng.standard_normal((15, 16)) + 1j * rng.standard_normal((15, 16)))
    table = _PrefixTable(mp)
    for q in range(14):
        table.add(q)
    calls = []

    def counted(*args):
        calls.append(args)
        return _expansion_sum(*args)

    monkeypatch.setattr(permanent, "_expansion_sum", counted)
    with pytest.warns(RuntimeWarning, match="overflow"):
        _, cdf, steps = table.weights(15)
    assert len(calls) == 2 and steps == 2**13 - 1
    assert np.isfinite(cdf[-1]) and cdf[-1] > 0


@pytest.mark.parametrize(
    "rows, chain_reaches_step_2",
    [
        ([[1, 0], [0, 0.0]], True),
        ([[1, 0], [0, 1e-161]], True),
        ([[1e-310, 1e-200], [2e-310, 3e-200]], False),
        ([[1, 0], [1e-320, 1e-320]], True),
    ],
    ids=["zero", "subnormal", "unscalable", "unscalable-step-2"],
)
def test_step_whose_total_is_not_normal_raises(rows, chain_reaches_step_2, monkeypatch):
    # in zero and subnormal the second row is (0, 0) or (0, 1e-161), so step 2's
    # weights are exactly 0 or square to a subnormal total; that row is 0 on the
    # prefix port and keeps scale 1, so the retake cannot lift it. Unscalable
    # rows are subnormal on the prefix port, so their 2**-e would overflow: the
    # step is refused on the unscaled rows, without a warning. A chain in either
    # row order meets such a step, so no draw picks from a cdf without a normal
    # total; in unscalable its step 1 already underflows, while unscalable-step-2
    # reaches the unscalable rows at step 2 after picking port 1. UnitaryMatrix
    # refuses such rows, so the chain gets a stand-in with the same fields
    rows = np.array(rows, dtype=np.complex128)
    table = _PrefixTable(rows)
    table.add(0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeError, match="^conditional weights vanished"):
            table.weights(2)
    assert np.isfinite(table.mp).all()
    stand_in = SimpleNamespace(matrix=rows, dim=2)
    steps = []
    weights = _PrefixTable.weights

    def recorded(self, k):
        steps.append(k)
        return weights(self, k)

    monkeypatch.setattr(_PrefixTable, "weights", recorded)
    for seed in range(200):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RuntimeError, match="^conditional weights vanished"):
                _chain_sample(stand_in, 2, np.random.default_rng(seed))
    assert (2 in steps) == chain_reaches_step_2


def _givens(i, j, angle):
    g = np.eye(3)
    g[i, i] = g[j, j] = np.cos(angle)
    g[i, j], g[j, i] = -np.sin(angle), np.sin(angle)
    return g


def test_step_that_overflows_on_the_retake_raises():
    # rows 1 and 2 hold 1e-171 and 1e-170 on port 3, so step 2 after port 3
    # underflows; the retake lifts those rows by about 2**565, which overflows
    # the weights of ports 1 and 2, so the step is refused instead of giving inf
    u = UnitaryMatrix(_givens(0, 1, 0.7) @ _givens(0, 2, 1e-170) @ _givens(1, 2, 1e-170))
    with pytest.warns(RuntimeWarning, match="overflow"):
        with pytest.raises(RuntimeError, match="^conditional weights vanished"):
            conditional_weights(u, (1, 2, 3), (3,))


@pytest.mark.parametrize(
    "script, pins",
    [
        # new ports while the pin has count 1, then repeats of summed ports
        ([0, 1, 2, 1, 2, 2, 1], [0, 0, 0, 0, 0, 0, 0]),
        # repeats of the pinned port: the pin moves while another port keeps its old count
        ([0, 1, 0, 1, 1, 0, 0], [0, 0, 1, 1, 0, 0, 1]),
        # new ports while the pin has count > 1 take the pin
        ([3, 3, 5, 5, 5, 6, 6, 1], [3, 3, 5, 5, 3, 6, 6, 1]),
        # a mixture of every kind on nine ports
        ([4, 4, 2, 7, 2, 4, 8, 8, 0, 0, 4, 7], None),
        # the pin moves onto the middle of three summed axes, then a repeat
        # re-sums the middle axis, then the last
        ([0, 1, 2, 3, 3, 0, 3, 1, 3, 1], [0, 0, 0, 0, 0, 2, 2, 2, 2, 2]),
    ],
)
def test_carried_table_matches_fresh_expansion(script, pins):
    n = len(script) + 1
    rng = np.random.default_rng(len(script))
    mp = rng.standard_normal((n, 9)) + 1j * rng.standard_normal((n, 9))
    table = _PrefixTable(mp)
    counts = {}
    for k in range(1, n + 1):
        acc, steps = table.accumulators(k)
        occupied = sorted(counts)
        if occupied:
            block = mp[np.ix_(range(k), occupied)]
            reference, ref_steps = _fresh_accumulators(block, [counts[j] for j in occupied])
            _assert_same_ratios(acc, reference, 1e-12)
            assert steps == ref_steps == pinned_states(counts.values()) - 1
        else:
            assert steps == 0 and acc.shape == (1,)
        if k < n:
            q = script[k - 1]
            table.add(q)
            counts[q] = counts.get(q, 0) + 1
            if pins is not None:
                assert table.pin == pins[k - 1]
            assert counts[table.pin] == min(counts.values())
            # the map holds every summed port's radix, and its digits span the table
            assert table.t is not None
            assert all(table.summed[j] == counts[j] + 1 for j in table.summed)
            assert sorted([*table.summed, table.pin]) == sorted(counts)
            assert math.prod(table.summed.values()) == table.p.size == table.t.shape[1]


def test_carried_table_cdfs_are_pinned():
    # chains drawn at (12, 12) and (12, 24), then the script whose pin moves
    # onto the middle of three summed axes; every step's cdf bytes are hashed
    chains = []
    for m, seed in [(12, 7), (24, 8)]:
        u = haar_unitary(m, seed=seed)
        for s in range(3):
            seq = draw_sample_counted(u, 12, rng=np.random.default_rng(s))[0]
            chains.append((u.matrix[np.asarray(seq.row_order) - 1], [q - 1 for q in seq.ports]))
    rng = np.random.default_rng(10)
    mp = rng.standard_normal((11, 9)) + 1j * rng.standard_normal((11, 9))
    chains.append((mp, [0, 1, 2, 3, 3, 0, 3, 1, 3, 1, 0]))
    digest = hashlib.sha256()
    for mp, script in chains:
        table = _PrefixTable(mp)
        for k, q in enumerate(script, start=1):
            _, cdf, steps = table.weights(k)
            digest.update(cdf.tobytes() + steps.to_bytes(4, "little"))
            table.add(q)
    assert digest.hexdigest() == "a837b3ac8ec6d18e246f56439ecbff09e9457e576b8fe0a7121ef9aa504b90d7", platform_note()


@pytest.mark.parametrize("n, m, seed", [(12, 12, 1), (12, 24, 2), (15, 60, 3), (20, 60, 4)])
def test_chain_weights_match_conditional_weights(n, m, seed):
    # conditional_weights replays the prefix through the table a draw carries,
    # so every step's weights are the draw's bit for bit; a fresh expansion of
    # the prefix checks the carried table against the kernel
    u = haar_unitary(m, seed=seed)
    seq, ops = draw_sample_counted(u, n, rng=np.random.default_rng(seed))
    mp = u.matrix[np.asarray(seq.row_order) - 1]
    table = _PrefixTable(mp)
    counts = {}
    for k in range(1, n + 1):
        weights, _, steps = table.weights(k)
        assert np.array_equal(weights, conditional_weights(u, seq.row_order, seq.ports[: k - 1]))
        if counts:
            occupied = sorted(counts)
            acc, _ = _fresh_accumulators(mp[np.ix_(range(k), occupied)], [counts[j] for j in occupied])
            _assert_same_ratios(weights, np.abs(acc @ mp[:k]) ** 2, 1e-12)
        assert steps == ops.per_step_gray[k - 1] == pinned_states(counts.values()) - 1
        if k < n:
            q = seq.ports[k - 1] - 1
            table.add(q)
            counts[q] = counts.get(q, 0) + 1
    # the (15, 60) and (20, 60) chains outgrow one table and finish on the
    # chunked expansion, and the replay drops its table at the same add
    assert (table.t is None) == (pinned_states(counts.values()) > INNER_STATES)
    assert (table.t is None) == (m == 60)


def test_normal_draws_never_retake_a_step():
    # a retaken step leaves a power of two on the rows of the table, so rows
    # still bit-equal to the unitary's after the last step show that no step
    # was retaken: the pinned (20, 60) chains, and 200 batch draws each at
    # (12, 12) and (12, 24), replayed through the table
    u = haar_unitary(60, seed=2026)
    draws = [(u, draw_sample_counted(u, 20, rng=np.random.default_rng(s))[0]) for s in range(10)]
    for m in (12, 24):
        u = haar_unitary(m, seed=m)
        draws += [(u, seq) for seq in sample_batch(u, 12, 200, master_seed=m).samples]
    for u, seq in draws:
        rows = np.asarray(seq.row_order) - 1
        table = _PrefixTable(u.matrix[rows])
        for k, port in enumerate(seq.ports, start=1):
            table.weights(k)
            table.add(port - 1)
        assert np.array_equal(table.mp, u.matrix[rows])


@pytest.mark.parametrize("n, m, spot_checks", [(12, 24, None), (16, 48, None), (20, 60, 3)])
def test_chain_steps_match_ryser(n, m, spot_checks):
    # Ryser shares no code with the chain's expansion. Each step's weights,
    # scaled to the picked port, must match |perm|^2 of each candidate's k x k
    # block to 1e-11 relative wherever that is above 1e-8 of the picked port's.
    # Candidates are every port, or the picked one plus ``spot_checks`` fixed
    # random ones. At (16, 48) and (20, 60) the chain drops its carried table,
    # so the expansion's outer loop is replayed too.
    u = haar_unitary(m, seed=m)
    seq, _ = draw_sample_counted(u, n, rng=np.random.default_rng(n))
    rows = np.asarray(seq.row_order) - 1
    picks = [q - 1 for q in seq.ports]
    table = _PrefixTable(u.matrix[rows])
    spots = np.random.default_rng(n + 1)
    worst = 0.0
    for k, pick in enumerate(picks, start=1):
        weights = table.weights(k)[0]
        if spot_checks is None:
            ports = range(m)
        else:
            ports = sorted({pick, *spots.choice(m, spot_checks, replace=False).tolist()})
        exact = {l: abs(permanent_ryser(u.matrix[np.ix_(rows[:k], picks[: k - 1] + [l])])) ** 2 for l in ports}
        for l in ports:
            reference = exact[l] / exact[pick]
            if reference > 1e-8:
                worst = max(worst, abs(weights[l] / weights[pick] - reference) / reference)
        if k < n:
            table.add(pick)
    assert worst <= 1e-11
    assert (table.t is None) == (n > 12)


def test_table_drops_at_the_add_where_the_model_passes_inner_states():
    # the table reads its next size off itself; that size must be the model's
    # pinned state count, and the drop must fall where that count first
    # passes INNER_STATES: new ports, then repeats, then repeats of the pin
    rng = np.random.default_rng(16)
    mp = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    for script in (range(14), [*range(12), 5, 6], [*range(12), 0, 0, 0]):
        table = _PrefixTable(mp)
        counts = [0] * 16
        for i, q in enumerate(script):
            table.add(q)
            counts[q] += 1
            est = cost_estimate(counts)
            states = est.bunching_product // est.min_factor
            assert (table.t is None) == (states > INNER_STATES) == (i == len(script) - 1)
            if table.t is not None:
                assert table.p.size == table.t.shape[1] == states


def test_weights_reject_overlong_prefix():
    u = haar_unitary(3, seed=1)
    with pytest.raises(ValueError):
        conditional_weights(u, (1, 2, 3), (1, 1, 2))
    with pytest.raises(ValueError):
        conditional_weights(u, (1, 1, 2), (1,))  # not a permutation


@pytest.mark.parametrize("prefix", [[1.5], ["1"], [[1]], [np.nan]])
def test_weights_reject_non_integer_prefix(prefix):
    with pytest.raises(ValueError):
        conditional_weights(haar_unitary(3, seed=1), [1, 2, 3], prefix)


@pytest.mark.parametrize("prefix", [(), (1, 2, 3)])
def test_weights_reject_too_many_bosons_before_any_work(prefix):
    with pytest.raises(UnsupportedRegimeError):
        conditional_weights(haar_unitary(3, seed=1), (1, 2, 3, 4), prefix)


def test_weights_refuse_a_boolean_row_order():
    with pytest.raises(ValueError, match="^pi must hold integers only"):
        conditional_weights(haar_unitary(3, seed=1), [True, 2], [1])


def test_weights_accept_integer_valued_float_prefix():
    u = haar_unitary(3, seed=1)
    assert np.array_equal(
        conditional_weights(u, [1, 2, 3], [1.0, 3.0]), conditional_weights(u, [1, 2, 3], [1, 3])
    )


# ----------------------------------------------------------------- sampling


def test_single_boson_sampling_distribution():
    u = haar_unitary(4, seed=21)
    rng = np.random.default_rng(77)
    draws = 20_000
    counts = np.zeros(4)
    for _ in range(draws):
        counts[draw_sample_counted(u, 1, rng=rng)[0].ports[0] - 1] += 1
    expected = np.abs(u.matrix[0]) ** 2
    three_sigma = 3 * np.sqrt(expected * (1 - expected) / draws)
    assert np.all(np.abs(counts / draws - expected) < three_sigma)


def test_sample_seed_reproducible():
    u = haar_unitary(5, seed=2)
    first = draw_sample_counted(u, 3, rng=np.random.default_rng(9))
    assert first == draw_sample_counted(u, 3, rng=np.random.default_rng(9))
    assert first[0].seed is None


@pytest.mark.parametrize("n_bosons", [True, np.True_])
def test_sample_refuses_a_boolean_boson_count(n_bosons):
    with pytest.raises(ValueError, match="^n_bosons must be an integer"):
        draw_sample_counted(haar_unitary(4, seed=1), n_bosons, rng=np.random.default_rng(1))


@pytest.mark.parametrize("rng", [5, np.random.SeedSequence(5), np.random.RandomState(5), None])
def test_sample_refuses_a_non_generator_rng(rng):
    u = haar_unitary(5, seed=1)
    with pytest.raises(TypeError, match="^rng must be a numpy Generator"):
        draw_sample_counted(u, 2, rng)


@pytest.mark.parametrize("n", [1, 12])
def test_draw_advances_a_generator_by_a_permutation_and_n_uniforms(n):
    # callers that share one generator across draws rely on this stream
    u = haar_unitary(12, seed=n)
    g, twin = np.random.default_rng(31), np.random.default_rng(31)
    draw_sample_counted(u, n, rng=g)
    twin.permutation(n)
    twin.random(n)
    assert g.bit_generator.state == twin.bit_generator.state


@pytest.mark.parametrize("n, error", [(4, UnsupportedRegimeError), (0, ValueError)])
def test_refused_draw_leaves_its_generator_untouched(n, error):
    g, twin = np.random.default_rng(8), np.random.default_rng(8)
    with pytest.raises(error):
        draw_sample_counted(haar_unitary(3, seed=2), n, rng=g)
    assert g.bit_generator.state == twin.bit_generator.state


def test_chain_past_its_range_is_refused_before_any_work(tmp_path, capsys):
    # a step over k - 1 prefix ports needs up to 2**(k - 2) states, so 32 bosons
    # could need 2**30, past the kernel's 2**29; 31 bosons pass the same check.
    # conditional_weights takes one step, which its own expansion bounds
    start = time.perf_counter()
    u = haar_unitary(32, seed=1)
    g, twin = np.random.default_rng(8), np.random.default_rng(8)
    for entrance in (lambda: sample_batch(u, 32, 0, 0), lambda: draw_sample_counted(u, 32, rng=g)):
        with pytest.raises(ValueError, match="^a chain of 32 bosons exceeds the supported 31"):
            entrance()
    assert g.bit_generator.state == twin.bit_generator.state
    save_matrix(tmp_path / "u32.json", u)
    assert main(["sample", "--unitary", str(tmp_path / "u32.json"), "-n", "32", "--count", "1", "--seed", "1"]) == 2
    assert capsys.readouterr().out == ""
    assert sample_batch(u, 31, 0, 0).samples == ()
    assert conditional_weights(u, range(1, 32), []).shape == (32,)
    assert time.perf_counter() - start < 1.0


def test_sample_counted_counters_match_prefix_model():
    u = haar_unitary(6, seed=8)
    seq, ops = draw_sample_counted(u, 6, rng=np.random.default_rng(4))
    assert len(ops.per_step_gray) == 6
    assert ops.per_step_gray[0] == 0
    occ = np.zeros(6, dtype=int)
    for k, (port, gray) in enumerate(zip(seq.ports, ops.per_step_gray), start=1):
        expected = pinned_states(occ[occ > 0]) - 1
        assert gray == expected, f"step {k}"
        occ[port - 1] += 1


def test_paper_scale_chains_are_pinned():
    # every one of these draws outgrows the carried table and finishes on
    # the from-scratch expansion's outer loop
    u = haar_unitary(60, seed=2026)
    records = []
    for s in range(10):
        seq, ops = draw_sample_counted(u, 20, rng=np.random.default_rng(s))
        assert max(ops.per_step_gray) + 1 > INNER_STATES
        records.append([list(seq.ports), list(seq.row_order), list(ops.per_step_gray)])
    digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
    assert digest == "dca01673bd8f7c2706552053313a502d8ea45661f7fad75546a764cd47bd0419", platform_note()


def test_draws_and_probabilities_hold_across_simd_targets_and_blas_kernels(tmp_path):
    # one child interpreter with numpy held at its SIMD baseline and, on an
    # x86 OpenBLAS, the Haswell kernel: sampled ports, row orders and step
    # counts stay equal, and probabilities agree to 1e-12 though not to the bit
    for m in (12, 16, 24, 60):
        save_matrix(tmp_path / f"u{m}.json", haar_unitary(m, seed=m))
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(simd_extensions()["found"]))
    if openblas_core() != "unknown" and platform.machine().lower() in ("x86_64", "amd64"):
        env["OPENBLAS_CORETYPE"] = "Haswell"
    tests = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(bosonbunch.__file__))
    code = "import json, sys; sys.path[:0] = sys.argv[1:3]; from helpers import dispatch_record; "
    code += "print(json.dumps(dispatch_record(sys.argv[3])))"
    done = subprocess.run(
        [sys.executable, "-c", code, tests, src, str(tmp_path)], env=env, capture_output=True, text=True, check=True
    )
    child, here = json.loads(done.stdout), dispatch_record(tmp_path)
    assert child["draws"] == here["draws"], platform_note()
    np.testing.assert_allclose(child["probabilities"], here["probabilities"], rtol=1e-12, atol=0)


def test_identity_unitary_has_no_interference():
    u = UnitaryMatrix(np.eye(4))
    batch = sample_batch(u, 3, 200, master_seed=1)
    for seq in batch.samples:
        assert tuple(sorted(seq.ports)) == (1, 2, 3)


# ---------------------------------------------------------------- brute force


def test_brute_force_single_boson():
    u = haar_unitary(3, seed=31)
    dist = brute_force_distribution(u, 1)
    for port in range(1, 4):
        config = tuple(1 if p == port else 0 for p in range(1, 4))
        assert dist[config] == pytest.approx(abs(u.matrix[0, port - 1]) ** 2, rel=1e-12)


def test_brute_force_identity_is_point_mass():
    dist = brute_force_distribution(UnitaryMatrix(np.eye(5)), 3)
    assert dist[(1, 1, 1, 0, 0)] == pytest.approx(1.0, rel=1e-12)
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-9)


def test_brute_force_normalizes():
    u = haar_unitary(4, seed=33)
    dist = brute_force_distribution(u, 3)
    assert len(dist) == 20
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-9)


def test_impossible_boson_counts_fail_before_any_work():
    u = haar_unitary(4, seed=1)
    with pytest.raises(UnsupportedRegimeError):
        sample_batch(u, 7, 0, 1)
    with pytest.raises(UnsupportedRegimeError):
        brute_force_distribution(u, 5)
    for n in (0, -1):
        with pytest.raises(ValueError, match="n_bosons must be >= 1"):
            sample_batch(u, n, 0, 1)
        with pytest.raises(ValueError, match="n_bosons must be >= 1"):
            brute_force_distribution(u, n)


@pytest.mark.parametrize("n", [2.5, np.nan, "2", None])
def test_non_integer_boson_counts_fail_before_any_work(n):
    u = haar_unitary(4, seed=1)
    with pytest.raises(ValueError, match="integers only"):
        draw_sample_counted(u, n, rng=np.random.default_rng(0))
    with pytest.raises(ValueError, match="integers only"):
        sample_batch(u, n, 2, 1)
    with pytest.raises(ValueError, match="integers only"):
        brute_force_distribution(u, n)


def test_non_integer_batch_count_fails():
    with pytest.raises(ValueError, match="count must hold integers only"):
        sample_batch(haar_unitary(4, seed=1), 2, 1.5, 1)


@pytest.mark.parametrize("seed", [1.5, np.nan, "2", None, -1])
def test_batch_rejects_bad_master_seeds(seed):
    with pytest.raises(ValueError, match="^master_seed must"):
        sample_batch(haar_unitary(4, seed=1), 2, 1, seed)


def test_integer_valued_counts_sample_like_ints():
    u = haar_unitary(4, seed=1)
    reference = sample_batch(u, 2, 3, 1)
    assert sample_batch(u, 2.0, 3.0, 1) == reference
    assert sample_batch(u, np.int64(2), np.int32(3), 1) == reference
    assert sample_batch(u, 2, 3, 1.0) == sample_batch(u, 2, 3, np.uint8(1)) == reference
    assert sample_batch(u, 2, 1, 2**70).samples[0].seed == (2**70, 0)  # past int64, as SeedSequence allows
    draws = [draw_sample_counted(u, n, rng=np.random.default_rng(5)) for n in (2.0, np.int8(2), 2)]
    assert draws[0] == draws[1] == draws[2]


def test_brute_force_refuses_large_enumerations():
    u = haar_unitary(30, seed=1)
    with pytest.raises(ValueError):
        brute_force_distribution(u, 30)


# -------------------------------------------------------------------- batches


def test_batch_is_reproducible_and_seed_indexed():
    u = haar_unitary(4, seed=41)
    a = sample_batch(u, 2, 50, master_seed=11)
    b = sample_batch(u, 2, 50, master_seed=11)
    assert a == b
    assert a.samples[7].seed == (11, 7)
    # each sample depends only on (master_seed, index), not on batch size
    c = sample_batch(u, 2, 8, master_seed=11)
    assert c.samples == a.samples[:8]
    # sample i is one draw on the generator of SeedSequence(master_seed, spawn_key=(i,))
    for i, seq in enumerate(a.samples):
        rng = np.random.default_rng(np.random.SeedSequence(11, spawn_key=(i,)))
        drawn, ops = draw_sample_counted(u, 2, rng=rng)
        assert (seq.ports, seq.row_order, a.gray_steps[i]) == (drawn.ports, drawn.row_order, ops.gray_steps)


def test_every_draw_checks_the_boson_count_once(monkeypatch):
    calls = count_calls(monkeypatch, sampler, "_check_boson_count")
    count_checks = count_calls(monkeypatch, sampler, "_check_count")
    u = haar_unitary(4, seed=1)
    sample_batch(u, 3, 20, 1)
    assert len(calls) == 1
    assert len(count_checks) == 2  # count and master_seed, never N per sample
    draw_sample_counted(u, 3, rng=np.random.default_rng(1))
    assert len(calls) == 2
    assert len(count_checks) == 2  # a direct draw gates no seed


def test_batch_empty():
    u = haar_unitary(4, seed=41)
    batch = sample_batch(u, 2, 0, master_seed=3)
    assert batch.samples == ()


@pytest.mark.parametrize("ports", [(5, 2, 2), (0, 2)])
def test_configuration_refuses_a_port_outside_the_range(ports):
    # bincount alone would lengthen the vector for port 5 and drop port 0
    seq = PortSequence(ports, tuple(range(1, len(ports) + 1)))
    with pytest.raises(ValueError, match=r"^ports must lie in 1\.\.3, got "):
        seq.configuration(3)


@pytest.mark.parametrize("n_ports", [2.0, np.int64(3)], ids=["float", "int64"])
def test_configuration_accepts_integer_valued_port_counts(n_ports):
    seq = PortSequence((2, 1, 2), (1, 2, 3))
    assert seq.configuration(n_ports).tolist() == seq.configuration(int(n_ports)).tolist()


@pytest.mark.parametrize("n_ports", [True, 0, 2.5])
def test_configuration_refuses_a_port_count_that_is_not_a_positive_integer(n_ports):
    with pytest.raises(ValueError, match=r"^n_ports must "):
        PortSequence((1,), (1,)).configuration(n_ports)


# ----------------------------------------------------- distribution validation


def test_sampler_matches_brute_force_small():
    u = haar_unitary(3, seed=55)
    exact = brute_force_distribution(u, 2)
    batch = sample_batch(u, 2, 30_000, master_seed=100)
    counts = empirical_counts(batch)
    assert total_variation_distance(counts, exact) < 0.02
    _, pvalue = chi_square_fit(counts, exact)
    assert pvalue > 0.001


def test_collision_regime_fits_equal_mass_bins_and_rejects_distinguishable_bosons():
    # (6, 10): 5,005 configurations sorted by exact probability and cut into 20
    # bins of equal exact mass, so that no bin is sparse at 10,000 draws
    u, n, bins, draws = haar_unitary(10, seed=3), 6, 20, 10_000
    exact = brute_force_distribution(u, n)
    configs = sorted(exact, key=exact.get)
    p = np.array([exact[c] for c in configs])
    cut = np.minimum((bins * (p.cumsum() - p)).astype(int), bins - 1)
    bin_of = dict(zip(configs, cut.tolist()))
    bin_mass = dict(enumerate(np.bincount(cut, weights=p, minlength=bins).tolist()))

    def binned(configurations):
        return Counter(bin_of[tuple(c)] for c in configurations)

    batch = sample_batch(u, n, draws, master_seed=5)
    _, chain_p = chi_square_fit(binned(s.configuration(u.dim).tolist() for s in batch.samples), bin_mass)
    assert chain_p > 0.001
    # the foil: boson i lands on port j with probability |U_ij|^2, independently
    rng = np.random.default_rng(5)
    landing = np.abs(u.matrix[:n]) ** 2
    ports = np.stack([rng.choice(u.dim, size=draws, p=row / row.sum()) for row in landing], axis=1)
    foil = (np.eye(u.dim, dtype=int)[ports].sum(axis=1)).tolist()
    _, foil_p = chi_square_fit(binned(foil), bin_mass)
    assert foil_p < 1e-6


@pytest.mark.parametrize(
    "n, m, seed, draws, foil_floor",
    [(12, 24, 1, 1000, 10), (12, 24, 2, 1000, 10), (16, 32, 1, 1000, 10), (20, 60, 1, 100, 5)],
    ids=["1", "2", "16x32-1", "20x60-1"],
)
def test_same_port_pairs_match_the_boson_value_past_brute_force(n, m, seed, draws, foil_floor):
    # (12, 24), (16, 32) and the paper's (20, 60) are far past the brute-force
    # oracle. The mean of sum_j n_j (n_j - 1) is exact: with P = |U[:N]|^2 and
    # s its column sums, distinguishable particles give s.s - sum P^2 and
    # bosons exactly twice that
    u = haar_unitary(m, seed=seed)
    batch = sample_batch(u, n, draws, 11)
    occupation = np.array([seq.configuration(u.dim) for seq in batch.samples])
    pairs = (occupation * (occupation - 1)).sum(axis=1)
    p = np.abs(u.matrix[:n]) ** 2
    s = p.sum(axis=0)
    distinguishable = s @ s - (p**2).sum()
    standard_error = pairs.std(ddof=1) / math.sqrt(draws)
    assert abs(pairs.mean() - 2 * distinguishable) / standard_error <= 5
    assert (pairs.mean() - distinguishable) / standard_error >= foil_floor


def test_first_port_marginal_identity():
    # the first sampled port has marginal (1/N) sum_k |U_kl|^2
    u = haar_unitary(4, seed=60)
    n = 3
    batch = sample_batch(u, n, 30_000, master_seed=200)
    counts = np.zeros(4)
    for seq in batch.samples:
        counts[seq.ports[0] - 1] += 1
    expected = (np.abs(u.matrix[:n, :]) ** 2).mean(axis=0) * len(batch.samples)
    _, pvalue = scipy.stats.chisquare(counts, expected * counts.sum() / expected.sum())
    assert pvalue > 0.001


def test_port_sequences_are_exchangeable():
    # sequences that are permutations of each other occur equally often
    u = haar_unitary(3, seed=70)
    batch = sample_batch(u, 2, 50_000, master_seed=300)
    counts = Counter(seq.ports for seq in batch.samples)
    for pair in [((1, 2), (2, 1)), ((1, 3), (3, 1)), ((2, 3), (3, 2))]:
        a, b = counts[pair[0]], counts[pair[1]]
        z = (a - b) / np.sqrt(a + b)
        assert abs(z) < 4, pair


def test_chi_square_fit_flags_off_support_observations():
    stat, p = chi_square_fit({(1, 1): 5}, {(2, 0): 0.5, (0, 2): 0.5})
    assert p == 0.0


def test_fit_helpers_ignore_a_zero_count_outside_the_support():
    counts, exact = {(1, 0): 50, (0, 1): 0}, {(1, 0): 1.0}
    assert chi_square_fit(counts, exact) == (0.0, 1.0)
    assert total_variation_distance(counts, exact) == 0.0


@pytest.mark.parametrize(
    "exact", [{(1, 0): 1.0}, {(1, 0): 1.0, (0, 1): 0.0}], ids=["missing", "zero-probability"]
)
def test_chi_square_fails_a_positive_count_outside_the_support(exact):
    assert chi_square_fit({(1, 0): 50, (0, 1): 1}, exact) == (math.inf, 0.0)


def test_chi_square_overflowing_statistic_has_p_zero():
    # the pooled bin expects 21 * 5e-324, so (1 - e)^2 / e overflows to inf
    counts = {(2, 0): 10, (0, 2): 10, (1, 1): 1}
    statistic, pvalue = chi_square_fit(counts, {(2, 0): 0.5, (0, 2): 0.5, (1, 1): 5e-324})
    with np.errstate(over="ignore"):
        reference = scipy.stats.chisquare([10, 10, 1], [10.5, 10.5, 21 * 5e-324])
    assert (statistic, pvalue) == (reference.statistic, reference.pvalue) == (math.inf, 0.0)


def test_total_variation_distance_empty_sample():
    with pytest.raises(ValueError):
        total_variation_distance({}, {(1,): 1.0})


@pytest.mark.parametrize(
    "counts, message",
    [
        ({(1, 0): -5, (0, 1): 10}, "be non-negative"),
        ({(1, 0): 2.5, (0, 1): 1}, "hold integers only"),
        ({(1, 0): "3", (0, 1): 1}, "hold integers only"),
        ({(1, 0): True, (0, 1): 1}, "hold integers only"),
    ],
    ids=["negative", "fraction", "string", "boolean"],
)
def test_fit_helpers_refuse_bad_counts(counts, message):
    exact = {(1, 0): 0.5, (0, 1): 0.5}
    for helper in (total_variation_distance, chi_square_fit):
        with pytest.raises(ValueError, match=f"^counts must {message}"):
            helper(counts, exact)


@pytest.mark.parametrize(
    "probabilities",
    [
        {(1, 0): -0.5, (0, 1): 1.5},
        {(1, 0): float("nan"), (0, 1): 2.0},
        {(1, 0): float("inf"), (0, 1): 0.0},
        {(1, 0): 0.5, (0, 1): 0.6},
        {(1, 0): 0.5},
        {},
        {(1, 0): "0.5", (0, 1): "0.5"},
        {(1, 0): True, (0, 1): False},
        {(1, 0): None, (0, 1): 1.0},
        {(1, 0): 0.5 + 0j, (0, 1): 0.5},
    ],
    ids=["negative", "nan", "infinite", "over-one", "under-one", "empty", "string", "boolean", "none", "complex"],
)
def test_fit_helpers_refuse_bad_probabilities(probabilities):
    counts = {(1, 0): 10, (0, 1): 10}
    for helper in (total_variation_distance, chi_square_fit):
        with pytest.raises(ValueError, match="^probabilities must"):
            helper(counts, probabilities)


def test_fit_helpers_accept_totals_within_the_tolerance():
    counts = {(1, 0): 10, (0, 1): 10}
    assert total_variation_distance(counts, {(1, 0): 0.5, (0, 1): 0.5 + 5e-10}) < 1e-9
    assert chi_square_fit(counts, {(1, 0): 0.5 - 5e-10, (0, 1): 0.5})[1] > 0.99


def test_chi_square_statistic_is_scipys():
    rng = np.random.default_rng(3)
    p = 1.0 + rng.random(20)
    p /= p.sum()
    exact = {(i,): q for i, q in enumerate(p.tolist())}
    counts = Counter((i,) for i in rng.choice(20, size=1000, p=p).tolist())
    statistic, pvalue = chi_square_fit(counts, exact)
    # every bin expects at least 25, so none is pooled
    exp = p * 1000
    exp *= 1000 / exp.sum()
    reference = scipy.stats.chisquare([counts[(i,)] for i in range(20)], exp)
    assert statistic == reference.statistic
    assert pvalue == pytest.approx(reference.pvalue, rel=1e-12)


@pytest.mark.parametrize(
    "dofs, rel", [([*range(1, 21), 33, 64, 100, 333, 999, 1000], 1e-12), ([2000, 5000, 20000], 1e-10)]
)
def test_chi_square_tail_matches_scipy(dofs, rel):
    p = np.concatenate([np.logspace(-250, -1, 60), np.linspace(0.1, 0.999, 20)])
    for dof in dofs:
        assert _chi_square_sf(0.0, dof) == 1.0
        for x in scipy.stats.chi2.isf(p, dof).tolist():
            assert _chi_square_sf(x, dof) == pytest.approx(scipy.stats.chi2.sf(x, dof), rel=rel), (x, dof)


# ------------------------------------------------------------- input gates

U2 = haar_unitary(2, seed=5)
U3 = haar_unitary(3, seed=5)
EVEN = {(1, 0): 0.5, (0, 1): 0.5}


@pytest.mark.parametrize(
    "values",
    [[-1, 2], [0, 0], [1.5, 1], [True, 1], [[1]]],
    ids=["negative", "no-positive", "fraction", "boolean", "nested"],
)
@pytest.mark.parametrize(
    "what, entrance",
    [
        ("configuration", lambda c: output_probability(U2, c)),
        ("occupations", cost_estimate),
        ("multiplicities", lambda c: repeated_column_expansion(np.ones((2, 2)), c)),
        ("counts", lambda c: total_variation_distance(dict(zip(EVEN, c)), EVEN)),
        ("counts", lambda c: chi_square_fit(dict(zip(EVEN, c)), EVEN)),
    ],
    ids=["output_probability", "cost_estimate", "repeated_column_expansion", "tvd", "chi_square"],
)
def test_every_count_entrance_refuses_bad_vectors(what, entrance, values):
    with pytest.raises(ValueError, match=f"^{what} must"):
        entrance(values)


PORT_ENTRANCES = {
    "prefix": lambda q: conditional_weights(U3, [1, 2, 3], [q]),
    "row indices": lambda q: submatrix(U3, [q], [1]),
    "port multiset": lambda q: submatrix(U3, [1], [q]),
}


@pytest.mark.parametrize("port", [0, 4])
@pytest.mark.parametrize("what", PORT_ENTRANCES)
def test_every_port_entrance_refuses_ports_out_of_range(what, port):
    with pytest.raises(ValueError, match=f"^{what} must lie in 1..3, got \\[{port}\\]$"):
        PORT_ENTRANCES[what](port)


ROW_ORDER_ENTRANCES = {
    "pi": lambda pi: conditional_weights(U3, pi, [1]),
}


@pytest.mark.parametrize(
    "values, message",
    [
        ([1, 1], "be a permutation of 1..2, got \\[1, 1\\]$"),
        ([0, 1], "be a permutation of 1..2, got \\[0, 1\\]$"),
        ([1, 3], "be a permutation of 1..2, got \\[1, 3\\]$"),
        ([1.5, 2], "hold integers only"),
        ([True, 2], "hold integers only"),
        ([], "not be empty$"),
    ],
    ids=["repeat", "zero", "gap", "fraction", "boolean", "empty"],
)
@pytest.mark.parametrize("what", ROW_ORDER_ENTRANCES)
def test_every_row_order_entrance_refuses_non_permutations(what, values, message):
    with pytest.raises(ValueError, match=f"^{what} must {message}"):
        ROW_ORDER_ENTRANCES[what](values)


@pytest.mark.parametrize(
    "entrance",
    [
        lambda u: draw_sample_counted(u, 4, rng=np.random.default_rng(0)),
        lambda u: brute_force_distribution(u, 4),
        lambda u: conditional_weights(u, (1, 2, 3, 4), ()),
        lambda u: output_probability(u, [4, 0, 0]),
    ],
    ids=["draw_sample_counted", "brute_force_distribution", "conditional_weights", "output_probability"],
)
def test_more_bosons_than_ports_is_one_regime_error(entrance):
    with pytest.raises(UnsupportedRegimeError, match="^4 bosons on 3 ports"):
        entrance(U3)


UNITARY_ENTRANCES = {
    "draw_sample_counted": lambda u: draw_sample_counted(u, 2, rng=np.random.default_rng(0)),
    "sample_batch": lambda u: sample_batch(u, 2, 3, 0),
    "conditional_weights": lambda u: conditional_weights(u, (1, 2), (1,)),
    "brute_force_distribution": lambda u: brute_force_distribution(u, 2),
    "output_probability": lambda u: output_probability(u, [1, 1, 0]),
}


@pytest.mark.parametrize("what", UNITARY_ENTRANCES)
def test_every_unitary_entrance_refuses_a_plain_array(what):
    # a bare array of the same unitary's entries, which has no .dim
    with pytest.raises(TypeError, match=f"^{what} expects a UnitaryMatrix$"):
        UNITARY_ENTRANCES[what](U3.matrix)
