import json
from collections import Counter

import numpy as np
import pytest

from bosonbunch import (
    UnitaryMatrix,
    UnsupportedRegimeError,
    brute_force_distribution,
    chi_square_fit,
    conditional_weights,
    draw_sample,
    draw_sample_counted,
    empirical_counts,
    haar_unitary,
    identity_unitary,
    permanent_naive,
    repeated_column_expansion,
    sample_batch,
    sample_permutation,
    submatrix,
    total_variation_distance,
)
from bosonbunch.permanent import INNER_STATES
from bosonbunch.sampler import _PrefixTable, _subpermanent_accumulators

BEAMSPLITTER = UnitaryMatrix(np.array([[1, 1], [1, -1]]) / np.sqrt(2))


# ------------------------------------------------------------- permutations


def test_permutation_n1_is_identity():
    rng = np.random.default_rng(0)
    assert sample_permutation(1, rng) == (1,)


def test_permutation_reproducible_per_seed():
    a = sample_permutation(6, np.random.default_rng(5))
    b = sample_permutation(6, np.random.default_rng(5))
    assert a == b
    assert sorted(a) == list(range(1, 7))


def test_permutation_uniform_over_s3():
    rng = np.random.default_rng(42)
    draws = 60_000
    counts = Counter(sample_permutation(3, rng) for _ in range(draws))
    assert len(counts) == 6
    three_sigma = 3 * np.sqrt((1 / 6) * (5 / 6) / draws)
    for count in counts.values():
        assert abs(count / draws - 1 / 6) < three_sigma


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


def test_leave_one_out_matches_per_row_expansion():
    # 6,561 summed states: more than one inner table, so outer shifts run
    counts = [2] * 8 + [1]
    k = sum(counts) + 1
    rng = np.random.default_rng(14)
    block = rng.standard_normal((k, len(counts))) + 1j * rng.standard_normal((k, len(counts)))
    acc, steps = _subpermanent_accumulators(block, counts)
    assert steps == 3**8 - 1
    per_row = np.array(
        [repeated_column_expansion(np.delete(block, i, axis=0), counts)[0] for i in range(k)]
    )
    assert np.allclose(acc / acc[0], per_row / per_row[0], rtol=1e-10, atol=0)


def _assert_same_ratios(got, reference, rtol):
    # proportional vectors: compare after scaling both by the largest reference entry
    j = int(np.argmax(np.abs(reference)))
    got, reference = got / got[j], reference / reference[j]
    assert np.max(np.abs(got - reference)) <= rtol * np.max(np.abs(reference))


def _model_steps(counts):
    factors = [c + 1 for c in counts.values()]
    return int(np.prod(factors)) // min(factors) - 1 if factors else 0


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
            reference, ref_steps = _subpermanent_accumulators(block, [counts[j] for j in occupied])
            _assert_same_ratios(acc, reference, 1e-12)
            assert steps == ref_steps == _model_steps(counts)
        else:
            assert steps == 0 and acc.shape == (1,)
        if k < n:
            q = script[k - 1]
            table.add(q)
            counts[q] = counts.get(q, 0) + 1
            if pins is not None:
                assert table.pin == pins[k - 1]
            assert counts[table.pin] == min(counts.values())


@pytest.mark.parametrize("n, m, seed", [(12, 12, 1), (12, 24, 2), (15, 60, 3)])
def test_chain_weights_match_conditional_weights(n, m, seed):
    u = haar_unitary(m, seed=seed)
    seq, ops = draw_sample_counted(u, n, seed=seed)
    table = _PrefixTable(u.matrix[np.asarray(seq.row_order) - 1])
    counts = {}
    for k in range(1, n + 1):
        prefix = seq.ports[: k - 1]
        weights, steps = table.weights(k)
        reference = conditional_weights(u, seq.row_order, prefix)
        _assert_same_ratios(weights, reference, 1e-12)
        assert steps == ops.per_step_gray[k - 1] == _model_steps(counts)
        if k < n:
            table.add(seq.ports[k - 1] - 1)
            counts[seq.ports[k - 1]] = counts.get(seq.ports[k - 1], 0) + 1
    # the widest chain outgrows one table and finishes on the chunked expansion
    assert (table.t is None) == (_model_steps(counts) + 1 > INNER_STATES)
    assert (table.t is None) == (m == 60)


def test_weights_reject_overlong_prefix():
    u = haar_unitary(3, seed=1)
    with pytest.raises(ValueError):
        conditional_weights(u, (1, 2, 3), (1, 1, 2))
    with pytest.raises(ValueError):
        conditional_weights(u, (1, 1, 2), (1,))  # not a permutation


# ----------------------------------------------------------------- sampling


def test_single_boson_sampling_distribution():
    u = haar_unitary(4, seed=21)
    rng = np.random.default_rng(77)
    draws = 20_000
    counts = np.zeros(4)
    for _ in range(draws):
        counts[draw_sample(u, 1, rng=rng).ports[0] - 1] += 1
    expected = np.abs(u.matrix[0]) ** 2
    three_sigma = 3 * np.sqrt(expected * (1 - expected) / draws)
    assert np.all(np.abs(counts / draws - expected) < three_sigma)


def test_hong_ou_mandel_sampling():
    batch = sample_batch(BEAMSPLITTER, 2, 10_000, master_seed=5)
    counts = empirical_counts(batch)
    assert counts.get((1, 1), 0) == 0
    assert abs(counts[(2, 0)] / 10_000 - 0.5) < 0.015


def test_sample_seed_reproducible():
    u = haar_unitary(5, seed=2)
    assert draw_sample(u, 3, seed=9) == draw_sample(u, 3, seed=9)


def test_sample_rejects_too_many_bosons():
    u = haar_unitary(3, seed=2)
    with pytest.raises(UnsupportedRegimeError):
        draw_sample(u, 4, seed=0)
    with pytest.raises(ValueError):
        draw_sample(u, 0, seed=0)


def test_sample_counted_counters_match_prefix_model():
    u = haar_unitary(6, seed=8)
    seq, ops = draw_sample_counted(u, 6, seed=4)
    assert len(ops.per_step_gray) == 6
    assert ops.per_step_gray[0] == 0
    occ = np.zeros(6, dtype=int)
    for k, (port, gray) in enumerate(zip(seq.ports, ops.per_step_gray), start=1):
        factors = [int(c) + 1 for c in occ if c > 0]
        expected = int(np.prod(factors)) // min(factors) - 1 if factors else 0
        assert gray == expected, f"step {k}"
        occ[port - 1] += 1


def test_identity_unitary_has_no_interference():
    u = identity_unitary(4)
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
    dist = brute_force_distribution(identity_unitary(5), 3)
    assert dist[(1, 1, 1, 0, 0)] == pytest.approx(1.0, rel=1e-12)
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-9)


def test_brute_force_normalizes():
    u = haar_unitary(4, seed=33)
    dist = brute_force_distribution(u, 3)
    assert len(dist) == 20
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-9)


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


def test_batch_empty():
    u = haar_unitary(4, seed=41)
    batch = sample_batch(u, 2, 0, master_seed=3)
    assert batch.samples == ()
    lines = list(batch.jsonl_lines())
    assert len(lines) == 1  # header only


def test_batch_jsonl_format():
    batch = sample_batch(BEAMSPLITTER, 2, 4, master_seed=9)
    lines = list(batch.jsonl_lines())
    header = json.loads(lines[0])
    assert header["n_bosons"] == 2 and header["n_ports"] == 2
    assert header["master_seed"] == 9 and header["count"] == 4
    assert len(header["unitary_sha256"]) == 64
    for i, line in enumerate(lines[1:]):
        doc = json.loads(line)
        assert doc["idx"] == i
        assert len(doc["ports"]) == 2
        assert sum(doc["config"]) == 2
        assert doc["ops"] >= 0


# ----------------------------------------------------- distribution validation


def test_sampler_matches_brute_force_small():
    u = haar_unitary(3, seed=55)
    exact = brute_force_distribution(u, 2)
    batch = sample_batch(u, 2, 30_000, master_seed=100)
    counts = empirical_counts(batch)
    assert total_variation_distance(counts, exact) < 0.02
    _, pvalue = chi_square_fit(counts, exact)
    assert pvalue > 0.001


def test_first_port_marginal_identity():
    # the first sampled port has marginal (1/N) sum_k |U_kl|^2
    import scipy.stats

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


def test_total_variation_distance_empty_sample():
    with pytest.raises(ValueError):
        total_variation_distance({}, {(1,): 1.0})
