import math

import numpy as np
import pytest

from bosonbunch import (
    UnitaryMatrix,
    cost_estimate,
    haar_unitary,
    output_probability,
    permanent_glynn,
    permanent_naive,
    permanent_repeated,
    permanent_ryser,
    repeated_column_expansion,
)
from helpers import compositions, expand_columns, partitions, random_complex, rel_err

BEAMSPLITTER = UnitaryMatrix(np.array([[1, 1], [1, -1]]) / np.sqrt(2))


# ---------------------------------------------------------------- permanents


def test_naive_examples():
    assert permanent_naive([[1, 1], [1, 1]]) == 2
    assert permanent_naive([[1, 2], [3, 4]]) == 10  # ad + bc
    for n in (1, 2, 5):
        assert permanent_naive(np.eye(n)) == 1


def test_naive_guards():
    with pytest.raises(ValueError):
        permanent_naive(np.eye(11))
    with pytest.raises(ValueError):
        permanent_naive(np.ones((2, 3)))


def test_glynn_examples():
    assert permanent_glynn(np.eye(4)) == pytest.approx(1.0)
    assert permanent_glynn([[0, 1], [1, 0]]) == pytest.approx(1.0)
    assert permanent_glynn([[3.5 - 2j]]) == pytest.approx(3.5 - 2j)


def test_ryser_examples():
    assert permanent_ryser([[1, 1], [1, 1]]) == pytest.approx(2.0)
    assert permanent_ryser([[3.5 - 2j]]) == pytest.approx(3.5 - 2j)


@pytest.mark.parametrize("n", [16, 20])
def test_glynn_rank_one_closed_form(n):
    # perm(u v^T) = n! prod(u) prod(v), far beyond the factorial oracle
    rng = np.random.default_rng(100 + n)
    u = random_complex(rng, n)
    v = random_complex(rng, n)
    reference = math.factorial(n) * u.prod() * v.prod()
    assert rel_err(permanent_glynn(np.outer(u, v)), reference) < 1e-12


def test_ryser_rank_one_closed_form():
    # the matrix of Glynn's n = 20 case; 12 inner and 7 outer columns
    n = 20
    rng = np.random.default_rng(100 + n)
    u = random_complex(rng, n)
    v = random_complex(rng, n)
    reference = math.factorial(n) * u.prod() * v.prod()
    assert rel_err(permanent_ryser(np.outer(u, v)), reference) < 1e-12


def test_ryser_matches_glynn_past_one_subset_table():
    rng = np.random.default_rng(102)
    for n in (13, 14, 15):  # 0, 1 and 2 columns outside the 4096-subset table
        a = random_complex(rng, (n, n))
        assert rel_err(permanent_ryser(a), permanent_glynn(a)) < 1e-12


def test_fast_permanents_match_oracle():
    rng = np.random.default_rng(101)
    for dim in range(2, 8):
        for _ in range(40):
            a = random_complex(rng, (dim, dim))
            reference = permanent_naive(a)
            assert rel_err(permanent_ryser(a), reference) < 1e-9
            assert rel_err(permanent_glynn(a), reference) < 1e-9


# ------------------------------------------------------------ repeated columns


def test_repeated_single_column_closed_form():
    rng = np.random.default_rng(3)
    col = random_complex(rng, (3, 1))
    value = permanent_repeated(col, [3])
    assert rel_err(value, 6 * col[:, 0].prod()) < 1e-12


def test_repeated_no_repetition_equals_glynn():
    rng = np.random.default_rng(4)
    a = random_complex(rng, (5, 5))
    assert rel_err(permanent_repeated(a, [1] * 5), permanent_glynn(a)) < 1e-12


def test_repeated_matches_expanded_oracle():
    rng = np.random.default_rng(5)
    block = random_complex(rng, (4, 2))
    value = permanent_repeated(block, [2, 2])
    oracle = permanent_naive(expand_columns(block, [2, 2]))
    assert rel_err(value, oracle) < 1e-9


def test_repeated_all_patterns_up_to_n6():
    rng = np.random.default_rng(6)
    for n in range(2, 7):
        for pattern in partitions(n):
            block = random_complex(rng, (n, len(pattern)))
            value = permanent_repeated(block, list(pattern))
            oracle = permanent_naive(expand_columns(block, pattern))
            assert rel_err(value, oracle) < 1e-9, pattern


def test_full_and_reduced_expansions_agree():
    rng = np.random.default_rng(8)
    for n in range(2, 9):
        for pattern in partitions(n):
            block = random_complex(rng, (n, len(pattern)))
            full, full_steps = repeated_column_expansion(block, pattern, fix_minimal=False)
            red, red_steps = repeated_column_expansion(block, pattern, fix_minimal=True)
            assert rel_err(red, full) < 1e-12
            prod = math.prod(m + 1 for m in pattern)
            assert full_steps == prod - 1
            assert red_steps == prod // min(m + 1 for m in pattern) - 1


@pytest.mark.parametrize("fix_minimal", [True, False])
def test_repeated_rank_one_closed_form(fix_minimal):
    # columns v_j u repeated m_j times: perm = N! prod(u) prod_j v_j^m_j;
    # unpinned, the 6,912 states exceed one inner table
    pattern = [3, 3, 2, 2, 2, 1, 1, 1, 1]
    n = sum(pattern)
    rng = np.random.default_rng(12)
    u = random_complex(rng, n)
    v = random_complex(rng, len(pattern))
    reference = math.factorial(n) * u.prod() * np.prod(v ** np.array(pattern))
    value, steps = repeated_column_expansion(np.outer(u, v), pattern, fix_minimal=fix_minimal)
    assert rel_err(value, reference) < 1e-12
    factors = [m + 1 for m in pattern]
    assert steps == math.prod(factors) // (min(factors) if fix_minimal else 1) - 1


def test_repeated_is_column_permutation_invariant():
    rng = np.random.default_rng(9)
    block = random_complex(rng, (6, 3))
    pattern = [3, 2, 1]
    reference = permanent_repeated(block, pattern)
    for order in [(1, 0, 2), (2, 1, 0), (2, 0, 1)]:
        value = permanent_repeated(block[:, list(order)], [pattern[j] for j in order])
        assert rel_err(value, reference) < 1e-12


def test_expanded_matrix_transpose_symmetry():
    rng = np.random.default_rng(10)
    block = random_complex(rng, (5, 2))
    expanded = expand_columns(block, [3, 2])
    assert rel_err(permanent_naive(expanded.T), permanent_naive(expanded)) < 1e-12


def test_repeated_gray_step_counter():
    rng = np.random.default_rng(11)
    for pattern in [
        (4,), (1, 1, 1, 1), (2, 1), (3, 2, 2), (2, 2, 2, 1),
        (3,), (2, 2), (3, 1, 1), (4, 2, 1), (1,) * 6,
    ]:
        n = sum(pattern)
        block = random_complex(rng, (n, len(pattern)))
        _, steps = repeated_column_expansion(block, pattern)
        factors = [m + 1 for m in pattern]
        assert steps == math.prod(factors) // min(factors) - 1
        # the measured count is the one the cost model charges N row products for
        assert n * (steps + 1) == cost_estimate(pattern).op_units


def test_repeated_rejects_bad_shapes():
    with pytest.raises(ValueError):
        permanent_repeated(np.ones((3, 2)), [])
    with pytest.raises(ValueError):
        permanent_repeated(np.ones((3, 2)), [2, 2])  # sums to 4, block has 3 rows
    with pytest.raises(ValueError):
        permanent_repeated(np.ones((3, 2)), [3, 0])


# ------------------------------------------------------------------ cost model


def test_cost_estimate_examples():
    assert cost_estimate([7, 0, 0, 0]).op_units == 7  # fully bunched: linear
    n = 12
    assert cost_estimate([1] * n).op_units == n * 2 ** (n - 1)
    assert cost_estimate([2, 1]).op_units == 9


def test_cost_estimate_is_exact_at_large_n():
    n = 60
    estimate = cost_estimate([1] * n)
    assert estimate.op_units == 60 * 2**59  # wide integers, no overflow
    assert estimate.bunching_product == 2**60
    assert estimate.min_factor == 2


def test_cost_estimate_rejects_empty():
    with pytest.raises(ValueError):
        cost_estimate([0, 0, 0])
    with pytest.raises(ValueError):
        cost_estimate([2, -1])


# --------------------------------------------------------- output probability


def test_output_probability_single_boson():
    u = haar_unitary(4, seed=2)
    for port in range(1, 5):
        config = [0] * 4
        config[port - 1] = 1
        expected = abs(u.matrix[0, port - 1]) ** 2
        assert output_probability(u, config) == pytest.approx(expected, rel=1e-12)


def test_output_probability_hong_ou_mandel():
    assert output_probability(BEAMSPLITTER, [1, 1]) == pytest.approx(0.0, abs=1e-12)
    assert output_probability(BEAMSPLITTER, [2, 0]) == pytest.approx(0.5, rel=1e-12)
    assert output_probability(BEAMSPLITTER, [0, 2]) == pytest.approx(0.5, rel=1e-12)


def test_output_probability_validates_configuration():
    u = haar_unitary(3, seed=2)
    with pytest.raises(ValueError):
        output_probability(u, [0, 0, 0])
    with pytest.raises(ValueError):
        output_probability(u, [1, 1])  # wrong length
    with pytest.raises(ValueError):
        output_probability(u, [2, -1, 1])
    with pytest.raises(ValueError):
        output_probability(u, [2, 1, 1])  # needs 4 input ports on a 3-port


def test_output_probability_names_boson_and_port_counts():
    with pytest.raises(ValueError, match="4 bosons on 3 ports"):
        output_probability(haar_unitary(3, seed=2), [2, 1, 1])


@pytest.mark.parametrize("config", [[1.5, 0.5, 1.0], ["1", "1", "0"], [1, float("nan"), 0]])
def test_output_probability_rejects_non_integer_counts(config):
    with pytest.raises(ValueError, match="integers"):
        output_probability(haar_unitary(3, seed=2), config)


def test_cost_and_expansion_reject_non_integer_counts():
    with pytest.raises(ValueError, match="integers"):
        cost_estimate([1.5, 1])
    with pytest.raises(ValueError, match="integers"):
        repeated_column_expansion(np.ones((2, 2)), [1.9, 1])


def test_integer_valued_float_counts_are_accepted():
    u = haar_unitary(3, seed=2)
    assert output_probability(u, [2.0, 0.0, 1.0]) == output_probability(u, [2, 0, 1])
    assert cost_estimate(np.array([2.0, 1.0])) == cost_estimate([2, 1])
    block = random_complex(np.random.default_rng(20), (3, 2))
    assert repeated_column_expansion(block, [2.0, 1.0]) == repeated_column_expansion(block, [2, 1])


PORTS_U = haar_unitary(6, seed=21)
PORTS_CONFIGS = [[1, 0, 2, 0, 1, 0], [0, 0, 0, 3, 0, 1], [1, 1, 1, 0, 0, 1]]


def test_explicit_default_ports_equal_the_default():
    for config in PORTS_CONFIGS:
        ports = list(range(1, sum(config) + 1))
        assert output_probability(PORTS_U, config, input_ports=ports) == output_probability(PORTS_U, config)


def test_input_ports_select_the_rows_of_the_unitary():
    ports = [5, 2, 6, 1]
    order = ports + [r for r in range(1, 7) if r not in ports]
    permuted = UnitaryMatrix(PORTS_U.matrix[np.array(order) - 1])
    for config in PORTS_CONFIGS:
        assert output_probability(PORTS_U, config, input_ports=ports) == output_probability(permuted, config)


@pytest.mark.parametrize(
    "ports",
    [[1, 1, 2, 3], [0, 1, 2, 3], [1, 2, 3, 7], [1, 2, 3], [1, 2, 3, 4, 5], [1, 2.5, 3, 4]],
    ids=["duplicate", "below-range", "above-range", "too-few", "too-many", "non-integer"],
)
def test_output_probability_rejects_bad_ports(ports):
    with pytest.raises(ValueError):
        output_probability(PORTS_U, PORTS_CONFIGS[0], input_ports=ports)


def test_output_probabilities_normalize():
    u = haar_unitary(4, seed=13)
    n = 3
    total = sum(
        output_probability(u, config)
        for config in compositions(n, 4)
    )
    assert total == pytest.approx(1.0, abs=1e-9)


# Bit patterns of output_probability, pinned so that a change to the code
# around the kernel (validation, block slicing, the factorial scale) cannot
# move a single bit unnoticed. Ten of the 16-boson multisets have more than
# INNER_STATES states, so the outer loop of the expansion runs.
GOLDEN_16 = [
    ([0, 1, 0, 0, 12, 2, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0], '0x1.a5e029c4812b5p-29'),  # 78 states
    ([0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 1, 3, 8, 1, 0, 1], '0x1.67cd645c9346fp-30'),  # 576 states
    ([0, 1, 1, 0, 0, 3, 0, 5, 0, 0, 0, 0, 4, 0, 0, 2], '0x1.35a9317ec8ae0p-31'),  # 720 states
    ([1, 0, 0, 2, 0, 0, 0, 0, 0, 1, 8, 1, 1, 1, 1, 0], '0x1.3f91c88113985p-32'),  # 864 states
    ([0, 6, 3, 2, 0, 0, 0, 1, 0, 1, 0, 0, 1, 0, 0, 2], '0x1.f81b10580fd8ep-27'),  # 1008 states
    ([1, 1, 0, 1, 1, 0, 0, 1, 0, 8, 0, 0, 1, 1, 0, 1], '0x1.b67fab637f4dbp-30'),  # 1152 states
    ([0, 3, 0, 1, 3, 0, 0, 0, 0, 1, 3, 1, 0, 0, 4, 0], '0x1.38233818f5663p-32'),  # 1280 states
    ([0, 0, 0, 2, 0, 0, 1, 4, 1, 0, 2, 4, 0, 0, 2, 0], '0x1.597965b5cf22cp-29'),  # 1350 states
    ([0, 0, 0, 1, 1, 5, 4, 0, 0, 1, 2, 0, 0, 0, 1, 1], '0x1.67b85f27f3f1ep-28'),  # 1440 states
    ([0, 0, 2, 1, 0, 0, 1, 2, 0, 6, 2, 0, 1, 0, 0, 1], '0x1.e4cc52f7cbd58p-31'),  # 1512 states
    ([3, 2, 0, 0, 0, 1, 0, 1, 5, 0, 2, 0, 0, 1, 0, 1], '0x1.1bc6e18b6a9cdp-26'),  # 1728 states
    ([0, 2, 4, 0, 0, 1, 1, 1, 0, 2, 0, 0, 1, 0, 0, 4], '0x1.c44ea221faf54p-29'),  # 1800 states
    ([3, 0, 0, 0, 0, 1, 0, 4, 3, 1, 0, 1, 0, 1, 2, 0], '0x1.409dde5242f66p-27'),  # 1920 states
    ([0, 1, 1, 1, 0, 0, 1, 2, 0, 1, 6, 1, 0, 2, 0, 0], '0x1.5e1c93daedbdep-28'),  # 2016 states
    ([1, 2, 3, 2, 0, 0, 0, 0, 0, 1, 2, 0, 1, 4, 0, 0], '0x1.74806b14143bap-30'),  # 2160 states
    ([0, 3, 0, 3, 2, 0, 2, 0, 1, 1, 3, 1, 0, 0, 0, 0], '0x1.5d0f918a23d6fp-28'),  # 2304 states
    ([1, 0, 1, 0, 0, 1, 1, 3, 3, 0, 0, 0, 0, 1, 4, 1], '0x1.b4ffbb1b33f65p-31'),  # 2560 states
    ([2, 2, 3, 1, 2, 0, 0, 0, 0, 1, 0, 0, 2, 0, 0, 3], '0x1.24c0612e32626p-28'),  # 2592 states
    ([1, 3, 1, 1, 0, 0, 0, 2, 0, 1, 1, 0, 2, 4, 0, 0], '0x1.70a33ac47af3bp-30'),  # 2880 states
    ([3, 1, 1, 2, 0, 3, 3, 0, 1, 0, 0, 0, 0, 0, 1, 1], '0x1.dc4b4ba14116dp-32'),  # 3072 states
    ([2, 1, 0, 3, 0, 0, 0, 2, 3, 0, 0, 2, 0, 1, 1, 1], '0x1.54569e225aadfp-30'),  # 3456 states
    ([1, 3, 2, 0, 0, 0, 1, 0, 2, 1, 1, 0, 3, 0, 0, 2], '0x1.6417a8e24dbb0p-29'),  # 3456 states
    ([2, 3, 2, 0, 0, 0, 2, 2, 1, 0, 2, 0, 0, 1, 0, 1], '0x1.788e7f11e2278p-28'),  # 3888 states
    ([1, 2, 0, 1, 0, 0, 2, 2, 1, 0, 1, 0, 0, 1, 1, 4], '0x1.560d408fa48a1p-27'),  # 4320 states
    ([0, 1, 0, 1, 1, 1, 0, 0, 3, 1, 0, 2, 2, 0, 3, 1], '0x1.4803545b5cacfp-30'),  # 4608 states
    ([1, 1, 0, 0, 0, 3, 2, 0, 1, 1, 0, 2, 0, 1, 2, 2], '0x1.5b86846e15a3fp-28'),  # 5184 states
    ([2, 0, 1, 1, 1, 1, 0, 1, 0, 1, 0, 3, 0, 2, 2, 1], '0x1.bd9da29f56878p-31'),  # 6912 states
    ([2, 1, 2, 1, 1, 1, 0, 0, 1, 1, 1, 2, 2, 1, 0, 0], '0x1.10dbab8506808p-27'),  # 10368 states
    ([1, 1, 1, 1, 2, 1, 0, 1, 1, 0, 2, 0, 0, 1, 2, 2], '0x1.b29f51d8fda70p-28'),  # 10368 states
    ([2, 2, 1, 2, 2, 1, 1, 0, 1, 0, 1, 1, 1, 1, 0, 0], '0x1.3fcb89fe17460p-31'),  # 10368 states
    ([3, 0, 1, 1, 1, 1, 1, 1, 1, 0, 1, 1, 0, 2, 1, 1], '0x1.119f1c523d24ep-29'),  # 12288 states
    ([0, 1, 1, 0, 1, 1, 1, 1, 2, 1, 1, 2, 0, 2, 1, 1], '0x1.367dd1c46ff52p-30'),  # 13824 states
    ([1, 1, 1, 2, 0, 1, 0, 2, 1, 2, 1, 1, 0, 1, 1, 1], '0x1.a87ecc6b3b4c6p-31'),  # 13824 states
    ([1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1], '0x1.96dda45bad86dp-28'),  # 32768 states
    ([16, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0], '0x1.764e10ca1413ap-32'),  # 1 states
    ([2, 2, 2, 2, 2, 2, 2, 2, 0, 0, 0, 0, 0, 0, 0, 0], '0x1.e1768c24dc203p-30'),  # 2187 states
]
GOLDEN_5 = [
    ([1, 1, 1, 1, 1], '0x1.057320f76b719p-10'),
    ([5, 0, 0, 0, 0], '0x1.19cd37ac8b980p-7'),
    ([0, 2, 0, 3, 0], '0x1.10c4fce0a9d9bp-7'),
    ([1, 0, 2, 0, 2], '0x1.7c3a4ea499b5dp-8'),
    ([0, 1, 1, 1, 2], '0x1.6766796b6635ep-10'),
]


@pytest.mark.parametrize("dim, golden", [(16, GOLDEN_16), (5, GOLDEN_5)])
def test_output_probability_bits_are_pinned(dim, golden):
    u = haar_unitary(dim, seed=2026)
    got = [(occ, float.hex(output_probability(u, occ))) for occ, _ in golden]
    assert got == golden
