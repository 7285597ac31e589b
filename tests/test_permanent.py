import itertools
import math
import time

import numpy as np
import pytest

from bosonbunch import (
    UnitaryMatrix,
    conditional_weights,
    cost_estimate,
    haar_unitary,
    output_probability,
    permanent_glynn,
    permanent_naive,
    permanent_ryser,
    repeated_column_expansion,
)
from bosonbunch import permanent
from bosonbunch.errors import _integer_entries
from bosonbunch.permanent import (
    INNER_STATES,
    UFUNC_BUFFER,
    _expansion_sum,
    _leave_one_out,
    _level_table,
    _root_products,
    _row_products,
    _unit_roots,
)
from helpers import (
    DEFAULT_BUFFER,
    compositions,
    count_calls,
    expand_columns,
    partitions,
    platform_note,
    random_complex,
    rel_err,
    ufunc_buffer,
)

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


def test_glynn_gates_its_matrix_once_and_takes_no_count_gate(monkeypatch):
    matrix_gate = count_calls(monkeypatch, permanent, "_as_complex_matrix")
    count_gate = count_calls(monkeypatch, permanent, "_check_counts")
    permanent_glynn(random_complex(np.random.default_rng(4), (4, 4)))
    assert (len(matrix_gate), len(count_gate)) == (1, 0)


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
    value = repeated_column_expansion(col, [3])[0]
    assert rel_err(value, 6 * col[:, 0].prod()) < 1e-12


def test_repeated_no_repetition_equals_glynn():
    rng = np.random.default_rng(4)
    a = random_complex(rng, (5, 5))
    assert rel_err(repeated_column_expansion(a, [1] * 5)[0], permanent_glynn(a)) < 1e-12


def test_repeated_matches_expanded_oracle():
    rng = np.random.default_rng(5)
    block = random_complex(rng, (4, 2))
    value = repeated_column_expansion(block, [2, 2])[0]
    oracle = permanent_naive(expand_columns(block, [2, 2]))
    assert rel_err(value, oracle) < 1e-9


def test_repeated_all_patterns_up_to_n6():
    rng = np.random.default_rng(6)
    for n in range(2, 7):
        for pattern in partitions(n):
            block = random_complex(rng, (n, len(pattern)))
            value = repeated_column_expansion(block, list(pattern))[0]
            oracle = permanent_naive(expand_columns(block, pattern))
            assert rel_err(value, oracle) < 1e-9, pattern


# fits_one_table=False is the 10,368-state pattern, past INNER_STATES = 4,096
RANK_ONE_PATTERNS = {
    True: ([3, 3, 2, 2, 2, 1, 1, 1, 1], [20, 20]),
    False: ([3, 3, 2, 2, 2, 2, 1, 1, 1, 1],),
}


@pytest.mark.parametrize("fits_one_table", [True, False])
def test_repeated_rank_one_closed_form(fits_one_table):
    # columns v_j u repeated m_j times: perm = N! prod(u) prod_j v_j^m_j;
    # [20, 20] has 40 rows, past GRAY_LIMIT, but only 21 (441) states
    rng = np.random.default_rng(12)
    for pattern in RANK_ONE_PATTERNS[fits_one_table]:
        n = sum(pattern)
        u = random_complex(rng, n)
        v = random_complex(rng, len(pattern))
        reference = math.factorial(n) * u.prod() * np.prod(v ** np.array(pattern))
        value, steps = repeated_column_expansion(np.outer(u, v), pattern)
        assert rel_err(value, reference) < 1e-12, pattern
        factors = [m + 1 for m in pattern]
        assert steps == math.prod(factors) // min(factors) - 1
        assert (steps + 1 <= INNER_STATES) == fits_one_table


def test_repeated_is_column_permutation_invariant():
    rng = np.random.default_rng(9)
    block = random_complex(rng, (6, 3))
    pattern = [3, 2, 1]
    reference = repeated_column_expansion(block, pattern)[0]
    for order in [(1, 0, 2), (2, 1, 0), (2, 0, 1)]:
        value = repeated_column_expansion(block[:, list(order)], [pattern[j] for j in order])[0]
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


@pytest.mark.parametrize("states", [1, 7, 64, 1000])
@pytest.mark.parametrize("radix", [2, 5, 17])
def test_level_table_is_the_broadcast_sum_bit_for_bit(states, radix):
    rng = np.random.default_rng(1000 * radix + states)
    t = random_complex(rng, (9, states))
    shifts = random_complex(rng, (9, 1)) * _unit_roots(radix)
    with ufunc_buffer(DEFAULT_BUFFER):
        want = (t[:, None, :] + shifts[:, :, None]).reshape(9, -1)
    for buffer in (DEFAULT_BUFFER, UFUNC_BUFFER):
        with ufunc_buffer(buffer):
            got = _level_table(t, shifts)
        assert got.tobytes() == want.tobytes()


def test_expansions_restore_the_callers_ufunc_buffer():
    u = haar_unitary(10, seed=4)
    seen = []

    def record(p, t):
        seen.append(np.getbufsize())
        return _row_products(p, t)

    def fail(p, t):
        raise RuntimeError("term failed")

    block = random_complex(np.random.default_rng(4), (10, 10))
    with ufunc_buffer(4096):
        # 2**9 states run under the small buffer, 2**8 on the caller's
        assert _expansion_sum(block, [2] * 10, record)[1] == 2**9 > UFUNC_BUFFER
        assert _expansion_sum(block[:, :9], [2] * 9, record)[1] == 2**8 <= UFUNC_BUFFER
        assert seen == [UFUNC_BUFFER, 4096] and np.getbufsize() == 4096
        output_probability(u, [1] * 10)
        assert np.getbufsize() == 4096
        output_probability(u, [1] * 9 + [0])
        assert np.getbufsize() == 4096
        with pytest.raises(ValueError, match="exceed the supported"):
            repeated_column_expansion(np.ones((31, 31)), [1] * 31)
        assert np.getbufsize() == 4096
        with pytest.raises(RuntimeError, match="term failed"):
            _expansion_sum(block, [2] * 10, fail)
        assert np.getbufsize() == 4096


def _fresh_chunks(block, radices):
    """The (p, t) chunks of the expansion with a least-radix column pinned,
    each level a broadcast sum and each outer tuple a freshly allocated
    shifted table: the reference the reused buffer must match bit for bit."""
    fixed = radices.index(min(radices))
    summed = sorted((j for j in range(len(radices)) if j != fixed), key=radices.__getitem__)
    n_inner, size = 0, 1
    while n_inner < len(summed) and size * radices[summed[n_inner]] <= INNER_STATES:
        size *= radices[summed[n_inner]]
        n_inner += 1
    p, t = np.ones(1, dtype=complex), block[:, [fixed]].astype(complex)
    for j in summed[:n_inner]:
        roots = _unit_roots(radices[j])
        t = (t[:, None, :] + np.multiply.outer(block[:, j], roots)[:, :, None]).reshape(len(t), -1)
        p = np.multiply.outer(roots, p).ravel()
    outer = summed[n_inner:]
    cols = block[:, outer]
    return [
        (p * math.prod(xs), t + (cols @ np.array(xs))[:, None])
        for xs in itertools.product(*(_unit_roots(radices[j]) for j in outer))
    ]


@pytest.mark.parametrize("term", [_row_products, _leave_one_out])
def test_outer_tuples_refill_one_buffer_bit_for_bit(term):
    # pinned 2, then 2**12 inner states and outer radices 2 and 3: 6 tuples
    radices = [2] * 14 + [3]
    rng = np.random.default_rng(17)
    block = random_complex(rng, (sum(radices) - len(radices), len(radices)))
    seen = []

    def record(p, t):
        seen.append((p.copy(), t.copy()))
        return term(p, t)

    total, states = _expansion_sum(block, radices, record)
    chunks = _fresh_chunks(block, radices)
    assert states == 2**13 * 3 > INNER_STATES and len(chunks) == 6
    assert len(seen) == len(chunks)
    for (p, t), (p_ref, t_ref) in zip(seen, chunks):
        assert np.array_equal(p, p_ref) and np.array_equal(t, t_ref)
    want = sum(term(p, t) for p, t in chunks)
    assert np.asarray(total).tobytes() == np.asarray(want).tobytes()


@pytest.mark.parametrize("radices", [(), (2,), (2, 2, 3), (3, 5, 17), (2, 2, 4, 16, 16)])
def test_root_products_are_the_kronecker_chain_bit_for_bit(radices):
    want = np.ones(1, dtype=complex)
    for radix in radices:
        want = np.multiply.outer(_unit_roots(radix), want).ravel()
    got = _root_products(radices)
    assert got.size == math.prod(radices) <= INNER_STATES
    assert got.tobytes() == want.tobytes()


def test_root_products_are_read_only_and_cannot_be_poisoned():
    radices = [2, 3, 3, 4]
    block = random_complex(np.random.default_rng(5), (sum(radices) - len(radices), len(radices)))
    before = np.asarray(_expansion_sum(block, radices, _row_products)[0]).tobytes()

    def overwrite(p, t):
        p[:] = 0
        return _row_products(p, t)

    with pytest.raises(ValueError, match="read-only"):
        _expansion_sum(block, radices, overwrite)
    with pytest.raises(ValueError, match="read-only"):
        _root_products((3, 3, 4))[0] = 0
    assert np.asarray(_expansion_sum(block, radices, _row_products)[0]).tobytes() == before


def test_root_products_cache_stays_within_its_bound():
    maxsize = _root_products.cache_parameters()["maxsize"]
    patterns = itertools.chain.from_iterable(itertools.product((2, 3, 4), repeat=n) for n in range(1, 6))
    for radices in itertools.islice(patterns, maxsize + 20):
        _root_products(radices)
    assert _root_products.cache_info().currsize == maxsize


ROUTES = {
    "naive": permanent_naive,
    "ryser": permanent_ryser,
    "glynn": permanent_glynn,
    "repeated": lambda a: repeated_column_expansion(a, [1] * len(a)),
}


@pytest.mark.parametrize("entry", [np.nan, np.inf, complex(1, -np.inf)], ids=["nan", "inf", "-inf-imag"])
@pytest.mark.parametrize("route", ROUTES)
def test_permanents_refuse_non_finite_entries(route, entry):
    # any RuntimeWarning on the way would fail the test as well
    a = np.ones((3, 3), dtype=complex)
    a[1, 2] = entry
    with pytest.raises(ValueError, match="^matrix entries must be finite"):
        ROUTES[route](a)


# inputs past the 2**29 states of Glynn at n = 30; without the ceiling each runs for hours
U40 = haar_unitary(40, seed=31)
PAST_THE_CEILING = {
    "ones-31": (repeated_column_expansion, np.ones((31, 31)), [1] * 31),
    "31-bosons-on-40": (output_probability, U40, [1] * 31 + [0] * 9),
    "31-prefix-ports": (
        lambda u, prefix: conditional_weights(u, list(range(1, 33)), prefix), U40, list(range(1, 32))
    ),
}


@pytest.mark.parametrize("case", PAST_THE_CEILING)
def test_every_expansion_route_refuses_past_the_ceiling(case):
    call, matrix, counts = PAST_THE_CEILING[case]
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"^\d+ expansion states exceed the supported 2\*\*29$"):
        call(matrix, counts)
    assert time.perf_counter() - start < 1.0


def test_repeated_rejects_bad_shapes():
    with pytest.raises(ValueError):
        repeated_column_expansion(np.ones((3, 2)), [])
    with pytest.raises(ValueError):
        repeated_column_expansion(np.ones((3, 2)), [2, 2])  # sums to 4, block has 3 rows
    with pytest.raises(ValueError):
        repeated_column_expansion(np.ones((3, 2)), [3, 0])
    for shape in [(3,), (0, 0)]:
        with pytest.raises(ValueError, match=r"^expected a non-empty 2-D matrix, got shape"):
            permanent_glynn(np.ones(shape))


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


@pytest.mark.parametrize("values", [[2**64 - 1], [np.uint64(2**63)], [1e20], [-1e19], [-1, 2**63]])
def test_integer_entries_reject_values_past_int64(values):
    with pytest.raises(ValueError, match="^x must lie in the int64 range"):
        _integer_entries(values, "x")


@pytest.mark.parametrize("values", [[2**64], [-(2**63) - 1], [10**30, 1]])
def test_integer_entries_name_python_ints_past_int64(values):
    with pytest.raises(ValueError, match="^x must lie in the int64 range"):
        _integer_entries(values, "x")


@pytest.mark.parametrize("values", [[2**64, 1.5], ["1"], [True, 2**64], np.array([], dtype=object)])
def test_integer_entries_keep_the_integers_only_message(values):
    with pytest.raises(ValueError, match="^x must hold integers only"):
        _integer_entries(values, "x")


def test_integer_entries_accept_python_ints_held_as_objects():
    got = _integer_entries(np.array([2**63 - 1, -(2**63)], dtype=object), "x")
    assert got.dtype == np.int64 and got.tolist() == [2**63 - 1, -(2**63)]


def test_integer_entries_keep_the_int64_extremes():
    assert _integer_entries([np.uint64(2**63 - 1)], "x").tolist() == [2**63 - 1]
    assert _integer_entries([-(2.0**63)], "x").tolist() == [-(2**63)]


def test_cost_estimate_rejects_occupations_past_int64():
    with pytest.raises(ValueError, match="^occupations must lie in the int64 range"):
        cost_estimate([2**64 - 1])


def test_cost_estimate_names_python_ints_past_int64():
    with pytest.raises(ValueError, match="^occupations must lie in the int64 range"):
        cost_estimate([2**64])


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


def test_output_probability_refuses_boolean_counts():
    with pytest.raises(ValueError, match="^configuration must hold integers only"):
        output_probability(haar_unitary(4, seed=2), [True, True, False, False])


def test_integer_valued_float_counts_are_accepted():
    u = haar_unitary(3, seed=2)
    assert output_probability(u, [2.0, 0.0, 1.0]) == output_probability(u, [2, 0, 1])
    assert cost_estimate(np.array([2.0, 1.0])) == cost_estimate([2, 1])
    block = random_complex(np.random.default_rng(20), (3, 2))
    assert repeated_column_expansion(block, [2.0, 1.0]) == repeated_column_expansion(block, [2, 1])


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
    assert got == golden, platform_note()


def test_output_probability_bits_match_on_cold_and_warm_root_products():
    u = haar_unitary(16, seed=2026)
    for occ, _ in GOLDEN_16:
        _root_products.cache_clear()
        cold = float.hex(output_probability(u, occ))
        assert float.hex(output_probability(u, occ)) == cold
