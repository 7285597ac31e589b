import json

import numpy as np
import pytest
import scipy.stats

from bosonbunch import (
    UNITARITY_TOLERANCE,
    UnitaryMatrix,
    fingerprint,
    haar_unitary,
    load_matrix,
    load_unitary,
    save_matrix,
    submatrix,
    unitarity_defect,
)
from bosonbunch import matrices
from helpers import count_calls


def test_haar_dim1_is_unimodular():
    for seed in range(5):
        u = haar_unitary(1, seed=seed)
        assert abs(abs(u.matrix[0, 0]) - 1.0) < 1e-12


def test_haar_fixed_seed_is_bit_identical():
    a = haar_unitary(4, seed=123)
    b = haar_unitary(4, seed=123)
    assert np.array_equal(a.matrix, b.matrix)
    assert a.seed == 123


def test_haar_different_seeds_differ():
    a = haar_unitary(4, seed=1)
    b = haar_unitary(4, seed=2)
    assert not np.array_equal(a.matrix, b.matrix)


@pytest.mark.parametrize("dim", [1, 2, 3, 5, 8, 16, 50])
def test_haar_unitarity_invariant(dim):
    u = haar_unitary(dim, seed=dim)
    assert unitarity_defect(u.matrix) <= UNITARITY_TOLERANCE


def test_haar_rejects_zero_dim():
    with pytest.raises(ValueError):
        haar_unitary(0, seed=1)


@pytest.mark.parametrize("make", [haar_unitary])
@pytest.mark.parametrize("dim", [2.5, float("nan"), "2", None])
def test_unitaries_reject_non_integer_dim(make, dim):
    with pytest.raises(ValueError, match="dim must hold integers only"):
        make(dim, seed=1)


def test_integer_valued_dim_builds_the_same_unitary():
    for dim in (3.0, np.int64(3), np.int8(3)):
        assert np.array_equal(haar_unitary(dim, seed=4).matrix, haar_unitary(3, seed=4).matrix)


@pytest.mark.parametrize("seed", [1.5, "a", -1, None])  # the seed is required
def test_haar_rejects_bad_seed(seed):
    with pytest.raises(ValueError, match="^seed must"):
        haar_unitary(3, seed=seed)


@pytest.mark.parametrize("seed", [True, np.False_])
def test_haar_refuses_a_boolean_seed(seed):
    with pytest.raises(ValueError, match="^seed must be an integer"):
        haar_unitary(2, seed=seed)


def test_integer_valued_seed_builds_the_same_unitary():
    reference = haar_unitary(3, seed=2)
    for seed in (2.0, np.int64(2)):
        u = haar_unitary(3, seed=seed)
        assert np.array_equal(u.matrix, reference.matrix)
        assert u.seed == 2


def test_haar_first_entry_second_moment():
    # first column of a Haar unitary is uniform on the sphere, so
    # E|U_11|^2 = 1/M with variance (M-1)/(M^2 (M+1))
    dim = 8
    draws = 10_000
    vals = np.array([abs(haar_unitary(dim, seed=s).matrix[0, 0]) ** 2 for s in range(draws)])
    se = np.sqrt((dim - 1) / (dim**2 * (dim + 1)) / draws)
    assert abs(vals.mean() - 1.0 / dim) < 3 * se


def test_haar_invariance_under_fixed_permutation():
    # {U} and {PU} must be statistically indistinguishable; compare |U_11|^2
    # histograms of two independent ensembles with a two-sample KS test
    p_shift = np.roll(np.eye(4), 1, axis=0)
    draws = 10_000
    plain = np.array([abs(haar_unitary(4, seed=s).matrix[0, 0]) ** 2 for s in range(draws)])
    shifted = np.array(
        [abs((p_shift @ haar_unitary(4, seed=20_000 + s).matrix)[0, 0]) ** 2 for s in range(draws)]
    )
    result = scipy.stats.ks_2samp(plain, shifted)
    assert result.pvalue > 0.01


def test_submatrix_repeated_port():
    u = haar_unitary(4, seed=9)
    out = submatrix(u, [1, 2], [1, 1])
    assert out.shape == (2, 2)
    assert np.array_equal(out[:, 0], out[:, 1])
    assert out[0, 0] == u.matrix[0, 0]
    assert out[1, 0] == u.matrix[1, 0]


def test_submatrix_single_entry():
    u = haar_unitary(4, seed=9)
    out = submatrix(u, [1], [3])
    assert out.shape == (1, 1)
    assert out[0, 0] == u.matrix[0, 2]


def test_submatrix_column_order():
    u = haar_unitary(6, seed=9)
    out = submatrix(u, [1, 2, 3], [2, 2, 5])
    assert np.array_equal(out[:, 0], u.matrix[:3, 1])
    assert np.array_equal(out[:, 1], u.matrix[:3, 1])
    assert np.array_equal(out[:, 2], u.matrix[:3, 4])


def test_submatrix_is_pure():
    u = haar_unitary(3, seed=4)
    first = submatrix(u, [1, 2], [1, 3])
    second = submatrix(u, [1, 2], [1, 3])
    assert np.array_equal(first, second)
    first[0, 0] = 0  # returned copy; the unitary must be untouched
    assert submatrix(u, [1, 2], [1, 3])[0, 0] == u.matrix[0, 0]


def test_submatrix_rejects_bad_input():
    u = haar_unitary(3, seed=4)
    with pytest.raises(ValueError):
        submatrix(u, [0], [1])
    with pytest.raises(ValueError):
        submatrix(u, [1], [4])
    with pytest.raises(ValueError):
        submatrix(u, [1, 2], [2, 1])  # not sorted
    with pytest.raises(ValueError, match="^row_indices and port_multiset must be non-empty$"):
        submatrix(u, [], [1])


@pytest.mark.parametrize(
    "rows, ports", [([1.5, 2], [1, 2]), ([1, 2], [1, 2.5]), (["1"], [1]), ([1], [[1]])]
)
def test_submatrix_rejects_non_integer_indices(rows, ports):
    with pytest.raises(ValueError):
        submatrix(haar_unitary(3, seed=4), rows, ports)


def test_submatrix_accepts_integer_valued_floats():
    u = haar_unitary(3, seed=4)
    assert np.array_equal(submatrix(u, [1.0, 3.0], [2.0, 2.0]), submatrix(u, [1, 3], [2, 2]))


def test_unitarity_defect_identity():
    assert unitarity_defect(np.eye(3)) == 0.0


def test_unitarity_defect_all_ones():
    # A = ones(2): A†A = [[2,2],[2,2]], so A†A - I = [[1,2],[2,1]] and the
    # max-norm is 2 (computed directly from the definition)
    assert unitarity_defect(np.ones((2, 2))) == pytest.approx(2.0, abs=1e-15)


def test_unitarity_defect_rejects_non_square():
    with pytest.raises(ValueError):
        unitarity_defect(np.ones((2, 3)))


def test_unitary_constructor_rejects_non_unitary():
    with pytest.raises(ValueError):
        UnitaryMatrix(np.ones((2, 2)))
    with pytest.raises(ValueError):
        UnitaryMatrix(np.array([[np.nan, 0], [0, 1]]))


def test_unitary_matrix_is_read_only():
    u = UnitaryMatrix(np.eye(2))
    with pytest.raises(ValueError):
        u.matrix[0, 0] = 5.0


def test_json_round_trip(tmp_path):
    u = haar_unitary(5, seed=77)
    path = tmp_path / "u.json"
    save_matrix(path, u)
    again = load_unitary(path)
    assert np.array_equal(again.matrix, u.matrix)
    assert again.seed == 77
    assert fingerprint(again.matrix) == fingerprint(u.matrix)

    doc = json.loads(path.read_text())
    assert doc["rows"] == 5 and doc["cols"] == 5 and doc["seed"] == 77


def test_json_plain_matrix_round_trip(tmp_path):
    a = np.array([[1 + 2j, 3], [0, -1j]])
    path = tmp_path / "m.json"
    save_matrix(path, a)
    assert np.array_equal(load_matrix(path), a)


def test_loaders_gate_the_entry_grid_once_per_call_path(tmp_path, monkeypatch):
    path = tmp_path / "u.json"
    save_matrix(path, haar_unitary(3, seed=1))
    calls = count_calls(monkeypatch, matrices, "_as_complex_matrix")
    load_matrix(path)
    assert len(calls) == 1
    load_unitary(path)
    assert len(calls) == 3  # UnitaryMatrix and its unitarity_defect


def test_load_rejects_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"rows": 2, "cols": 2, "re": [[1, 0]], "im": [[0, 0]]}')
    with pytest.raises(ValueError):
        load_matrix(path)
    path.write_text('{"rows": 1, "cols": 2, "re": [[1, NaN]], "im": [[0, 0]]}')
    with pytest.raises(ValueError):
        load_matrix(path)
    for doc in ('{"rows": 1, "cols": 1, "im": [[0]]}', "[[1, 0], [0, 1]]"):
        path.write_text(doc)
        with pytest.raises(ValueError, match="^malformed matrix document"):
            load_matrix(path)


# a 1 x 1 unitary document whose header fields are overridden per case
_BAD_HEADERS = [
    {"rows": 1.9},
    {"rows": "1"},
    {"cols": 1.9},
    {"cols": "1"},
    {"seed": 1.5},
    {"seed": -3},
    {"seed": "x"},
]


def _one_port_doc(**header):
    return json.dumps({"rows": 1, "cols": 1, "re": [[1.0]], "im": [[0.0]], **header})


@pytest.mark.parametrize("header", _BAD_HEADERS)
def test_load_rejects_header_fields_that_are_not_counts(tmp_path, header):
    path = tmp_path / "bad.json"
    path.write_text(_one_port_doc(**header))
    for load in (load_matrix, load_unitary):
        with pytest.raises(ValueError, match=f"^{next(iter(header))} must"):
            load(path)


@pytest.mark.parametrize("header", [{"rows": True}, {"cols": True}, {"seed": False}])
def test_load_refuses_boolean_header_fields(tmp_path, header):
    path = tmp_path / "bad.json"
    path.write_text(_one_port_doc(**header))
    for load in (load_matrix, load_unitary):
        with pytest.raises(ValueError, match=f"^{next(iter(header))} must be an integer"):
            load(path)


def test_load_reads_an_integer_valued_seed_as_int(tmp_path):
    path = tmp_path / "u.json"
    path.write_text(_one_port_doc(seed=2.0))
    u = load_unitary(path)
    assert u.seed == 2 and type(u.seed) is int


@pytest.mark.parametrize("seed", [1.5, -3, "x"])
def test_unitary_and_save_reject_bad_seeds(seed):
    with pytest.raises(ValueError, match="^seed must"):
        UnitaryMatrix(np.eye(2), seed=seed)
