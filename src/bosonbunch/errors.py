"""Shared exception types and the input checks that raise them.

Every count, count vector, port list, row order and boson number enters
through one gate here, before any work: ``_check_count`` (one integer),
``_check_counts`` (a count vector with a positive entry), ``_check_ports``
(1-based ports), ``_check_permutation`` (an ordering of 1..n) and
``_check_boson_count`` (the N <= M regime); all of them read entries with
``_integer_entries``.
"""

import operator

import numpy as np

__all__ = ["UnsupportedRegimeError"]


class UnsupportedRegimeError(ValueError):
    """Raised when a computation is requested for more bosons than ports.

    Sampling and the cost-bound calculators are defined for densities
    rho = N/M at most one; callers must reject N > M rather than extrapolate.
    """


def _integer_entries(values, what: str) -> np.ndarray:
    """``values`` as a 1-D int64 array; ValueError for any entry whose value
    is not an integer (1.5, NaN, the string "1", True) or lies outside the
    int64 range (2**64 - 1, -2**63 - 1, 1e20). Integer-valued floats such as
    2.0 are accepted."""
    a = np.asarray(values)
    if a.ndim != 1:
        raise ValueError(f"{what} must be a flat sequence, got shape {a.shape}")
    # numpy reads Python booleans among ints as ints, so look at the entries
    if not isinstance(values, np.ndarray) and any(isinstance(v, (bool, np.bool_)) for v in values):
        raise ValueError(f"{what} must hold integers only, got {list(values)!r}")
    kind = a.dtype.kind
    # numpy keeps Python ints that fit neither int64 nor uint64 as objects
    if kind == "O" and a.size and all(type(v) is int for v in a.tolist()):
        if not all(-(2**63) <= v < 2**63 for v in a.tolist()):
            raise ValueError(f"{what} must lie in the int64 range, got {a.tolist()!r}")
        a, kind = a.astype(np.int64), "i"
    if not (kind in "iu" or kind == "f" and np.isfinite(a).all() and (a == np.trunc(a)).all()):
        raise ValueError(f"{what} must hold integers only, got {a.tolist()!r}")
    if kind in "uf" and a.size and not (-(2**63) <= a.min() and a.max() < 2**63):
        raise ValueError(f"{what} must lie in the int64 range, got {a.tolist()!r}")
    return a.astype(np.int64, copy=False)


def _check_count(value, what: str, minimum: int = 1) -> int:
    """``value`` as an int; ValueError before any work when it is not an
    integer (2.5, NaN, the string "2", None, True) or lies below ``minimum``.
    Numpy integers and integer-valued floats such as 2.0 pass."""
    if isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{what} must be an integer, not a boolean: {value!r}")
    try:
        count = operator.index(value)
    except TypeError:
        (count,) = _integer_entries([value], what).tolist()
    if count < minimum:
        raise ValueError(f"{what} must be >= {minimum}, got {count}")
    return count


def _check_counts(values, what: str, minimum: int = 0) -> np.ndarray:
    """``values`` as a 1-D int64 array, read as ``_integer_entries`` reads
    it; ValueError when no entry is positive or one lies below ``minimum``."""
    counts = _integer_entries(values, what)
    listed = counts.tolist()  # min and max of a short list beat numpy's reductions
    if not listed or max(listed) <= 0:
        raise ValueError(f"{what} must hold a positive entry, got {listed}")
    if min(listed) < minimum:
        bound = "non-negative" if minimum == 0 else f">= {minimum}"
        raise ValueError(f"{what} must be {bound}, got {listed}")
    return counts


def _check_ports(values, what: str, n_ports: int) -> list[int]:
    """``values`` as a list of ints; ValueError unless every entry is an
    integer port in 1..``n_ports``."""
    ports = _integer_entries(values, what).tolist()
    if any(not 1 <= q <= n_ports for q in ports):
        raise ValueError(f"{what} must lie in 1..{n_ports}, got {ports}")
    return ports


def _check_permutation(values, what: str) -> list[int]:
    """``values`` as a list of ints; ValueError unless they are 1..n in some
    order for some n >= 1."""
    perm = _integer_entries(values, what).tolist()
    if not perm:
        raise ValueError(f"{what} must not be empty")
    if sorted(perm) != list(range(1, len(perm) + 1)):
        raise ValueError(f"{what} must be a permutation of 1..{len(perm)}, got {perm}")
    return perm


def _check_boson_count(n_bosons: int, n_ports: int) -> tuple[int, int]:
    """Reject counts that are not integers or lie outside 1 <= N <= M before
    any work starts; returns them as ints."""
    n_bosons = _check_count(n_bosons, "n_bosons")
    n_ports = _check_count(n_ports, "n_ports")
    if n_bosons > n_ports:
        raise UnsupportedRegimeError(
            f"{n_bosons} bosons on {n_ports} ports: densities above one are not supported"
        )
    return n_bosons, n_ports
