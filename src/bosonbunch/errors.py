"""Shared exception types and the input checks that raise them."""

import numpy as np


class UnsupportedRegimeError(ValueError):
    """Raised when a computation is requested for more bosons than ports.

    Sampling and the cost-bound calculators are defined for densities
    rho = N/M at most one; callers must reject N > M rather than extrapolate.
    """


def _integer_entries(values, what: str) -> np.ndarray:
    """``values`` as a 1-D int64 array; ValueError for any entry whose value
    is not an integer (1.5, NaN, the string "1"). Integer-valued floats such
    as 2.0 are accepted."""
    a = np.asarray(values)
    if a.ndim != 1:
        raise ValueError(f"{what} must be a flat sequence, got shape {a.shape}")
    if a.dtype.kind in "biu":
        return a.astype(np.int64, copy=False)
    if a.dtype.kind == "f" and np.isfinite(a).all() and (a == np.trunc(a)).all():
        return a.astype(np.int64)
    raise ValueError(f"{what} must hold integers only, got {a.tolist()!r}")


def _check_boson_count(n_bosons: int, n_ports: int) -> tuple[int, int]:
    """Reject counts that are not integers or lie outside 1 <= N <= M before
    any work starts; returns them as ints."""
    n_bosons, n_ports = _integer_entries([n_bosons, n_ports], "n_bosons and n_ports").tolist()
    if n_bosons < 1:
        raise ValueError(f"n_bosons must be >= 1, got {n_bosons}")
    if n_ports < 1:
        raise ValueError(f"n_ports must be >= 1, got {n_ports}")
    if n_bosons > n_ports:
        raise UnsupportedRegimeError(
            f"{n_bosons} bosons on {n_ports} ports: densities above one are not supported"
        )
    return n_bosons, n_ports
