"""Shared exception types and the boson-count check that raises them."""


class UnsupportedRegimeError(ValueError):
    """Raised when a computation is requested for more bosons than ports.

    Sampling and the cost-bound calculators are defined for densities
    rho = N/M at most one; callers must reject N > M rather than extrapolate.
    """


def _check_boson_count(n_bosons: int, n_ports: int) -> None:
    """Reject counts outside 1 <= N <= M before any work starts."""
    if n_bosons < 1:
        raise ValueError(f"n_bosons must be >= 1, got {n_bosons}")
    if n_ports < 1:
        raise ValueError(f"n_ports must be >= 1, got {n_ports}")
    if n_bosons > n_ports:
        raise UnsupportedRegimeError(
            f"{n_bosons} bosons on {n_ports} ports: densities above one are not supported"
        )
