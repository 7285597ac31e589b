"""Shared test utilities."""

import ast
import contextlib
import ctypes
import io
import pathlib
import re

import numpy as np

# numpy's default ufunc buffer, in elements
DEFAULT_BUFFER = 8192


def platform_note():
    """numpy's version, the SIMD extensions it found at run time and the
    OpenBLAS core it loaded, as the message of a failed golden pin: the pinned
    bytes depend on which numpy inner loop and which BLAS kernel run. Never
    raises."""
    try:
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            np.show_runtime()
        simd = ast.literal_eval(re.search(r"'simd_extensions': (\{[^{}]*\})", text.getvalue()).group(1))
    except Exception as exc:
        simd = f"unknown ({type(exc).__name__})"
    return f"numpy {np.__version__}, simd_extensions {simd}, openblas core {openblas_core()}"


# the core-name getter of the OpenBLAS builds that numpy wheels bundle
CORENAME_SYMBOLS = (
    "scipy_openblas_get_corename64_",
    "scipy_openblas_get_corename",
    "openblas_get_corename64_",
    "openblas_get_corename",
)


def openblas_core():
    """Name of the OpenBLAS core ("SkylakeX", "Haswell") that the library in
    ``numpy.libs`` picked at load time, or "unknown" when there is no such
    library or symbol. Never raises."""
    try:
        libs = pathlib.Path(np.__file__).parent.parent / "numpy.libs"
        for path in sorted(libs.glob("*openblas*")):
            lib = ctypes.CDLL(str(path))  # numpy's own handle, already loaded
            for name in CORENAME_SYMBOLS:
                corename = getattr(lib, name, None)
                if corename is not None:
                    corename.restype = ctypes.c_char_p
                    return corename().decode()
    except Exception:
        pass
    return "unknown"


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def expand_columns(block, multiplicities):
    """Repeat column j of block multiplicities[j] times, in order."""
    cols = []
    for j, m in enumerate(multiplicities):
        cols.extend([block[:, j]] * m)
    return np.column_stack(cols)


def rel_err(value, reference):
    return abs(value - reference) / max(abs(reference), 1e-300)


def partitions(n, largest=None):
    """All integer partitions of n, each non-increasing."""
    if largest is None:
        largest = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def compositions(total, parts):
    """All non-negative integer vectors of length ``parts`` summing to total."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def count_calls(monkeypatch, module, name):
    """Wrap ``module.name`` so that every call is recorded; returns the list
    of recorded argument tuples."""
    calls = []
    wrapped = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return wrapped(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@contextlib.contextmanager
def ufunc_buffer(size):
    """Run the block under a numpy ufunc buffer of ``size`` elements and
    restore the previous size after it, also when it raises."""
    previous = np.setbufsize(size)
    try:
        yield
    finally:
        np.setbufsize(previous)
