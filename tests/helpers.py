"""Shared test utilities."""

import ast
import contextlib
import io
import re

import numpy as np

# numpy's default ufunc buffer, in elements
DEFAULT_BUFFER = 8192


def platform_note():
    """numpy's version and the SIMD extensions it found at run time, as the
    message of a failed golden pin: the pinned bytes depend on which numpy
    inner loop runs. Never raises."""
    try:
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            np.show_runtime()
        simd = ast.literal_eval(re.search(r"'simd_extensions': (\{[^{}]*\})", text.getvalue()).group(1))
    except Exception as exc:
        simd = f"unknown ({type(exc).__name__})"
    return f"numpy {np.__version__}, simd_extensions {simd}"


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
