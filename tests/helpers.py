"""Shared test utilities."""

import ast
import contextlib
import ctypes
import io
import pathlib
import re

import numpy as np

from bosonbunch import draw_sample_counted, load_unitary, output_probability

# numpy's default ufunc buffer, in elements
DEFAULT_BUFFER = 8192


def platform_note():
    """numpy's version, the SIMD extensions it found at run time and the
    OpenBLAS core it loaded, as the message of a failed golden pin: the pinned
    bytes depend on which numpy inner loop and which BLAS kernel run. Never
    raises."""
    try:
        simd = simd_extensions()
    except Exception as exc:
        simd = f"unknown ({type(exc).__name__})"
    return f"numpy {np.__version__}, simd_extensions {simd}, openblas core {openblas_core()}"


def simd_extensions():
    """numpy's run-time SIMD report: the ``baseline`` it was built for, the
    extensions above it that it ``found`` on this CPU and those ``not_found``."""
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        np.show_runtime()
    return ast.literal_eval(re.search(r"'simd_extensions': (\{[^{}]*\})", text.getvalue()).group(1))


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


def dispatch_record(folder):
    """What holds across SIMD targets and BLAS kernels, from the unitaries
    saved in ``folder`` as ``u<M>.json``: the ports, row order and per-step
    Gray counts of draws with seeds 0..9 at (N, M) = (12, 12), (12, 24) and
    (20, 60), and the probabilities of 40 uniformly drawn (16, 16)
    multisets."""
    folder = pathlib.Path(folder)
    draws = []
    for n, m in ((12, 12), (12, 24), (20, 60)):
        u = load_unitary(folder / f"u{m}.json")
        for seed in range(10):
            seq, ops = draw_sample_counted(u, n, rng=np.random.default_rng(seed))
            draws.append([list(seq.ports), list(seq.row_order), list(ops.per_step_gray)])
    u = load_unitary(folder / "u16.json")
    rng = np.random.default_rng(16)
    probabilities = []
    for _ in range(40):
        # stars and bars: every multiset of 16 ports equally likely
        bars = np.sort(rng.choice(31, 16, replace=False)) - np.arange(16)
        probabilities.append(output_probability(u, np.bincount(bars, minlength=16)))
    return {"draws": draws, "probabilities": probabilities}


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


def pmf_mode(dist):
    """The most likely occupied-port count of a ``PortDistribution``."""
    return 1 + max(range(dist.n_bosons), key=lambda i: dist.exact[i])


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
