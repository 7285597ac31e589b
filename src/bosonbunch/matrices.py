"""Dense complex matrices, Haar-random unitaries, and the JSON matrix format.

Matrices are plain ``numpy`` arrays of ``complex128``. Row and port (column)
indices in the public functions are 1-based, matching how interferometer
ports are labelled; occupation vectors are ordinary 0-indexed arrays whose
entry ``i`` belongs to port ``i + 1``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import _check_count, _check_ports

UNITARITY_TOLERANCE = 1e-12

__all__ = [
    "UNITARITY_TOLERANCE",
    "UnitaryMatrix",
    "haar_unitary",
    "submatrix",
    "unitarity_defect",
    "save_matrix",
    "load_matrix",
    "load_unitary",
    "fingerprint",
]


def _as_complex_matrix(entries) -> np.ndarray:
    a = np.asarray(entries, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise ValueError(f"expected a non-empty 2-D matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def unitarity_defect(matrix) -> float:
    """Max-norm distance of A†A from the identity."""
    a = _as_complex_matrix(matrix)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"unitarity defect needs a square matrix, got shape {a.shape}")
    gram = a.conj().T @ a
    return float(np.max(np.abs(gram - np.eye(a.shape[0]))))


@dataclass(frozen=True)
class UnitaryMatrix:
    """A validated M x M unitary with optional seed provenance.

    The entries are frozen (read-only array) so instances are safe to share
    across threads. Construction rejects matrices whose unitarity defect
    exceeds ``UNITARITY_TOLERANCE``.
    """

    matrix: np.ndarray
    seed: int | None = None

    def __post_init__(self):
        if self.seed is not None:
            object.__setattr__(self, "seed", _check_count(self.seed, "seed", minimum=0))
        a = _as_complex_matrix(self.matrix).copy()
        defect = unitarity_defect(a)
        if not defect <= UNITARITY_TOLERANCE:
            raise ValueError(
                f"matrix is not unitary: defect {defect:.3e} exceeds {UNITARITY_TOLERANCE:.0e}"
            )
        a.flags.writeable = False
        object.__setattr__(self, "matrix", a)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _check_unitary(u, caller: str) -> None:
    """TypeError naming ``caller`` unless ``u`` is a ``UnitaryMatrix``; every
    function that reads a unitary's rows calls this before any other check."""
    if not isinstance(u, UnitaryMatrix):
        raise TypeError(f"{caller} expects a UnitaryMatrix")


def haar_unitary(dim: int, seed: int) -> UnitaryMatrix:
    """Draw a ``dim`` x ``dim`` unitary from the Haar measure.

    QR-factorizes a matrix of independent standard complex Gaussians and
    folds the phases of the R diagonal back into Q, which removes the QR
    sign ambiguity and makes the result exactly Haar distributed. The seed,
    a non-negative integer, is required, so every draw is reproducible.
    """
    dim = _check_count(dim, "dim")
    seed = _check_count(seed, "seed", minimum=0)
    rng = np.random.default_rng(seed)
    ginibre = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(ginibre)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return UnitaryMatrix(matrix=q * phases, seed=seed)


def _matrix_of(u) -> np.ndarray:
    return u.matrix if isinstance(u, UnitaryMatrix) else _as_complex_matrix(u)


def submatrix(u, row_indices: Sequence[int], port_multiset: Sequence[int]) -> np.ndarray:
    """Rows and (possibly repeated) columns of ``u``, all indices 1-based.

    ``port_multiset`` must be sorted non-decreasing; a port listed k times
    contributes k identical columns, in the listed order. Entries are copied
    bit-exactly from the source matrix.
    """
    a = _matrix_of(u)
    rows = _check_ports(row_indices, "row indices", a.shape[0])
    ports = _check_ports(port_multiset, "port multiset", a.shape[1])
    if not rows or not ports:
        raise ValueError("row_indices and port_multiset must be non-empty")
    if any(ports[i] > ports[i + 1] for i in range(len(ports) - 1)):
        raise ValueError(f"port multiset must be sorted non-decreasing: {ports}")
    idx_rows = [r - 1 for r in rows]
    idx_cols = [p - 1 for p in ports]
    return a[np.ix_(idx_rows, idx_cols)].copy()


def fingerprint(matrix) -> str:
    """SHA-256 of the shape and IEEE-754 bytes of the entries."""
    a = _matrix_of(matrix)
    h = hashlib.sha256()
    h.update(f"{a.shape[0]}x{a.shape[1]}".encode())
    h.update(np.ascontiguousarray(a.real, dtype=np.float64).tobytes())
    h.update(np.ascontiguousarray(a.imag, dtype=np.float64).tobytes())
    return h.hexdigest()


def save_matrix(path, matrix) -> None:
    """Write a matrix as JSON: rows, cols, re/im entry grids, and the seed
    of a ``UnitaryMatrix`` that has one."""
    a = _matrix_of(matrix)
    doc = {
        "rows": a.shape[0],
        "cols": a.shape[1],
        "re": a.real.tolist(),
        "im": a.imag.tolist(),
    }
    if isinstance(matrix, UnitaryMatrix) and matrix.seed is not None:
        doc["seed"] = matrix.seed
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(doc, fp)
        fp.write("\n")


def _read_matrix_doc(path) -> tuple[np.ndarray, int | None]:
    """The entry grid and seed of a matrix file; the grid is not gated."""
    with open(path, "r", encoding="utf-8") as fp:
        doc = json.load(fp)
    try:
        rows, cols, seed = doc["rows"], doc["cols"], doc.get("seed")
        re = np.asarray(doc["re"], dtype=np.float64)
        im = np.asarray(doc["im"], dtype=np.float64)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed matrix document: {exc}") from exc
    rows, cols = _check_count(rows, "rows"), _check_count(cols, "cols")
    if seed is not None:
        seed = _check_count(seed, "seed", minimum=0)
    if re.shape != (rows, cols) or im.shape != (rows, cols):
        raise ValueError(
            f"entry grids {re.shape}/{im.shape} disagree with declared shape ({rows}, {cols})"
        )
    return re + 1j * im, seed


def load_matrix(path) -> np.ndarray:
    a, _ = _read_matrix_doc(path)
    return _as_complex_matrix(a)


def load_unitary(path) -> UnitaryMatrix:
    a, seed = _read_matrix_doc(path)
    return UnitaryMatrix(matrix=a, seed=seed)
