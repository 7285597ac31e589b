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

from .errors import _integer_entries

UNITARITY_TOLERANCE = 1e-12

__all__ = [
    "UNITARITY_TOLERANCE",
    "UnitaryMatrix",
    "haar_unitary",
    "identity_unitary",
    "permutation_unitary",
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


def haar_unitary(dim: int, seed: int | None = None) -> UnitaryMatrix:
    """Draw a ``dim`` x ``dim`` unitary from the Haar measure.

    QR-factorizes a matrix of independent standard complex Gaussians and
    folds the phases of the R diagonal back into Q, which removes the QR
    sign ambiguity and makes the result exactly Haar distributed. The draw
    is deterministic for a fixed seed.
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    ginibre = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(ginibre)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return UnitaryMatrix(matrix=q * phases, seed=seed)


def identity_unitary(dim: int) -> UnitaryMatrix:
    """Identity interferometer, handy as a no-interference reference."""
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    return UnitaryMatrix(matrix=np.eye(dim, dtype=np.complex128))


def permutation_unitary(targets: Sequence[int]) -> UnitaryMatrix:
    """Unitary routing input port k to output port ``targets[k-1]`` (1-based)."""
    perm = _integer_entries(targets, "targets").tolist()
    dim = len(perm)
    if sorted(perm) != list(range(1, dim + 1)):
        raise ValueError(f"targets must be a permutation of 1..{dim}, got {targets}")
    a = np.zeros((dim, dim), dtype=np.complex128)
    for k, t in enumerate(perm):
        a[t - 1, k] = 1.0
    return UnitaryMatrix(matrix=a)


def _matrix_of(u) -> np.ndarray:
    return u.matrix if isinstance(u, UnitaryMatrix) else _as_complex_matrix(u)


def submatrix(u, row_indices: Sequence[int], port_multiset: Sequence[int]) -> np.ndarray:
    """Rows and (possibly repeated) columns of ``u``, all indices 1-based.

    ``port_multiset`` must be sorted non-decreasing; a port listed k times
    contributes k identical columns, in the listed order. Entries are copied
    bit-exactly from the source matrix.
    """
    a = _matrix_of(u)
    rows = _integer_entries(row_indices, "row indices").tolist()
    ports = _integer_entries(port_multiset, "port multiset").tolist()
    if not rows or not ports:
        raise ValueError("row_indices and port_multiset must be non-empty")
    if any(not 1 <= r <= a.shape[0] for r in rows):
        raise ValueError(f"row index out of range 1..{a.shape[0]}: {rows}")
    if any(not 1 <= p <= a.shape[1] for p in ports):
        raise ValueError(f"port index out of range 1..{a.shape[1]}: {ports}")
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


def save_matrix(path, matrix, seed: int | None = None) -> None:
    """Write a matrix as JSON: rows, cols, re/im entry grids, optional seed."""
    if isinstance(matrix, UnitaryMatrix):
        if seed is None:
            seed = matrix.seed
        a = matrix.matrix
    else:
        a = _as_complex_matrix(matrix)
    doc = {
        "rows": a.shape[0],
        "cols": a.shape[1],
        "re": a.real.tolist(),
        "im": a.imag.tolist(),
    }
    if seed is not None:
        doc["seed"] = int(seed)
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(doc, fp)
        fp.write("\n")


def _parse_matrix_doc(doc) -> tuple[np.ndarray, int | None]:
    try:
        rows, cols = int(doc["rows"]), int(doc["cols"])
        re = np.asarray(doc["re"], dtype=np.float64)
        im = np.asarray(doc["im"], dtype=np.float64)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed matrix document: {exc}") from exc
    if re.shape != (rows, cols) or im.shape != (rows, cols):
        raise ValueError(
            f"entry grids {re.shape}/{im.shape} disagree with declared shape ({rows}, {cols})"
        )
    if not (np.isfinite(re).all() and np.isfinite(im).all()):
        raise ValueError("matrix entries must be finite")
    return re + 1j * im, doc.get("seed")


def load_matrix(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fp:
        doc = json.load(fp)
    a, _ = _parse_matrix_doc(doc)
    return a


def load_unitary(path) -> UnitaryMatrix:
    with open(path, "r", encoding="utf-8") as fp:
        doc = json.load(fp)
    a, seed = _parse_matrix_doc(doc)
    return UnitaryMatrix(matrix=a, seed=seed)
