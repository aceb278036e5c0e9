"""Dense complex linear algebra primitives shared by the rest of the package.

Everything operates on plain numpy arrays of dtype complex128. Matrices are
row-major and qubit registers are big-endian: tensor factor 0 owns the most
significant bit of the computational-basis index.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

DEFAULT_DIM_CAP = 2**14

# Default absolute tolerance of structural identities (idempotence, unitarity).
ATOL_STRUCTURAL = 1e-10


def dim_cap() -> int:
    """Largest matrix dimension tensor products may produce.

    Overridable through the NDQV_DIM_CAP environment variable.
    """
    raw = os.environ.get("NDQV_DIM_CAP", "")
    if raw:
        cap = int(raw)
        if cap < 2:
            raise ValueError(f"NDQV_DIM_CAP must be at least 2, got {cap}")
        return cap
    return DEFAULT_DIM_CAP


def as_matrix(a) -> np.ndarray:
    """Coerce input to a square complex matrix, rejecting anything else."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def as_vector(a) -> np.ndarray:
    """Coerce input to a 1-D complex vector."""
    v = np.asarray(a, dtype=complex)
    if v.ndim != 1:
        raise ValueError(f"expected a vector, got shape {v.shape}")
    return v


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(a, dtype=complex).conj().T


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tensor product with the package-wide dimension cap enforced."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    out_dim = a.shape[0] * b.shape[0]
    cap = dim_cap()
    if out_dim > cap:
        raise ValueError(
            f"tensor product dimension {out_dim} exceeds cap {cap} "
            "(set NDQV_DIM_CAP to raise it)"
        )
    return np.kron(a, b)


def kron_all(*ops: np.ndarray) -> np.ndarray:
    """Left-to-right tensor product of one or more operators."""
    if not ops:
        raise ValueError("kron_all needs at least one operand")
    out = np.asarray(ops[0], dtype=complex)
    for op in ops[1:]:
        out = kron(out, op)
    return out


def identity(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=complex)


def projector_onto(vec: np.ndarray) -> np.ndarray:
    """Rank-1 projector |v><v| for a normalized vector."""
    v = as_vector(vec)
    return np.outer(v, v.conj())


def max_abs(a: np.ndarray) -> float:
    """Entrywise max-modulus norm, the package-wide deviation measure."""
    arr = np.asarray(a)
    if arr.size == 0:
        return 0.0
    return float(np.max(np.abs(arr)))


def is_hermitian(a: np.ndarray, atol: float = ATOL_STRUCTURAL) -> bool:
    m = as_matrix(a)
    return max_abs(m - dagger(m)) <= atol


def is_unitary(a: np.ndarray, atol: float = ATOL_STRUCTURAL) -> bool:
    m = as_matrix(a)
    return max_abs(dagger(m) @ m - identity(m.shape[0])) <= atol


def is_projector(a: np.ndarray, atol: float = ATOL_STRUCTURAL) -> bool:
    """True for Hermitian idempotent matrices."""
    m = as_matrix(a)
    return is_hermitian(m, atol) and max_abs(m @ m - m) <= atol


def is_density_matrix(a: np.ndarray, atol: float = ATOL_STRUCTURAL) -> bool:
    """True for Hermitian, positive semidefinite, unit-trace matrices."""
    m = as_matrix(a)
    if not is_hermitian(m, atol):
        return False
    if abs(np.trace(m) - 1.0) > atol:
        return False
    evals = np.linalg.eigvalsh((m + dagger(m)) / 2.0)
    return bool(evals[0] >= -atol)


@dataclass(frozen=True)
class EigenResult:
    """Eigendecomposition of a Hermitian matrix.

    Attributes
    ----------
    values : real eigenvalues sorted in descending order.
    vectors : matrix whose column j is the eigenvector for values[j];
        columns are orthonormal, including inside degenerate subspaces.
    """

    values: np.ndarray
    vectors: np.ndarray


def hermitian_eigs(a: np.ndarray, atol: float = ATOL_STRUCTURAL) -> EigenResult:
    """Eigendecomposition restricted to Hermitian input.

    Parameters
    ----------
    a : square matrix, validated Hermitian within ``atol``.

    Returns
    -------
    EigenResult with eigenvalues descending and orthonormal eigenvectors.
    Deterministic for a fixed input matrix.
    """
    m = as_matrix(a)
    if not is_hermitian(m, atol):
        raise ValueError("hermitian_eigs requires a Hermitian matrix")
    values, vectors = np.linalg.eigh(m)
    return EigenResult(values=values[::-1].copy(), vectors=vectors[:, ::-1].copy())

