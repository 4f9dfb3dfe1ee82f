"""Dense Hermitian linear algebra on 2x2 and 4x4 complex matrices.

Operators are plain ``numpy`` arrays.  The functions collected here are
the only linear-algebra primitives the rest of the package uses:
Kronecker products, Hermitian eigendecompositions, positive square
roots, partial traces and the trace norm, together with validation
helpers for the operator classes that appear throughout (Hermitian
operators, density operators, effects).  ``pauli_dot`` and ``tensor``
broadcast over leading axes, so batched code builds its operators through
the same two functions as single requests, bit for bit.
"""

from __future__ import annotations

import numbers

import numpy as np

__all__ = [
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "PAULI",
    "I2",
    "I4",
    "STRUCT_TOL",
    "HERMITICITY_TOL",
    "PSD_TOL",
    "identity",
    "pauli_dot",
    "tensor",
    "eigen_hermitian",
    "sqrt_psd",
    "partial_trace",
    "trace_norm",
    "expectation",
    "check_hermitian",
    "check_density",
    "check_effect",
    "matrix_to_pairs",
    "matrix_from_pairs",
    "json_number",
    "json_list",
    "json_known_keys",
]

# Absolute tolerance for structural identities that hold by construction
# (self-adjointness, unit trace, POVM normalisation).
STRUCT_TOL = 1e-12
# Looser gate used when accepting matrices for spectral routines.
HERMITICITY_TOL = 1e-9
# Eigenvalues below -PSD_TOL mean "not positive semidefinite"; anything in
# [-PSD_TOL, 0) is treated as rounding noise and clamped to zero.
PSD_TOL = 1e-9

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULI = (SIGMA_X, SIGMA_Y, SIGMA_Z)
I2 = np.eye(2, dtype=complex)
I4 = np.eye(4, dtype=complex)


def identity(dim: int) -> np.ndarray:
    """Identity operator of dimension 2 or 4."""
    if dim not in (2, 4):
        raise ValueError(f"dimension must be 2 or 4, got {dim}")
    return np.eye(dim, dtype=complex)


def _as_matrix(matrix, name: str = "operator") -> np.ndarray:
    mat = np.asarray(matrix, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {mat.shape}")
    if mat.shape[0] not in (2, 4):
        raise ValueError(f"{name} must have dimension 2 or 4, got {mat.shape[0]}")
    return mat


def asymmetry(matrix) -> float:
    """Largest entrywise deviation of a matrix from its own adjoint."""
    mat = np.asarray(matrix, dtype=complex)
    return float(np.max(np.abs(mat - mat.conj().T)))


def check_hermitian(matrix, tol: float = HERMITICITY_TOL, name: str = "operator") -> np.ndarray:
    """Validate self-adjointness and return the Hermitian part.

    The Hermitian part (A + A^dagger)/2 is returned so spectral routines
    operate on an exactly self-adjoint matrix even when the input carries
    rounding noise up to ``tol``.
    """
    mat = _as_matrix(matrix, name)
    if not np.isfinite(mat).all():
        # A NaN entry would make the asymmetry NaN, which ``dev > tol`` lets through.
        raise ValueError(f"{name} must have finite entries")
    dev = asymmetry(mat)
    if dev > tol:
        raise ValueError(f"{name} is not Hermitian (asymmetry {dev:.3e} exceeds {tol:.1e})")
    return (mat + mat.conj().T) / 2.0


def pauli_dot(vec) -> np.ndarray:
    """Contraction of a real 3-vector with the Pauli matrices.

    Broadcasts over leading axes: vectors of shape ``B + (3,)`` give
    operators of shape ``B + (2, 2)``.  The contraction is elementwise, so
    each entry of a batch equals the operator of its vector alone, bit
    for bit.
    """
    v = np.asarray(vec, dtype=float)
    if v.shape[-1:] != (3,):
        raise ValueError(f"expected a 3-vector, got shape {v.shape}")
    if v.ndim > 1:
        # Components of shape B + (1, 1), to broadcast against the matrices.
        v = np.moveaxis(v, -1, 0)[..., None, None]
    return v[0] * SIGMA_X + v[1] * SIGMA_Y + v[2] * SIGMA_Z


def tensor(a, b) -> np.ndarray:
    """Kronecker product of two single-system (2x2) operators.

    Broadcasts over leading axes, as ``pauli_dot`` does: factors of shapes
    ``A + (2, 2)`` and ``B + (2, 2)`` give a product of shape
    ``broadcast(A, B) + (4, 4)``.  Each entry is the one complex product
    ``np.kron`` forms for it, so every product equals ``np.kron`` of its own
    factors, bit for bit.
    """
    ma = np.asarray(a, dtype=complex)
    mb = np.asarray(b, dtype=complex)
    if ma.shape[-2:] != (2, 2) or mb.shape[-2:] != (2, 2):
        raise ValueError(
            f"tensor expects two 2x2 operators, got {ma.shape} and {mb.shape}"
        )
    blocks = ma[..., :, None, :, None] * mb[..., None, :, None, :]
    return blocks.reshape(blocks.shape[:-4] + (4, 4))


def eigen_hermitian(matrix) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(eigenvalues, eigenvectors)`` with real eigenvalues in
    ascending order and orthonormal eigenvectors as columns.
    """
    herm = check_hermitian(matrix)
    return np.linalg.eigh(herm)


def sqrt_psd(matrix) -> np.ndarray:
    """Unique positive square root of a positive semidefinite matrix."""
    vals, vecs = eigen_hermitian(matrix)
    low = float(vals.min())
    if low < -PSD_TOL:
        raise ValueError(
            f"operator is not positive semidefinite (minimum eigenvalue {low:.3e})"
        )
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def partial_trace(matrix, keep: int) -> np.ndarray:
    """Partial trace of a two-qubit (4x4) operator.

    ``keep=1`` traces out the second tensor factor, ``keep=2`` the first.
    """
    mat = _as_matrix(matrix)
    if mat.shape != (4, 4):
        raise ValueError(f"partial trace is defined for 4x4 operators, got {mat.shape}")
    blocks = mat.reshape(2, 2, 2, 2)
    if keep == 1:
        return np.einsum("imjm->ij", blocks)
    if keep == 2:
        return np.einsum("mimj->ij", blocks)
    raise ValueError(f"keep must be 1 or 2, got {keep}")


def trace_norm(matrix) -> float:
    """Trace norm (sum of absolute eigenvalues) of a Hermitian matrix."""
    herm = check_hermitian(matrix)
    return float(np.sum(np.abs(np.linalg.eigvalsh(herm))))


def expectation(state, observable) -> float:
    """Real expectation value tr[state * observable]."""
    return float(np.real(np.trace(np.asarray(state) @ np.asarray(observable))))


def check_density(matrix, name: str = "state") -> np.ndarray:
    """Validate a density operator: Hermitian, unit trace, positive, each to ``STRUCT_TOL``."""
    herm = check_hermitian(matrix, STRUCT_TOL, name)
    tr = float(np.real(np.trace(herm)))
    if abs(tr - 1.0) > STRUCT_TOL:
        raise ValueError(f"{name} must have unit trace, got {tr!r}")
    low = float(np.linalg.eigvalsh(herm).min())
    if low < -STRUCT_TOL:
        raise ValueError(f"{name} has a negative eigenvalue ({low:.3e})")
    return herm


def check_effect(matrix, name: str = "effect") -> np.ndarray:
    """Validate an effect operator: Hermitian with spectrum in [0, 1], each to ``STRUCT_TOL``."""
    herm = check_hermitian(matrix, STRUCT_TOL, name)
    vals = np.linalg.eigvalsh(herm)
    low, high = float(vals.min()), float(vals.max())
    if low < -STRUCT_TOL or high > 1.0 + STRUCT_TOL:
        raise ValueError(
            f"{name} spectrum [{low:.6f}, {high:.6f}] is not contained in [0, 1]"
        )
    return herm


def matrix_to_pairs(matrix) -> list[list[float]]:
    """Serialize a matrix as a flat row-major list of [re, im] pairs."""
    mat = _as_matrix(matrix)
    return [[float(z.real), float(z.imag)] for z in mat.ravel()]


def matrix_from_pairs(pairs) -> np.ndarray:
    """Rebuild a matrix from its flat row-major [re, im] serialization."""
    entries = [complex(re, im) for re, im in pairs]
    dim = int(round(len(entries) ** 0.5))
    if dim * dim != len(entries) or dim not in (2, 4):
        raise ValueError(f"cannot infer a 2x2 or 4x4 matrix from {len(entries)} entries")
    return np.array(entries, dtype=complex).reshape(dim, dim)


def json_number(value, field: str, kind: str = "a number", error=ValueError) -> float:
    """A number read from JSON, as a float: an int or a float, never a bool or a string."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise error(f"{field} must be {kind}, got {value!r}")
    return float(value)


def json_list(value, field: str, kind: str = "a list") -> list:
    """A sequence read from JSON: a list (or a tuple), never a string."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{field} must be {kind}, got {value!r}")
    return list(value)


def json_known_keys(data: dict, known: tuple, where: str, error=ValueError) -> None:
    """Refuse a JSON object with a key outside ``known``, naming the key and the known ones."""
    for key in data:
        if key not in known:
            raise error(f"{where} has an unknown key {key!r} (known: {', '.join(known)})")
