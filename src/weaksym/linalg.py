"""Dense complex linear algebra kernel.

Thin, tolerance-aware wrappers over LAPACK (through numpy and scipy):
Hermitian and unitary eigendecompositions with a deterministic phase
convention, the matrix exponential, orthonormal spans, complements and
thin-QR coordinates, Haar-random unitaries and the linear assignment
problem.  Everything operates on plain numpy arrays and keeps no global
state, so calls are safe from concurrent workers.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
import scipy.optimize

DEFAULT_TOL = 1e-9


class LinalgError(Exception):
    pass


class NotHermitianError(LinalgError):
    pass


class NotUnitaryError(LinalgError):
    pass


class NoConvergenceError(LinalgError):
    pass


class ShapeError(LinalgError):
    pass


def dag(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return a.conj().T


def frob(a: np.ndarray) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(a))


def _as_square(a) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"expected square matrix, got {a.shape}")
    return a


def fix_column_phases(v: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Rescale each column so its first non-negligible entry is real positive."""
    nrm = np.abs(v)
    first = v[np.argmax(nrm > tol * nrm.max(axis=0), axis=0), np.arange(v.shape[1])]
    r = np.abs(first)   # zero only for an all-zero column, which stays as it is
    return v * np.where(r > 0, first / np.where(r > 0, r, 1.0), 1.0).conj()


def hermitian_eigendecomposition(a, tol: float = DEFAULT_TOL):
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues ascending, eigenvector columns), each column
    with its first non-negligible entry real positive.  Raises
    NotHermitianError if the input fails the Hermiticity precondition.
    """
    a = _as_square(a)
    scale = frob(a)
    if scale > 0 and frob(a - dag(a)) > tol * max(scale, 1.0):
        raise NotHermitianError("matrix is not Hermitian within tolerance")
    w, v = np.linalg.eigh((a + dag(a)) / 2.0)
    return w, fix_column_phases(v)


def unitary_eigendecomposition(u, tol: float = DEFAULT_TOL):
    """Eigenphases and eigenvectors of a unitary matrix.

    The complex Schur form of a normal matrix is diagonal and its Schur
    vectors are orthonormal, degenerate eigenspaces included.  Phases are
    returned in [0, 2pi), ascending.
    """
    u = _as_square(u)
    n = u.shape[0]
    if frob(dag(u) @ u - np.eye(n)) > tol * max(1.0, np.sqrt(n)):
        raise NotUnitaryError("matrix is not unitary within tolerance")
    t, v = scipy.linalg.schur(u, output="complex")
    phases = np.mod(np.angle(np.diag(t)), 2.0 * np.pi)
    # normalize phases indistinguishable from 2pi back to 0
    phases[np.abs(phases - 2.0 * np.pi) < 1e-12] = 0.0
    order = np.argsort(np.round(phases, 12), kind="stable")
    phases = phases[order]
    v = fix_column_phases(v[:, order])
    resid = frob(u @ v - v @ np.diag(np.exp(1j * phases)))
    if resid > 100 * tol * max(1.0, frob(u)):
        raise NoConvergenceError(f"eigen residual {resid:.2e} too large")
    return phases, v


def matrix_exponential(m) -> np.ndarray:
    """exp(M) by scipy's scaling-and-squaring Pade method."""
    return scipy.linalg.expm(_as_square(m))


def orthonormal_columns(vectors: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of the column span from a thin SVD.

    Directions with singular value at most tol times the largest one are
    dropped.
    """
    v = np.asarray(vectors, dtype=complex)
    if v.ndim != 2:
        raise ShapeError("expected a matrix")
    u, s, _ = np.linalg.svd(v, full_matrices=False)
    rank = int(np.sum(s > tol * s[0])) if s.size else 0
    return u[:, :rank]


def coordinates(rows: np.ndarray) -> np.ndarray:
    """Coordinates of vectors (the rows, overwritten) in one orthonormal
    basis of their span: R of a thin Householder QR run in place on the
    transpose.  Inner products and norms of combinations are read from R."""
    geqrf, = scipy.linalg.lapack.get_lapack_funcs(("geqrf",), (rows,))
    qr, _, _, info = geqrf(rows.T, overwrite_a=True)
    if info != 0:
        raise LinalgError(f"geqrf failed with info {info}")
    return np.triu(qr[:min(qr.shape)])


def orthonormal_complement(basis: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the complement of an orthonormal column set."""
    q, _ = np.linalg.qr(np.asarray(basis, dtype=complex), mode="complete")
    return q[:, basis.shape[1]:]


def random_unitary(rng, n: int) -> np.ndarray:
    """Haar-random n x n unitary from QR of a complex Gaussian matrix."""
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def assign(cost, tol: float):
    """Least-cost bijection that uses only entries of cost at most tol.

    Returns pi with pi[i] the column matched to row i of the square cost
    matrix, or None when every bijection uses an entry above tol.  Solved
    as a linear assignment problem (Kuhn-Munkres, through scipy).
    """
    cost = np.asarray(cost, dtype=float)
    if cost.size == 0:
        return ()
    allowed = np.isfinite(cost) & (cost <= tol)
    # one forbidden constant above any all-allowed total keeps scipy away
    # from forbidden entries whenever an allowed bijection exists
    low = np.min(cost, where=allowed, initial=0.0)
    shifted = np.where(allowed, cost - low, 0.0)
    big = cost.shape[0] * np.max(shifted) + 1.0
    rows, cols = scipy.optimize.linear_sum_assignment(
        np.where(allowed, shifted, big))
    if not np.all(allowed[rows, cols]):
        return None
    return tuple(int(c) for c in cols)
