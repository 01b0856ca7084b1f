"""Dense complex linear algebra kernel.

Thin, tolerance-aware wrappers over LAPACK (through numpy and scipy):
Hermitian and unitary eigendecompositions with a deterministic phase
convention, the matrix exponential, thin-QR coordinates and the
least-norm maps between jump spans read from one SVD of them (`SpanMap`),
Haar-random unitaries and the linear assignment problem.  Everything
operates on plain numpy arrays and keeps no global state, so calls are
safe from concurrent workers.
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


def coordinates(rows: np.ndarray) -> np.ndarray:
    """Coordinates of vectors (the rows, overwritten) in one orthonormal
    basis of their span: R of a thin Householder QR run in place on the
    transpose.  Inner products and norms of combinations are read from R."""
    geqrf, = scipy.linalg.lapack.get_lapack_funcs(("geqrf",), (rows,))
    qr, _, _, info = geqrf(rows.T, overwrite_a=True)
    if info != 0:
        raise LinalgError(f"geqrf failed with info {info}")
    return np.triu(qr[:min(qr.shape)])


class SpanMap:
    """Least-norm maps of targets onto the span of jumps, from one SVD.

    The columns of a are n jumps and those of b targets, as coordinates in
    one orthonormal basis (see `coordinates`); a = W S Z† is a full SVD.
    Each method drops the singular values at most cut times the largest.
    """

    def __init__(self, a: np.ndarray, b: np.ndarray):
        self.a, self.b = a, b
        self.w, self.s, self.zh = np.linalg.svd(a)

    def rank(self, cut: float) -> int:
        return int(np.sum(self.s > cut * self.s[:1]))

    def solve(self, cut: float):
        """Least-norm X with b ~ a Xᵀ, and ||b - a Xᵀ|| / ||b||."""
        r = self.rank(cut)
        x = self.b.T @ self.w[:, :r].conj() / self.s[:r] @ self.zh[:r].conj()
        return x, frob(self.b - self.a @ x.T) / max(frob(self.b), 1e-300)

    def escape(self, cut: float) -> float:
        """Largest norm of a target outside the span."""
        w = self.w[:, :self.rank(cut)]
        rest = self.b - w @ (dag(w) @ self.b)
        return float(np.max(np.linalg.norm(rest, axis=0), initial=0.0))

    def isometry(self, cut: float):
        """X Z̄ = bᵀ W̄ S⁻¹ (a row per target), the map the targets induce on
        the span, or None when it is not isometric (the frames differ)."""
        r = self.rank(cut)
        v = self.b.T @ self.w[:, :r].conj() / self.s[:r]
        return None if frob(dag(v) @ v - np.eye(r)) > 1e3 * cut * max(1.0, r) else v

    def certificate(self, cut: float):
        """X + (1 - Z̄Zᵀ), the identity on the jump kernel, or None as for
        `isometry`; unitary when the targets share the jumps' kernel, as the
        conjugates of a jump family do."""
        v = self.isometry(cut)
        if v is None:
            return None
        z = self.zh[:v.shape[1]]
        return v @ z.conj() + np.eye(len(self.zh)) - z.T @ z.conj()


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
