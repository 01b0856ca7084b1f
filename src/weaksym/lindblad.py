"""Master-operator representations and their superoperator matrices.

A Representation is a Hamiltonian plus an ordered list of jump operators;
different representations can generate the same master operator.  This
module provides the Liouville and Choi matrices (row-stacking convention
throughout: vec(A rho B) = (A kron B^T) vec(rho)), the traceless form,
time evolution, and the machinery relating two representations of one
master operator.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from . import linalg
from .linalg import DEFAULT_TOL, ShapeError, dag, frob


class NegativeTimeError(ValueError):
    pass


class NotSameMasterOperator(ValueError):
    pass


MAX_NORM = 1e50     # keeps J†J and the checks' sums of |P|^2 ~ ||J||^4 finite


def _checked(m: np.ndarray, what: str) -> None:
    if not np.isfinite(m).all():
        raise ValueError(f"{what} has non-finite entries")
    norm = scipy.linalg.norm(m.ravel())   # BLAS nrm2 scales: no overflow
    if norm > MAX_NORM:
        raise ValueError(f"{what} has Frobenius norm {norm:.3g} > {MAX_NORM:g}")


def _frozen(m: np.ndarray) -> np.ndarray:
    m.flags.writeable = False
    return m


@dataclass(frozen=True)
class Representation:
    """Hamiltonian plus ordered jump operators for one unravelling."""

    hamiltonian: np.ndarray
    jumps: tuple
    labels: tuple = ()

    def __post_init__(self):
        h = np.asarray(self.hamiltonian, dtype=complex)
        d = h.shape[0]
        if h.shape != (d, d):
            raise ShapeError(f"hamiltonian must be square, got {h.shape}")
        _checked(h, "hamiltonian")
        hnorm = frob(h)
        if hnorm > 0 and frob(h - dag(h)) > DEFAULT_TOL * max(hnorm, 1.0):
            raise ValueError("hamiltonian is not Hermitian within tolerance")
        jumps = tuple(np.asarray(j, dtype=complex) for j in self.jumps)
        for k, j in enumerate(jumps):
            if j.shape != (d, d):
                raise ShapeError(f"jump {k} has shape {j.shape}, expected {(d, d)}")
            _checked(j, f"jump {k}")
            if frob(j) == 0.0:
                raise ValueError(f"jump {k} is zero")
        labels = tuple(self.labels) if self.labels else tuple(
            f"J{k + 1}" for k in range(len(jumps)))
        if len(labels) != len(jumps):
            raise ValueError("labels length must match jump count")
        object.__setattr__(self, "hamiltonian", h)
        object.__setattr__(self, "jumps", jumps)
        object.__setattr__(self, "labels", labels)

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]

    @property
    def njumps(self) -> int:
        return len(self.jumps)

    @cached_property
    def traceless(self) -> tuple:
        """(H', traceless jumps) of traceless_representation, read-only as
        they are shared; a jump proportional to the identity gives zero."""
        d = self.dim
        shift = np.zeros_like(self.hamiltonian)
        jumps = []
        for j in self.jumps:
            tr = np.trace(j)
            shift += j * np.conj(tr) - dag(j) * tr
            jumps.append(_frozen(j - (tr / d) * np.eye(d)))
        return _frozen(self.hamiltonian + (1j / (2.0 * d)) * shift), tuple(jumps)

    @cached_property
    def effective_hamiltonian(self) -> np.ndarray:
        """H - (i/2) sum_j J_j† J_j, read-only as it is shared."""
        out = self.hamiltonian.copy()
        for j in self.jumps:
            out -= 0.5j * (dag(j) @ j)
        return _frozen(out)

    def with_jumps(self, jumps, labels=()) -> "Representation":
        return Representation(self.hamiltonian, tuple(jumps), labels)

    def fingerprint(self) -> str:
        """Hex digest of the defining matrices (for reproducibility records)."""
        import hashlib

        h = hashlib.sha256()
        h.update(self.hamiltonian.tobytes())
        for j in self.jumps:
            h.update(j.tobytes())
        return h.hexdigest()[:16]


def validate_density_matrix(rho, tol: float = 1e-9) -> np.ndarray:
    """Check Hermiticity, unit trace and positivity of a density matrix."""
    rho = np.asarray(rho, dtype=complex)
    if frob(rho - dag(rho)) > tol * max(1.0, frob(rho)):
        raise ValueError("density matrix is not Hermitian")
    if abs(np.trace(rho) - 1.0) > tol:
        raise ValueError(f"density matrix trace {np.trace(rho)} != 1")
    w, _ = linalg.hermitian_eigendecomposition(rho, tol)
    if np.min(w) < -tol:
        raise ValueError(f"density matrix has eigenvalue {np.min(w)} < 0")
    return rho


def pure_state(vec) -> np.ndarray:
    """Projector |v><v| of a normalized state vector."""
    v = np.asarray(vec, dtype=complex)
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


def apply_master_operator(rep: Representation, rho) -> np.ndarray:
    """-i[H, rho] + sum_j (J rho J† - (1/2){J†J, rho})."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (rep.dim, rep.dim):
        raise ShapeError(f"state shape {rho.shape} does not match dim {rep.dim}")
    h = rep.hamiltonian
    out = -1j * (h @ rho - rho @ h)
    for j in rep.jumps:
        jdj = dag(j) @ j
        out += j @ rho @ dag(j) - 0.5 * (jdj @ rho + rho @ jdj)
    return out


def apply_adjoint_master_operator(rep: Representation, f) -> np.ndarray:
    """Heisenberg-picture action: +i[H, F] + sum_j (J† F J - (1/2){J†J, F})."""
    f = np.asarray(f, dtype=complex)
    h = rep.hamiltonian
    out = 1j * (h @ f - f @ h)
    for j in rep.jumps:
        jdj = dag(j) @ j
        out += dag(j) @ f @ j - 0.5 * (jdj @ f + f @ jdj)
    return out


def liouville_matrix(op, dim: int | None = None) -> np.ndarray:
    """Liouville (row-stacking) matrix of a superoperator.

    `op` is either a Representation (giving its master operator) or a
    callable rho -> superoperator(rho), in which case `dim` is required.
    """
    if isinstance(op, Representation):
        d = op.dim
        h = op.hamiltonian
        eye = np.eye(d, dtype=complex)
        lam = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
        for j in op.jumps:
            jdj = dag(j) @ j
            lam += np.kron(j, j.conj())
            lam -= 0.5 * (np.kron(jdj, eye) + np.kron(eye, jdj.T))
        return lam
    if dim is None:
        raise ValueError("dim is required for a callback superoperator")
    lam = np.zeros((dim * dim, dim * dim), dtype=complex)
    for k in range(dim):
        for l in range(dim):
            e = np.zeros((dim, dim), dtype=complex)
            e[k, l] = 1.0
            lam[:, k * dim + l] = np.asarray(op(e), dtype=complex).reshape(-1)
    return lam


def liouville_to_choi(lam: np.ndarray) -> np.ndarray:
    """Reshuffle a Liouville matrix into the Choi matrix: C[mn,kl] = Lam[mk,nl]."""
    lam = np.asarray(lam, dtype=complex)
    d2 = lam.shape[0]
    d = int(round(np.sqrt(d2)))
    if d * d != d2 or lam.shape != (d2, d2):
        raise ShapeError(f"not a vectorized superoperator matrix: {lam.shape}")
    return lam.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d2, d2)


def choi_matrix(op, dim: int | None = None) -> np.ndarray:
    """Choi matrix of a superoperator (same inputs as liouville_matrix)."""
    return liouville_to_choi(liouville_matrix(op, dim))


def jump_part_choi(jumps) -> np.ndarray:
    """Choi matrix of rho -> sum_j J_j rho J_j† (positive semidefinite)."""
    jumps = [np.asarray(j, dtype=complex) for j in jumps]
    return liouville_to_choi(sum(np.kron(j, j.conj()) for j in jumps))


def traceless_representation(rep: Representation) -> Representation:
    """Equivalent representation whose jumps are all traceless.

    H' = H + (i/2d) sum_j [J_j Tr(J_j†) - J_j† Tr(J_j)],
    J_j' = J_j - Tr(J_j)/d.  Generates the identical master operator.
    """
    return Representation(*rep.traceless, rep.labels)


def evolve_density(rep: Representation, rho0, t: float) -> np.ndarray:
    """Propagate rho0 for time t >= 0 through exp(t * Liouville matrix)."""
    if t < 0:
        raise NegativeTimeError(f"t = {t} < 0")
    rho0 = np.asarray(rho0, dtype=complex)
    d = rep.dim
    if rho0.shape != (d, d):
        raise ShapeError("state dimension mismatch")
    if t == 0.0:
        return rho0.copy()
    lam = liouville_matrix(rep)
    vec = linalg.matrix_exponential(t * lam) @ rho0.reshape(-1)
    return vec.reshape(d, d)


def _jump_coordinates(rep_a: Representation, rep_b: Representation):
    """Coordinates (a column per jump) of both representations' traceless
    jumps in one orthonormal basis of their joint span, from one thin QR."""
    ja, jb = rep_a.traceless[1], rep_b.traceless[1]
    r = linalg.coordinates(np.array([*ja, *jb], dtype=complex)
                          .reshape(len(ja) + len(jb), rep_a.dim ** 2))
    return r[:, :len(ja)], r[:, len(ja):]


def representations_equal(rep_a: Representation, rep_b: Representation,
                          tol: float = DEFAULT_TOL) -> bool:
    """Whether two representations generate the same master operator.

    Structural test without d^2 x d^2 matrices: the traceless-jump
    Hamiltonians must agree up to a multiple of the identity, and the
    traceless jumps must share their frame operator A A† = B B†, read from
    their coordinates in the joint span.
    """
    if rep_a.dim != rep_b.dim:
        raise ShapeError("dimension mismatch")
    d = rep_a.dim
    ha, hb = rep_a.traceless[0], rep_b.traceless[0]
    ha = ha - (np.trace(ha) / d) * np.eye(d)
    hb = hb - (np.trace(hb) / d) * np.eye(d)
    if frob(ha - hb) > tol * max(frob(ha), frob(hb), 1.0):
        return False
    a, b = _jump_coordinates(rep_a, rep_b)
    fa, fb = a @ dag(a), b @ dag(b)
    return frob(fa - fb) <= tol * max(frob(fa), frob(fb), 1e-300)


def relate_representations(rep_a: Representation, rep_b: Representation,
                           tol: float = DEFAULT_TOL):
    """Isometry V with J'_b,j = sum_k V_jk J'_a,k on traceless jumps.

    rep_b must have at least as many jumps as rep_a.  Returns (V, unique)
    where unique is False when the jumps of rep_a are linearly dependent
    (V is then fixed only on their span).  Raises NotSameMasterOperator
    when the master operators differ.
    """
    if rep_b.njumps < rep_a.njumps:
        raise ShapeError("order the call so the second representation has >= jumps")
    if not representations_equal(rep_a, rep_b, tol):
        raise NotSameMasterOperator("representations generate different master operators")
    span = linalg.SpanMap(*_jump_coordinates(rep_a, rep_b))
    if span.escape(tol) > tol * max(max(frob(j) for j in rep_b.traceless[1]), 1.0):
        raise NotSameMasterOperator("target jumps leave the source jump span")
    v = span.isometry(tol)
    if v is None:
        raise NotSameMasterOperator("jump frames differ; no isometry exists")
    # V = X + (a basis of range(X Z̄)^perp)(a basis of the jump kernel)†
    r, n = v.shape[1], rep_a.njumps
    return np.hstack([v, np.linalg.svd(v)[0][:, r:n]]) @ span.zh.conj(), r == n


__all__ = [
    "Representation",
    "apply_master_operator",
    "apply_adjoint_master_operator",
    "choi_matrix",
    "evolve_density",
    "jump_part_choi",
    "liouville_matrix",
    "liouville_to_choi",
    "pure_state",
    "relate_representations",
    "representations_equal",
    "traceless_representation",
    "validate_density_matrix",
    "NegativeTimeError",
    "NotSameMasterOperator",
]
