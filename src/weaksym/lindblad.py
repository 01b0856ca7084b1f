"""Master-operator representations and their superoperator matrices.

A Representation is a Hamiltonian plus an ordered list of jump operators;
different representations can generate the same master operator.  This
module provides the Liouville matrix, its Choi reshuffle, the traceless
form, time evolution, and the machinery relating two representations of
one master operator.  It is the only module that forms superoperator
matrices (row stacking, vec(A rho B) = (A x B^T) vec(rho)):
generator_matrix builds them and change_superoperator_basis rotates them,
with no Kronecker product, for d up to MAX_SUPEROP_DIM.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg
import scipy.sparse

from . import linalg
from .linalg import DEFAULT_TOL, ShapeError, dag, frob


class NegativeTimeError(ValueError):
    pass


class NotSameMasterOperator(ValueError):
    pass


MAX_NORM = 1e50     # keeps J†J and the checks' sums of |P|^2 ~ ||J||^4 finite
MAX_SUPEROP_DIM = 12     # largest d whose d^2 x d^2 superoperators are formed


def _checked(m, what: str) -> None:
    """Finite entries and a Frobenius norm at most MAX_NORM, read from the
    stored entries of a sparse m."""
    x = m.data if scipy.sparse.issparse(m) else m
    if not np.isfinite(x).all():
        raise ValueError(f"{what} has non-finite entries")
    # BLAS nrm2 scales, so no overflow; finiteness is checked above
    norm = scipy.linalg.norm(x.ravel(), check_finite=False)
    if norm > MAX_NORM:
        raise ValueError(f"{what} has Frobenius norm {norm:.3g} > {MAX_NORM:g}")


def _frozen(m):
    if isinstance(m, np.ndarray):
        m.flags.writeable = False
    return m


def _fingerprint_update(digest, m) -> None:
    """Feed the bytes of m's dense form to digest, a sparse m in blocks of
    rows of about 1 MiB, so that no d x d array is formed."""
    if not scipy.sparse.issparse(m):
        digest.update(m.tobytes())
        return
    (d, n), rows, (r, c, v) = m.shape, max(1, 2 ** 16 // m.shape[1]), linalg.entries(m)
    for start in range(0, d, rows):
        lo, hi = m.indptr[start], m.indptr[min(start + rows, d)]
        block = np.zeros(min(rows, d - start) * n, dtype=complex)
        block[(r[lo:hi] - start) * n + c[lo:hi]] = v[lo:hi]
        digest.update(block.tobytes())


@dataclass(frozen=True)
class Representation:
    """Hamiltonian plus ordered jump operators for one unravelling.

    Each operator is held in its working form (linalg.working): a
    complex array, or above linalg.SMALL_DIM a canonical CSR array when it
    is given sparse, as a model file's sparse entries give it.  The checks,
    `traceless`, `nonzeros` and `fingerprint` read a CSR operator's stored
    entries; `effective_hamiltonian` is dense."""

    hamiltonian: np.ndarray
    jumps: tuple
    labels: tuple = ()

    def __post_init__(self):
        h = linalg.working(self.hamiltonian)
        d = h.shape[0]
        if h.shape != (d, d):
            raise ShapeError(f"hamiltonian must be square, got {h.shape}")
        _checked(h, "hamiltonian")
        hnorm = frob(h)
        # at DEFAULT_TOL (its own tau), not tau(--tol): a model is loaded,
        # and so checked, before a command reads its --tol
        if hnorm > 0 and linalg.distance(h, dag(h)) > DEFAULT_TOL * max(hnorm, 1.0):
            raise ValueError("hamiltonian is not Hermitian within tolerance")
        jumps = tuple(map(linalg.working, self.jumps))
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
    def jump_traces(self) -> np.ndarray:
        """tr J_j for each jump, read-only as it is shared."""
        return _frozen(np.array([j.trace() for j in self.jumps], dtype=complex))

    @cached_property
    def traceless(self) -> tuple:
        """(H', traceless jumps) of the equivalent representation whose
        jumps are all traceless, H' = H + (i/2d) sum_j [J_j Tr(J_j†) - J_j†
        Tr(J_j)] and J_j' = J_j - Tr(J_j)/d, which generates the identical
        master operator.  Each jump keeps its form, and all are read-only
        as they are shared: H' is (a view of) H when no jump has a trace, a
        jump of trace 0 (a view of) itself, and a jump proportional to 1
        gives 0."""
        d, shift, jumps = self.dim, 0.0, []
        for j, tr in zip(self.jumps, self.jump_traces):
            if tr != 0:
                shift = shift + (j * np.conj(tr) - dag(j) * tr)
                j = j - (tr / d) * scipy.sparse.eye_array(d, format="csr") \
                    if scipy.sparse.issparse(j) else linalg.remove_trace(j.copy())
            jumps.append(_frozen(j.view() if isinstance(j, np.ndarray) else j))
        h = self.hamiltonian if np.isscalar(shift) else \
            linalg.operator(self.hamiltonian + (1j / (2.0 * d)) * shift)
        return _frozen(h.view() if isinstance(h, np.ndarray) else h), tuple(jumps)

    @cached_property
    def nonzeros(self) -> tuple:
        """(k, rows, cols, values): the nonzero entries of H (k = 0), H'
        (k = 1) and the traceless jumps (k = 2, 3, ...) of `traceless`, in
        order of k and row-major within each, read-only as they are shared."""
        frame_hamiltonian, jumps = self.traceless
        k, flat, values = linalg.nonzeros((self.hamiltonian, frame_hamiltonian, *jumps))
        return tuple(map(_frozen, (k, *np.divmod(flat, self.dim), values)))

    @cached_property
    def effective_hamiltonian(self) -> np.ndarray:
        """H - (i/2) sum_j J_j† J_j as a d x d array, read-only as it is
        shared; a CSR jump adds J_S† J_S on its nonzero columns, J_S its
        block on its nonzero rows and columns (linalg.support)."""
        h = self.hamiltonian
        out = linalg.dense(h, "the effective Hamiltonian") if scipy.sparse.issparse(h) \
            else h.copy()
        for j in self.jumps:
            if scipy.sparse.issparse(j):
                _, cols, block = linalg.support(j)
                out[np.ix_(cols, cols)] -= 0.5j * (dag(block) @ block)
            else:
                out -= 0.5j * (dag(j) @ j)
        return _frozen(out)

    def fingerprint(self) -> str:
        """Hex digest of the defining matrices' dense bytes (for
        reproducibility records), the same for either form."""
        import hashlib

        h = hashlib.sha256()
        for m in (self.hamiltonian, *self.jumps):
            _fingerprint_update(h, m)
        return h.hexdigest()[:16]


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


def generator_matrix(g, jumps=()) -> np.ndarray:
    """G x 1 + 1 x G* + sum_m J_m x J_m*, the matrix of rho -> G rho + rho G†
    + sum_m J_m rho J_m†: the reshuffled Choi GEMM of the row-stacked jumps,
    with G added on two diagonal views of its (d, d, d, d) view."""
    g = np.asarray(g, dtype=complex)
    d = g.shape[0]
    vecs = np.array([linalg.dense(j) for j in jumps], dtype=complex).reshape(-1, d * d)
    out = liouville_to_choi(vecs.T @ vecs.conj())   # a fresh C-ordered array
    blocks = out.reshape(d, d, d, d)
    np.einsum("ijkj->ikj", blocks)[...] += g[:, :, None]
    np.einsum("ijil->jli", blocks)[...] += g.conj()[:, :, None]
    return out


def change_superoperator_basis(superop, v) -> np.ndarray:
    """(V x V*)† S (V x V*) for a row-stacking superoperator matrix S,
    contracted one index of its (d, d, d, d) view at a time."""
    v = np.asarray(v, dtype=complex)
    d = v.shape[0]
    t = np.asarray(superop, dtype=complex).reshape(d, d, d, d)
    for m in (v.conj(), v, v, v.conj()):
        # np.tensordot(t, m, axes=(0, 0)), without its argument handling
        t = np.dot(t.transpose(1, 2, 3, 0).reshape(d ** 3, d), m).reshape(d, d, d, d)
    return t.reshape(d * d, d * d)


def liouville_matrix(rep: Representation) -> np.ndarray:
    """Liouville (row-stacking) matrix of rep's master operator."""
    return generator_matrix(-1j * rep.effective_hamiltonian, rep.jumps)


def liouville_to_choi(lam: np.ndarray) -> np.ndarray:
    """Reshuffle a Liouville matrix into the Choi matrix: C[mn,kl] = Lam[mk,nl]."""
    lam = np.asarray(lam, dtype=complex)
    d2 = lam.shape[0]
    d = int(round(np.sqrt(d2)))
    if d * d != d2 or lam.shape != (d2, d2):
        raise ShapeError(f"not a vectorized superoperator matrix: {lam.shape}")
    return lam.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d2, d2)


def jump_part_choi(jumps) -> np.ndarray:
    """Choi matrix of rho -> sum_j J_j rho J_j†, sum_j vec(J_j) vec(J_j)† (PSD)."""
    vecs = np.array([linalg.dense(j) for j in jumps], dtype=complex).reshape(len(jumps), -1)
    return vecs.T @ vecs.conj()


def evolve_density(rep: Representation, rho0, t: float) -> np.ndarray:
    """Propagate rho0 for time t >= 0 through exp(t * Liouville matrix);
    ShapeError above MAX_SUPEROP_DIM, before the matrix is formed."""
    if t < 0:
        raise NegativeTimeError(f"t = {t} < 0")
    d = rep.dim
    if d > MAX_SUPEROP_DIM:
        raise ShapeError(f"dim {d} > {MAX_SUPEROP_DIM}: the {d * d} x {d * d} "
                         "Liouville matrix is not formed")
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape != (d, d):
        raise ShapeError("state dimension mismatch")
    if t == 0.0:
        return rho0.copy()
    lam = liouville_matrix(rep)
    vec = linalg.matrix_exponential(t * lam) @ rho0.reshape(-1)
    return vec.reshape(d, d)


def master_gaps(ha: np.ndarray, hb: np.ndarray, a: np.ndarray, b: np.ndarray) -> tuple:
    """The two terms of the distance of two master operators: the gap of
    the traceless-frame Hamiltonians H'a, H'b up to a multiple of 1, over
    max(||H'a||, ||H'b||, 1), and the relative linalg.frame_gap of the
    traceless jumps' coordinates a, b in one basis (a column per jump)."""
    # X - tr(X)/d 1 for X = H'a - H'b, H'a, H'b, one at a time
    gap, na, nb = (linalg.distance(x, y, traceless=True) for x, y in
                   ((ha, hb), (ha, None), (hb, None)))
    frame, fa, fb = linalg.frame_gap(a, b)
    return gap / max(na, nb, 1.0), frame / max(fa, fb, 1e-300)


def _master_coordinates(rep_a: Representation, rep_b: Representation, tol: float):
    """Coordinates (a column per jump) of both representations' traceless
    jumps in one orthonormal basis of their joint span, or None when their
    master operators differ."""
    if rep_a.dim != rep_b.dim:
        raise ShapeError("dimension mismatch")
    a, b = linalg.operator_coordinates(rep_a.traceless[1], rep_b.traceless[1])
    gaps = master_gaps(rep_a.traceless[0], rep_b.traceless[0], a, b)
    return (a, b) if max(gaps) <= linalg.threshold(tol) else None


def representations_equal(rep_a: Representation, rep_b: Representation,
                          tol: float = DEFAULT_TOL) -> bool:
    """Whether two representations generate the same master operator: both
    master_gaps within linalg.threshold(tol), without d^2 x d^2 matrices."""
    return _master_coordinates(rep_a, rep_b, tol) is not None


def relate_representations(rep_a: Representation, rep_b: Representation,
                           tol: float = DEFAULT_TOL):
    """Isometry V with J'_b,j = sum_k V_jk J'_a,k on traceless jumps.

    rep_b must have at least as many jumps as rep_a.  Returns (V, unique)
    where unique is False when the jumps of rep_a are linearly dependent
    (V is then fixed only on their span).  Raises NotSameMasterOperator
    when the master operators differ or V does not certify rep_b's jumps
    (linalg.SpanMap.accept).
    """
    if rep_b.njumps < rep_a.njumps:
        raise ShapeError("order the call so the second representation has >= jumps")
    coords = _master_coordinates(rep_a, rep_b, tol)
    if coords is None:
        raise NotSameMasterOperator("representations generate different master operators")
    span = linalg.SpanMap(*coords, tol)
    (x, _), (_, _, zh, r) = span.mixing, span.svd
    # V = X + (a basis of range(X)^perp)(a basis of the jump kernel)†
    v = span.accept(x + np.linalg.svd(x)[0][:, r:rep_a.njumps] @ zh[r:].conj())
    if v is None:
        raise NotSameMasterOperator("no isometry carries the source jumps onto the targets")
    return v, r == rep_a.njumps


__all__ = [
    "MAX_SUPEROP_DIM",
    "Representation",
    "apply_master_operator",
    "apply_adjoint_master_operator",
    "change_superoperator_basis",
    "evolve_density",
    "generator_matrix",
    "jump_part_choi",
    "liouville_matrix",
    "liouville_to_choi",
    "master_gaps",
    "pure_state",
    "relate_representations",
    "representations_equal",
    "NegativeTimeError",
    "NotSameMasterOperator",
]
