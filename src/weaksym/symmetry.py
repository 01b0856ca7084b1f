"""Symmetry condition checks and certificates.

Three increasingly restrictive conditions relate a unitary symmetry of
the master operator to the representation:

* condition I:   the traceless Hamiltonian is fixed and the traceless
                 jumps mix under a unitary matrix (master-level symmetry);
* condition II:  the Hamiltonian is fixed and the SJED composite actions
                 are permuted (trajectory-level symmetry);
* condition III: the jumps themselves are permuted up to phases
                 (record-level symmetry).

Each check returns a verdict plus the certificate that witnesses it
(mixing matrix, completed unitary, permutations, phases, residuals).
All of them read the symmetry's images of the representation's
operators (`SymmetryOperator.images`), formed once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import linalg
from .lindblad import (
    Representation,
    apply_adjoint_master_operator,
    apply_master_operator,
)
from .linalg import DEFAULT_TOL, dag, frob
from .sjed import (
    SjedPartition,
    build_sjeds,
    composite_choi,
    gamma_modes,
    match_signatures,
    signature_distance,
)

PHASE_TOL = 1e-8


class CompletionFailed(Exception):
    pass


class NotConditionII(Exception):
    pass


class NotConditionIII(Exception):
    pass


class NotSingleCycle(Exception):
    pass


class PhaseSumNotInteger(Exception):
    pass


@dataclass(frozen=True)
class SymmetryOperator:
    """A unitary with its eigen-decomposition and (finite) group order."""

    matrix: np.ndarray
    phases: np.ndarray
    eigenbasis: np.ndarray
    order: int | None  # None when not resolved within the cap
    _images: list = field(default_factory=list, init=False, repr=False,
                          compare=False)

    @classmethod
    def from_matrix(cls, u, tol: float = DEFAULT_TOL, order_cap: int = 64):
        u = np.asarray(u, dtype=complex)
        phases, basis = linalg.unitary_eigendecomposition(u, tol)
        return cls(u, phases, basis, _order(phases, order_cap))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def conjugate(self, a) -> np.ndarray:
        """U A U† for an operator on the system."""
        return self.matrix @ np.asarray(a, dtype=complex) @ dag(self.matrix)

    def images(self, rep: Representation) -> SymmetryImages:
        """The images of rep's operators, kept for the last rep asked for."""
        if not self._images or self._images[0] is not rep:
            self._images[:] = [rep, SymmetryImages(rep, self)]
        return self._images[1]

    def liouville(self) -> np.ndarray:
        """Row-stacking matrix of the conjugation superoperator: U kron U*."""
        return np.kron(self.matrix, self.matrix.conj())


def _order(phases: np.ndarray, cap: int) -> int | None:
    """Least n <= cap with U^n = theta 1, from the eigenvalues exp(i n phi)
    of U^n: |tr U^n / d| = 1 and ||U^n - theta 1|| < 1e-9 sqrt(d)."""
    n = np.arange(1, cap + 1)
    powers = np.exp(1j * np.outer(n, phases))
    tr = powers.mean(axis=1)
    gap = np.linalg.norm(powers - (tr / np.maximum(abs(tr), 1e-300))[:, None], axis=1)
    ok = (abs(abs(tr) - 1.0) < 1e-9) & (gap < 1e-9 * np.sqrt(len(phases)))
    return int(n[ok][0]) if ok.any() else None


class SymmetryImages:
    """One symmetry's images of a representation's operators: U H U† with
    ||U H U† - H||, U H' U† (H' the traceless frame's Hamiltonian), U H_eff
    U† on first use, and the coordinates of one QR of the traceless jumps
    J'_j and their images (`frame_jumps`, `frame_images`), shifted to those
    of J_j = J'_j + tr(J_j)/d 1 (`jumps`, `jump_images`; J'_j is orthogonal
    to 1, so the shift loses nothing)."""

    def __init__(self, rep: Representation, sym: SymmetryOperator):
        self.rep, self.sym = rep, sym
        self.frame_hamiltonian, traceless = rep.traceless
        self.frame_hamiltonian_image = sym.conjugate(self.frame_hamiltonian)
        self.hamiltonian_image = sym.conjugate(rep.hamiltonian)
        self.hamiltonian_residual = frob(self.hamiltonian_image - rep.hamiltonian)
        # one thin QR of 1, the J'_j and their images (a d^2-sized stack)
        d, n, u = rep.dim, rep.njumps, sym.matrix
        stack = np.stack([np.eye(d, dtype=complex), *traceless, *traceless])
        np.matmul(u @ stack[1:n + 1], dag(u), out=stack[n + 1:])
        r = linalg.coordinates(stack.reshape(2 * n + 1, -1))
        one, self.frame_jumps, self.frame_images = r[:, 0], r[:, 1:n + 1], r[:, n + 1:]
        shift = np.outer(one, [np.trace(j) / rep.dim for j in rep.jumps])
        self.jumps, self.jump_images = self.frame_jumps + shift, self.frame_images + shift

    @cached_property
    def effective_hamiltonian_image(self) -> np.ndarray:
        return self.sym.conjugate(self.rep.effective_hamiltonian)

    @property
    def overlaps(self) -> np.ndarray:
        """P[j, k] = <J_k, U J_j U†>."""
        return self.jump_images.T @ self.jumps.conj()


@dataclass
class ConditionResult:
    holds: bool
    hamiltonian_residual: float = 0.0
    mixing: np.ndarray | None = None
    mixing_residual: float = 0.0
    unitary: np.ndarray | None = None
    permutation: tuple | None = None
    phases: tuple | None = None
    residual: float = 0.0
    reason: str = ""

    def __bool__(self) -> bool:
        return self.holds


@dataclass
class SymmetryReport:
    symmetry_order: int | None
    condition_I: ConditionResult
    condition_II: ConditionResult
    condition_III: ConditionResult
    consistent: bool = True

    def verdicts(self) -> tuple:
        return (self.condition_I.holds, self.condition_II.holds,
                self.condition_III.holds)


def _rows(vectors) -> np.ndarray:
    """Operators (or their coordinates) as the rows of a matrix."""
    vectors = np.asarray(vectors, dtype=complex)
    return vectors.reshape(len(vectors), int(np.prod(vectors.shape[1:])))


def _span(jumps, targets) -> linalg.SpanMap:
    """The span map of raw operators, read from one QR of jumps and targets."""
    jumps, targets = _rows(jumps), _rows(targets)
    if len(jumps) != len(targets):
        raise linalg.ShapeError("need equally many jumps and targets")
    r = linalg.coordinates(np.concatenate([jumps, targets]))
    return linalg.SpanMap(r[:, :len(jumps)], r[:, len(jumps):])


def solve_mixing_matrix(jumps, targets, tol: float = DEFAULT_TOL):
    """Least-norm X with targets_j ~ sum_k X[j, k] jumps_k.

    The jump Gram matrix is cut at tol (the jumps at sqrt(tol)); returns
    (X, residual) with the residual relative to the target norms.
    """
    return _span(jumps, targets).solve(np.sqrt(tol))


def general_unitary_completion(jumps, targets, tol: float = DEFAULT_TOL):
    """Unitary U with targets_j = sum_k U[j, k] jumps_k, if one exists.

    Works on the span of the jumps: the map induced on the span must be
    unitary and compatible with the jump frame; the action on the
    orthogonal complement of the coefficient range is completed by the
    identity.  Raises CompletionFailed otherwise.
    """
    return _completion(_span(jumps, targets), tol)


def _completion(span: linalg.SpanMap, tol: float) -> np.ndarray:
    scale = max(np.max(np.linalg.norm(span.a, axis=0), initial=0.0), 1e-300)
    if span.escape(tol) > tol * scale:
        raise CompletionFailed("targets leave the jump span")
    u = span.certificate(tol)
    if u is None:
        raise CompletionFailed("induced map is not compatible with the jump frame")
    _verify_completion(u, span.a.T, span.b.T, tol)
    return u


def blockwise_unitary_completion(rep: Representation, sym: SymmetryOperator,
                                 partition: SjedPartition, pi_c):
    """Unitary certificate built through canonical SJED representations.

    Expresses the jumps through per-SJED canonical families, transports the
    symmetry blockwise along pi_c, and completes with the identity on the
    orthogonal complement.  The result U satisfies
    sum_k U[j, k] J_k = U J_j U† together with the SJED block-sum property:
    summing U*[j, k] U(J_j) over j in S_a reproduces J_k for
    k in S_{pi_c(a)} and zero otherwise.  A reset set's canonical jumps
    |dest><z| map to |U dest><U z| in O(d^2).  The tolerance is the one
    the partition was built with.
    """
    canon, isoms, offsets = partition.canonical
    tol = partition.tol
    u_sys, sizes, rows = sym.matrix, [iso.shape[1] for iso in isoms], _rows(canon)
    v = np.zeros((len(partition.jumps), len(canon)), dtype=complex)
    xt = np.zeros((len(canon),) * 2, dtype=complex)
    for a, (s, iso, b) in enumerate(zip(partition.sets, isoms, pi_c)):
        v[list(s.indices), offsets[a]:offsets[a] + sizes[a]] = iso
        if sizes[a] != sizes[b]:
            raise CompletionFailed("matched SJEDs have different canonical ranks")
        block = canon[offsets[a]:offsets[a] + sizes[a]]
        src = _rows([np.outer(u_sys @ s.destination, (u_sys @ (dag(c) @ s.destination)).conj())
                     for c in block] if s.kind == "reset" else [sym.conjugate(c) for c in block])
        tgt = rows[offsets[b]:offsets[b] + sizes[b]]
        x = (src @ dag(tgt)) / np.sum(np.abs(tgt) ** 2, axis=1)
        if np.any(np.linalg.norm(src - x @ tgt, axis=1)
                  > tol * np.maximum(np.linalg.norm(src, axis=1), 1e-300) * 100):
            raise CompletionFailed(
                "symmetry does not map canonical jumps onto the matched SJED")
        xt[offsets[a]:offsets[a] + sizes[a], offsets[b]:offsets[b] + sizes[b]] = x
    u = v @ xt @ dag(v) + (np.eye(len(v), dtype=complex) - v @ dag(v))
    images = sym.images(rep)
    _verify_completion(u, images.jumps.T, images.jump_images.T, tol)
    return u


def _verify_completion(u, jumps, targets, tol):
    d = len(jumps)
    if frob(dag(u) @ u - np.eye(d)) > 1e3 * tol * max(1.0, d):
        raise CompletionFailed("completed matrix is not unitary")
    scale = max(np.max(np.linalg.norm(jumps, axis=1), initial=0.0), 1e-300)
    if np.any(np.linalg.norm(targets - u @ jumps, axis=1) > 1e3 * tol * scale):
        raise CompletionFailed("completed matrix does not reproduce the targets")


def check_condition_I(rep: Representation, sym: SymmetryOperator,
                      tol: float = DEFAULT_TOL) -> ConditionResult:
    """Master-level symmetry: fixed traceless Hamiltonian plus unitary jump mixing."""
    images = sym.images(rep)
    h_resid = frob(images.frame_hamiltonian_image - images.frame_hamiltonian)
    if h_resid > tol * max(frob(images.frame_hamiltonian), 1.0):
        return ConditionResult(False, hamiltonian_residual=h_resid,
                               reason="traceless Hamiltonian not invariant")
    span = linalg.SpanMap(images.frame_jumps, images.frame_images)
    x, x_resid = span.solve(np.sqrt(tol))
    if x_resid > tol:
        return ConditionResult(False, hamiltonian_residual=h_resid,
                               mixing=x, mixing_residual=x_resid,
                               reason="transformed jumps leave the jump span")
    try:
        u = _completion(span, tol)
    except CompletionFailed as exc:
        return ConditionResult(False, hamiltonian_residual=h_resid,
                               mixing=x, mixing_residual=x_resid,
                               reason=f"no unitary completion: {exc}")
    return ConditionResult(True, hamiltonian_residual=h_resid,
                           mixing=x, mixing_residual=x_resid, unitary=u)


def transformed_choi(sym: SymmetryOperator, choi: np.ndarray) -> np.ndarray:
    """Choi matrix of the symmetry-conjugated superoperator."""
    w = sym.liouville()
    return w @ choi @ dag(w)


def check_condition_II(rep: Representation, sym: SymmetryOperator,
                       tol: float = DEFAULT_TOL,
                       partition: SjedPartition | None = None) -> ConditionResult:
    """Trajectory-level symmetry: fixed Hamiltonian, permuted SJED actions.

    A reset set's sources J_j† dest are carried by U in O(d^2); a
    proportional set's base and its image are compared in jump coordinates.
    """
    images, u = sym.images(rep), sym.matrix
    h_resid = images.hamiltonian_residual
    if h_resid > tol * max(frob(rep.hamiltonian), 1.0):
        return ConditionResult(False, hamiltonian_residual=h_resid,
                               reason="Hamiltonian not invariant")
    if partition is None:
        partition = build_sjeds(rep, tol)
    sigs, image_sigs = [], []
    for s in partition.sets:
        if s.kind == "reset":
            w = u @ np.column_stack([dag(partition.jumps[j]) @ s.destination
                                     for j in s.indices])
            sigs.append(("reset", s.destination, s.gamma))
            image_sigs.append(("reset", u @ s.destination, w @ dag(w)))
        else:
            k, c = s.indices[0], s.coefficients[0]
            weight = float(sum(abs(x) ** 2 for x in s.coefficients))
            sigs.append(("prop", images.jumps[:, k] / c, weight))
            image_sigs.append(("prop", images.jump_images[:, k] / c, weight))
    pi = match_signatures(sigs, image_sigs, max(tol * 100, 1e-8))
    if pi is None:
        return ConditionResult(False, hamiltonian_residual=h_resid,
                               reason="SJED actions admit no permuting bijection")
    resid = max((signature_distance(image_sigs[a], sigs[pi[a]])
                 for a in range(len(sigs))), default=0.0)
    return ConditionResult(True, hamiltonian_residual=h_resid,
                           permutation=pi, residual=float(resid))


def check_condition_III(rep: Representation, sym: SymmetryOperator,
                        tol: float = DEFAULT_TOL,
                        phase_tol: float = PHASE_TOL) -> ConditionResult:
    """Record-level symmetry: jumps permuted up to unit-modulus phases.

    U J_j U† = c J_k is allowed when the proportionality residual is
    within 100 tol and ||c| - 1| within phase_tol; the permutation is the
    allowed bijection with the least total ||c| - 1|, and the phases are
    arg c of the matched pairs; c = P[j, k] / ||J_k||^2.
    """
    images = sym.images(rep)
    h_resid = images.hamiltonian_residual
    if h_resid > tol * max(frob(rep.hamiltonian), 1.0):
        return ConditionResult(False, hamiltonian_residual=h_resid,
                               reason="Hamiltonian not invariant")
    a, b = images.jumps, images.jump_images
    coeff = images.overlaps / np.sum(np.abs(a) ** 2, axis=0)
    gaps = np.linalg.norm(b[:, :, None] - coeff * a[:, None, :], axis=0)
    scale = np.maximum(np.linalg.norm(b, axis=0), 1e-300)
    cost = np.where(gaps <= tol * scale[:, None] * 100,
                    np.abs(np.abs(coeff) - 1.0) / phase_tol, np.inf)
    pi = linalg.assign(cost, 1.0)
    if pi is None:
        return ConditionResult(False, hamiltonian_residual=h_resid,
                               reason="jumps admit no phase-permuting bijection")
    phases = tuple(float(np.angle(coeff[j, pi[j]])) for j in range(rep.njumps))
    return ConditionResult(True, hamiltonian_residual=h_resid,
                           permutation=pi, phases=phases)


def permutation_unitary(pi, phases=None) -> np.ndarray:
    """Matrix U[j, k] = exp(i phi_j) delta(pi[j], k)."""
    d = len(pi)
    u = np.zeros((d, d), dtype=complex)
    for j in range(d):
        ph = 1.0 if phases is None else np.exp(1j * phases[j])
        u[j, pi[j]] = ph
    return u


def _cycles(pi) -> list:
    """The cycles of a permutation, each walked in its direction."""
    seen = set()
    cycles = []
    for start in range(len(pi)):
        if start in seen:
            continue
        cyc = [start]
        seen.add(start)
        nxt = pi[start]
        while nxt != start:
            cyc.append(nxt)
            seen.add(nxt)
            nxt = pi[nxt]
        cycles.append(cyc)
    return cycles


def lift_II_to_III(rep: Representation, sym: SymmetryOperator,
                   partition: SjedPartition | None = None,
                   tol: float = DEFAULT_TOL):
    """Canonical-SJED representation whose jumps are permuted by the symmetry.

    The canonical bases are chosen consistently along each pi_c cycle:
    the reference SJED's canonical family is refined to diagonalize the
    cycle-closing power of the symmetry, then transported by conjugation.
    Returns (representation, groups) with groups the jump-index sets of
    the output corresponding to the input SJEDs.  Raises NotConditionII
    when the trajectory-level condition fails.
    """
    if partition is None:
        partition = build_sjeds(rep, tol)
    cond = check_condition_II(rep, sym, tol, partition)
    if not cond.holds:
        raise NotConditionII(cond.reason)
    pi_c = cond.permutation

    set_jumps: dict = {}
    for cyc in _cycles(pi_c):
        a0 = cyc[0]
        n = len(cyc)
        s = partition.sets[a0]
        if s.kind == "proportional":
            scale = np.sqrt(sum(abs(c) ** 2 for c in s.coefficients))
            ref = [scale * s.base]
        else:
            un = np.linalg.matrix_power(sym.matrix, n)
            w, vecs = gamma_modes(s.gamma, tol)
            # refine degenerate gamma eigenspaces so the cycle-closing
            # unitary acts diagonally on the canonical sources
            i = 0
            while i < len(w):
                j = i + 1
                while j < len(w) and abs(w[j] - w[i]) <= 1e-8 * max(w[0], 1.0):
                    j += 1
                if j - i > 1:
                    block = dag(vecs[:, i:j]) @ un @ vecs[:, i:j]
                    _, vb = linalg.unitary_eigendecomposition(block, 1e-7)
                    vecs[:, i:j] = vecs[:, i:j] @ vb
                i = j
            ref = [np.sqrt(w[i]) * np.outer(s.destination, vecs[:, i].conj())
                   for i in range(len(w))]
        set_jumps[a0] = ref
        prev = ref
        for a in cyc[1:]:
            prev = [sym.conjugate(j) for j in prev]
            set_jumps[a] = prev

    jumps = []
    groups = []
    for a in range(partition.nsets):
        start = len(jumps)
        jumps.extend(set_jumps[a])
        groups.append(tuple(range(start, len(jumps))))
    out = Representation(rep.hamiltonian, tuple(jumps))
    return out, tuple(groups)


def fourier_symmetrize(rep: Representation, sym: SymmetryOperator,
                       tol: float = DEFAULT_TOL,
                       phase_tol: float = PHASE_TOL) -> Representation:
    """Weakly symmetric representation by Fourier transforming jump cycles.

    Requires the record-level condition; each permutation cycle
    (J_{k_0} -> J_{k_1} -> ...) of length n is replaced by the waves
    hat-J_l = n^{-1/2} sum_m exp(-2 pi i l m / n) exp(i beta_m) J_{k_m},
    with beta_m the accumulated transformation phases, so that every
    output jump is an eigenoperator of the symmetry.  The accumulated
    phase around each cycle must close to a multiple of 2 pi.
    """
    cond = check_condition_III(rep, sym, tol, phase_tol)
    if not cond.holds:
        raise NotConditionIII(cond.reason)
    pi, phases = cond.permutation, cond.phases
    jumps = []
    for order in _cycles(pi):
        n = len(order)
        deltas = np.array([phases[k] for k in order])
        # gauge the accumulated phases so the cycle closes; the leftover
        # total/n appears as a common eigenvalue offset
        total = float(np.sum(deltas))
        betas = np.concatenate([[0.0], np.cumsum(deltas[:-1] - total / n)])
        for l in range(n):
            wave = sum(np.exp(-2j * np.pi * l * m / n) * np.exp(1j * betas[m])
                       * rep.jumps[order[m]] for m in range(n))
            jumps.append(wave / np.sqrt(n))
    out = Representation(rep.hamiltonian, tuple(jumps))
    for j in out.jumps:
        t = sym.conjugate(j)
        c = np.vdot(j.reshape(-1), t.reshape(-1)) / frob(j) ** 2
        if frob(t - c * j) > 1e-8 * frob(j) or abs(abs(c) - 1.0) > 1e-8:
            raise PhaseSumNotInteger("wave jumps failed the eigenoperator check")
    return out


def wave_operators(partition: SjedPartition, pi_c, tol: float = DEFAULT_TOL):
    """Choi matrices of the Fourier transforms of the composite actions.

    pi_c must be a single cycle; wave k satisfies the eigen-relation
    (U kron U*) C (U kron U*)† = exp(2 pi i k / d_c) C.
    """
    d_c = partition.nsets
    cycles = _cycles(pi_c)
    if len(cycles) != 1:
        raise NotSingleCycle(f"permutation has {len(cycles)} cycles")
    chois = [composite_choi(partition, a) for a in cycles[0]]
    waves = []
    for k in range(d_c):
        waves.append(sum(np.exp(-2j * np.pi * k * j / d_c) * chois[j]
                         for j in range(d_c)))
    return waves


def block_support(superop: np.ndarray, sym: SymmetryOperator,
                  tol: float = DEFAULT_TOL) -> dict:
    """Frobenius mass of a superoperator per symmetry block class.

    The matrix is rotated to the symmetry-adapted basis; row and column
    indices (i, j) carry the eigenphase difference delta = phi_i - phi_j,
    and entries are classed by Delta = delta_row - delta_col (mod 2 pi).
    """
    superop = np.asarray(superop, dtype=complex)
    d = sym.dim
    if superop.shape != (d * d, d * d):
        raise linalg.ShapeError("superoperator dimension mismatch")
    w = np.kron(sym.eigenbasis, sym.eigenbasis.conj())
    t = dag(w) @ superop @ w
    deltas = np.subtract.outer(sym.phases, sym.phases).reshape(-1)
    classes = np.mod(np.subtract.outer(deltas, deltas), 2 * np.pi)
    classes[np.abs(classes - 2 * np.pi) < 1e-9] = 0.0
    out: dict = {}
    keys = np.round(classes, 8)
    for key in np.unique(keys):
        mask = keys == key
        out[float(key)] = float(np.linalg.norm(t[mask]))
    return out


def off_block_mass(superop: np.ndarray, sym: SymmetryOperator) -> float:
    """Relative Frobenius mass outside the Delta = 0 blocks."""
    support = block_support(superop, sym)
    total_sq = sum(v ** 2 for v in support.values())
    if total_sq == 0.0:
        return 0.0
    off_sq = sum(v ** 2 for k, v in support.items() if abs(k) > 1e-7)
    return float(np.sqrt(off_sq / total_sq))


def monomial_eigenfunctions(sym: SymmetryOperator, order: int, eigenvalue,
                            phase_tol: float = 1e-7) -> list:
    """Index tuples of monomials in the adapted basis with a given eigenvalue.

    A tuple (i_1, ..., i_2n) (1-based) stands for the product of matrix
    elements psi[i_1, i_2] psi[i_3, i_4] ... of a pure state written in
    the symmetry eigenbasis; under psi -> U psi U† it picks up
    exp(i * sum_x (phi_odd - phi_even)).  Tuples are canonically ordered
    (pairs nondecreasing as two-digit numbers).
    """
    if order > 3:
        raise ValueError("monomial order capped at 3")
    d = sym.dim
    lam = complex(eigenvalue)
    pairs = [(i, j) for i in range(d) for j in range(d)]
    out = []

    def rec(chosen, start):
        if len(chosen) == order:
            phase = sum(sym.phases[i] - sym.phases[j] for i, j in chosen)
            if abs(np.exp(1j * phase) - lam) <= phase_tol * 10:
                flat = tuple(x + 1 for pair in chosen for x in pair)
                out.append(flat)
            return
        for idx in range(start, len(pairs)):
            rec(chosen + [pairs[idx]], idx)

    rec([], 0)
    return out


def evaluate_monomial(sym: SymmetryOperator, indices, psi) -> complex:
    """Evaluate a monomial tuple on a state (adapted-basis matrix elements)."""
    psi_adapted = dag(sym.eigenbasis) @ np.asarray(psi, dtype=complex) @ sym.eigenbasis
    val = 1.0 + 0.0j
    for x in range(0, len(indices), 2):
        val *= psi_adapted[indices[x] - 1, indices[x + 1] - 1]
    return val


def monomial_eigenvalue(sym: SymmetryOperator, indices) -> complex:
    phase = sum(sym.phases[indices[x] - 1] - sym.phases[indices[x + 1] - 1]
                for x in range(0, len(indices), 2))
    return complex(np.exp(1j * phase))


def check_linear_eigenfunction(rep: Representation, f,
                               tol: float = DEFAULT_TOL, rng=None):
    """Whether F is an eigenmatrix of the adjoint master operator.

    Returns (is_eigen, eigenvalue).  A least-squares eigenvalue is fitted
    and the dual pairing Tr[F L(psi)] = lambda Tr[F psi] is verified on
    20 random pure states.
    """
    f = np.asarray(f, dtype=complex)
    lf = apply_adjoint_master_operator(rep, f)
    lam = np.vdot(f.reshape(-1), lf.reshape(-1)) / np.vdot(f.reshape(-1), f.reshape(-1))
    resid = frob(lf - lam * f) / max(frob(lf), frob(f))
    if resid > tol * 100:
        return False, complex(lam)
    if rng is None:
        rng = np.random.default_rng(2024)
    d = rep.dim
    for _ in range(20):
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        v /= np.linalg.norm(v)
        psi = np.outer(v, v.conj())
        lhs = np.trace(f @ apply_master_operator(rep, psi))
        rhs = lam * np.trace(f @ psi)
        if abs(lhs - rhs) > 1e-10 * max(1.0, abs(lam)):
            return False, complex(lam)
    return True, complex(lam)


def build_symmetry_report(rep: Representation, sym: SymmetryOperator,
                          tol: float = DEFAULT_TOL,
                          partition: SjedPartition | None = None) -> SymmetryReport:
    """Run all three condition checks and enforce the hierarchy."""
    c1 = check_condition_I(rep, sym, tol)
    c2 = check_condition_II(rep, sym, tol, partition)
    c3 = check_condition_III(rep, sym, tol)
    consistent = (not c3.holds or c2.holds) and (not c2.holds or c1.holds)
    return SymmetryReport(sym.order, c1, c2, c3, consistent)


__all__ = [
    "CompletionFailed",
    "ConditionResult",
    "NotConditionII",
    "NotConditionIII",
    "NotSingleCycle",
    "PhaseSumNotInteger",
    "SymmetryImages",
    "SymmetryOperator",
    "SymmetryReport",
    "block_support",
    "blockwise_unitary_completion",
    "build_symmetry_report",
    "check_condition_I",
    "check_condition_II",
    "check_condition_III",
    "check_linear_eigenfunction",
    "evaluate_monomial",
    "fourier_symmetrize",
    "general_unitary_completion",
    "lift_II_to_III",
    "monomial_eigenfunctions",
    "monomial_eigenvalue",
    "off_block_mass",
    "permutation_unitary",
    "solve_mixing_matrix",
    "transformed_choi",
    "wave_operators",
]
