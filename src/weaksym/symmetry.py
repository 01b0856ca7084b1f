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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .lindblad import (
    Representation,
    _traceless_parts,
    apply_adjoint_master_operator,
    apply_master_operator,
    frame_isometry,
)
from .linalg import DEFAULT_TOL, dag, frob
from .sjed import (
    SjedPartition,
    build_sjeds,
    canonical_sets_with_isometries,
    composite_choi,
    composite_signature,
    gamma_modes,
    match_signatures,
    signature_conjugate,
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

    @classmethod
    def from_matrix(cls, u, tol: float = DEFAULT_TOL, order_cap: int = 64):
        u = np.asarray(u, dtype=complex)
        phases, basis = linalg.unitary_eigendecomposition(u, tol)
        order = None
        d = u.shape[0]
        p = np.eye(d, dtype=complex)
        for n in range(1, order_cap + 1):
            p = p @ u
            tr = np.trace(p) / d
            if abs(abs(tr) - 1.0) < 1e-9:
                theta = tr / abs(tr)
                if frob(p - theta * np.eye(d)) < 1e-9 * np.sqrt(d):
                    order = n
                    break
        return cls(u, phases, basis, order)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def conjugate(self, a) -> np.ndarray:
        """U A U† for an operator on the system."""
        return self.matrix @ np.asarray(a, dtype=complex) @ dag(self.matrix)

    def liouville(self) -> np.ndarray:
        """Row-stacking matrix of the conjugation superoperator: U kron U*."""
        return np.kron(self.matrix, self.matrix.conj())


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


def solve_mixing_matrix(jumps, targets, tol: float = DEFAULT_TOL):
    """Least-norm X with targets_j ~ sum_k X[j, k] jumps_k.

    Solved through the pseudo-inverse of the jump Gram matrix; returns
    (X, residual) with the residual relative to the target norms.
    """
    jumps = [np.asarray(j, dtype=complex) for j in jumps]
    targets = [np.asarray(t, dtype=complex) for t in targets]
    if len(jumps) != len(targets):
        raise linalg.ShapeError("need equally many jumps and targets")
    d = len(jumps)
    gram = np.array([[np.vdot(jk, jm) for jm in jumps] for jk in jumps])
    gpinv = np.linalg.pinv(gram, rcond=tol, hermitian=True)
    b = np.array([[np.vdot(jm, tj) for jm in jumps] for tj in targets])
    x = b @ gpinv.T
    resid_sq = 0.0
    scale_sq = 0.0
    for j, t in enumerate(targets):
        mix = sum(x[j, k] * jumps[k] for k in range(d))
        resid_sq += frob(t - mix) ** 2
        scale_sq += frob(t) ** 2
    residual = np.sqrt(resid_sq) / max(np.sqrt(scale_sq), 1e-300)
    return x, float(residual)


def general_unitary_completion(jumps, targets, tol: float = DEFAULT_TOL):
    """Unitary U with targets_j = sum_k U[j, k] jumps_k, if one exists.

    Works on the span of the jumps: the map induced on the span must be
    unitary and compatible with the jump frame; the action on the
    orthogonal complement of the coefficient range is completed by the
    identity.  Raises CompletionFailed otherwise.
    """
    jumps = [np.asarray(j, dtype=complex) for j in jumps]
    targets = [np.asarray(t, dtype=complex) for t in targets]
    d = len(jumps)
    q, qb, escape = frame_isometry(jumps, targets, tol)
    if escape > tol * max(max(frob(j) for j in jumps), 1e-300):
        raise CompletionFailed("targets leave the jump span")
    if qb is None:
        raise CompletionFailed("induced map is not compatible with the jump frame")
    u = qb @ dag(q) + (np.eye(d, dtype=complex) - q @ dag(q))
    _verify_completion(u, jumps, targets, tol)
    return u


def blockwise_unitary_completion(rep: Representation, sym: SymmetryOperator,
                                 partition: SjedPartition, pi_c,
                                 tol: float = DEFAULT_TOL):
    """Unitary certificate built through canonical SJED representations.

    Expresses the jumps through per-SJED canonical families, transports the
    symmetry blockwise along pi_c, and completes with the identity on the
    orthogonal complement.  The result U satisfies
    sum_k U[j, k] J_k = U J_j U† together with the SJED block-sum property:
    summing U*[j, k] U(J_j) over j in S_a reproduces J_k for
    k in S_{pi_c(a)} and zero otherwise.
    """
    canon, isoms, offsets = canonical_sets_with_isometries(partition, tol)
    d = len(partition.jumps)
    dd = len(canon)
    v = np.zeros((d, dd), dtype=complex)
    for a, s in enumerate(partition.sets):
        for row, j in enumerate(s.indices):
            v[j, offsets[a]:offsets[a] + isoms[a].shape[1]] = isoms[a][row]
    sizes = [isoms[a].shape[1] for a in range(len(partition.sets))]
    xt = np.zeros((dd, dd), dtype=complex)
    for a in range(len(partition.sets)):
        b = pi_c[a]
        if sizes[a] != sizes[b]:
            raise CompletionFailed("matched SJEDs have different canonical ranks")
        for i in range(sizes[a]):
            src = sym.conjugate(canon[offsets[a] + i]).reshape(-1)
            for j in range(sizes[b]):
                tgt = canon[offsets[b] + j].reshape(-1)
                xt[offsets[a] + i, offsets[b] + j] = np.vdot(tgt, src) / np.vdot(tgt, tgt)
            mix = sum(xt[offsets[a] + i, offsets[b] + j] * canon[offsets[b] + j].reshape(-1)
                      for j in range(sizes[b]))
            if np.linalg.norm(src - mix) > tol * max(np.linalg.norm(src), 1e-300) * 100:
                raise CompletionFailed(
                    "symmetry does not map canonical jumps onto the matched SJED")
    u = v @ xt @ dag(v) + (np.eye(d, dtype=complex) - v @ dag(v))
    targets = [sym.conjugate(j) for j in partition.jumps]
    _verify_completion(u, partition.jumps, targets, tol)
    return u


def _verify_completion(u, jumps, targets, tol):
    d = len(jumps)
    if frob(dag(u) @ u - np.eye(d)) > 1e3 * tol * max(1.0, d):
        raise CompletionFailed("completed matrix is not unitary")
    scale = max(max(frob(j) for j in jumps), 1e-300)
    for j, t in enumerate(targets):
        mix = sum(u[j, k] * jumps[k] for k in range(d))
        if frob(t - mix) > 1e3 * tol * scale:
            raise CompletionFailed("completed matrix does not reproduce the targets")


def check_condition_I(rep: Representation, sym: SymmetryOperator,
                      tol: float = DEFAULT_TOL) -> ConditionResult:
    """Master-level symmetry: fixed traceless Hamiltonian plus unitary jump mixing."""
    hp, jumps = _traceless_parts(rep)
    h_resid = frob(sym.conjugate(hp) - hp)
    h_scale = max(frob(hp), 1.0)
    if h_resid > tol * h_scale:
        return ConditionResult(False, hamiltonian_residual=h_resid,
                               reason="traceless Hamiltonian not invariant")
    if not jumps:
        return ConditionResult(True, hamiltonian_residual=h_resid,
                               mixing=np.zeros((0, 0)), unitary=np.zeros((0, 0)))
    targets = [sym.conjugate(j) for j in jumps]
    x, x_resid = solve_mixing_matrix(jumps, targets, tol)
    if x_resid > tol:
        return ConditionResult(False, hamiltonian_residual=h_resid,
                               mixing=x, mixing_residual=x_resid,
                               reason="transformed jumps leave the jump span")
    try:
        u = general_unitary_completion(jumps, targets, tol)
    except CompletionFailed as exc:
        return ConditionResult(False, hamiltonian_residual=h_resid,
                               mixing=x, mixing_residual=x_resid,
                               reason=f"no unitary completion: {exc}")
    return ConditionResult(True, hamiltonian_residual=h_resid,
                           mixing=x, mixing_residual=x_resid, unitary=u)


def transformed_choi(sym: SymmetryOperator, choi: np.ndarray) -> np.ndarray:
    """Choi matrix of the symmetry-conjugated superoperator."""
    w = np.kron(sym.matrix, sym.matrix.conj())
    return w @ choi @ dag(w)


def check_condition_II(rep: Representation, sym: SymmetryOperator,
                       tol: float = DEFAULT_TOL,
                       partition: SjedPartition | None = None) -> ConditionResult:
    """Trajectory-level symmetry: fixed Hamiltonian, permuted SJED actions."""
    h = rep.hamiltonian
    h_resid = frob(sym.conjugate(h) - h)
    if h_resid > tol * max(frob(h), 1.0):
        return ConditionResult(False, hamiltonian_residual=h_resid,
                               reason="Hamiltonian not invariant")
    if partition is None:
        partition = build_sjeds(rep, tol)
    sigs = [composite_signature(partition, a) for a in range(partition.nsets)]
    images = [signature_conjugate(sym.matrix, sa) for sa in sigs]
    pi = match_signatures(sigs, images, max(tol * 100, 1e-8))
    if pi is None:
        return ConditionResult(False, hamiltonian_residual=h_resid,
                               reason="SJED actions admit no permuting bijection")
    resid = max((signature_distance(images[a], sigs[pi[a]])
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
    arg c of the matched pairs.
    """
    h = rep.hamiltonian
    h_resid = frob(sym.conjugate(h) - h)
    if h_resid > tol * max(frob(h), 1.0):
        return ConditionResult(False, hamiltonian_residual=h_resid,
                               reason="Hamiltonian not invariant")
    d = rep.njumps
    coeff = np.zeros((d, d), dtype=complex)
    cost = np.full((d, d), np.inf)
    for j in range(d):
        target = sym.conjugate(rep.jumps[j])
        for k, jump in enumerate(rep.jumps):
            c = np.vdot(jump.reshape(-1), target.reshape(-1)) / frob(jump) ** 2
            if frob(target - c * jump) <= tol * max(frob(target), 1e-300) * 100:
                coeff[j, k] = c
                cost[j, k] = abs(abs(c) - 1.0) / phase_tol
    pi = linalg.assign(cost, 1.0)
    if pi is None:
        return ConditionResult(False, hamiltonian_residual=h_resid,
                               reason="jumps admit no phase-permuting bijection")
    phases = tuple(float(np.angle(coeff[j, pi[j]])) for j in range(d))
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
    for cyc in _cycles(pi):
        # walk the cycle in the direction of the permutation
        order = [cyc[0]]
        while len(order) < len(cyc):
            order.append(pi[order[-1]])
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
    order = [0]
    while len(order) < d_c:
        order.append(pi_c[order[-1]])
    chois = [composite_choi(partition, a) for a in order]
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
