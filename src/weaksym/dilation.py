"""One-time-bin realization of the joint system-environment dynamics.

The environment is a single bin with basis {vac, 1, .., d}; creation of a
type-j quantum is sqrt(dt) |j><vac|, which reproduces the quantum-noise
increment table exactly on the vacuum sector.  The module builds the
joint unitary step, its rotating-frame form, and the fully dephased,
partially dephased, and coarse-grained generator steps from system-size
operators only.  Symmetry residuals of every step kind read the
symmetry's images (`SymmetryOperator.images` of the step's
representation) and take a jump-space unitary u, which acts on the bin
through the vacuum-fixing Gamma(u): |j> -> sum_k conj(u[j, k]) |k>, so
that conjugation sends dB_j to sum_k u[j, k] dB_k.  They are exact in dt,
have no size cap and take each difference before its norm, so no
sqrt(eps) cancellation floor; environment_certificates gives the u a
symmetry report certifies for each step kind.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .lindblad import Representation, apply_master_operator, generator_matrix
from .linalg import DEFAULT_TOL, ShapeError, dag, frob
from .sjed import SjedPartition
from .symmetry import (
    CompletionFailed,
    SymmetryImages,
    SymmetryOperator,
    SymmetryReport,
    permutation_unitary,
)


@dataclass(frozen=True)
class TimeBin:
    """Single environment bin for d quanta types."""

    ntypes: int

    @property
    def dim(self) -> int:
        return self.ntypes + 1

    def creation(self, j: int) -> np.ndarray:
        """Unit-normalized creation operator |j><vac| (the sqrt-dt factor
        is carried by the step that uses it)."""
        out = np.zeros((self.dim, self.dim), dtype=complex)
        out[j + 1, 0] = 1.0
        return out

    def vacuum_projector(self) -> np.ndarray:
        out = np.zeros((self.dim, self.dim), dtype=complex)
        out[0, 0] = 1.0
        return out


@dataclass(frozen=True)
class JointSuperStep:
    """One bin-step of the joint dynamics, held as system-size operators.

    b_m = TimeBin(bin_dim - 1).creation(m) = |m+1><vac| creates a quantum
    in bin mode m, and jump j emits into mode modes[j].  kind "unitary":
    the joint Hamiltonian is H x 1 dt + i sum_j (J_j x b_{modes[j]} - h.c.)
    sqrt(dt), H the system_hamiltonian.  Generator kinds ("dephased" | "partial" |
    "coarse"): the coefficient of dt is the superoperator (row stacking)
    D + K with D = A x 1 + 1 x A*, A = -i H_eff x 1, H_eff the
    system_hamiltonian, and K = sum_g k_g x k_g*, the joint jumps
    k_g = sum_{j: groups[j] = g} J_j x b_{modes[j]} (generator_matrix(A, k_g)).
    Joint operators are built only on request."""

    kind: str
    system_hamiltonian: np.ndarray
    jumps: tuple
    modes: np.ndarray
    groups: np.ndarray
    bin_dim: int

    @property
    def system_dim(self) -> int:
        return self.system_hamiltonian.shape[0]

    @property
    def joint_dim(self) -> int:
        return self.system_dim * self.bin_dim

    @property
    def ham_dt(self) -> np.ndarray:
        return np.kron(linalg.dense(self.system_hamiltonian, "the joint Hamiltonian"),
                       np.eye(self.bin_dim))

    @property
    def ham_sqrt(self) -> np.ndarray:
        out = np.zeros((self.joint_dim,) * 2, dtype=complex)
        bin_ = TimeBin(self.bin_dim - 1)
        for jm, m in zip(map(linalg.dense, self.jumps), self.modes):
            b = bin_.creation(m)
            out += 1j * (np.kron(jm, b) - np.kron(dag(jm), dag(b)))
        return out

    def hamiltonian(self, dt: float) -> np.ndarray:
        if self.kind != "unitary":
            raise ValueError("only unitary steps expose a Hamiltonian")
        return self.ham_dt * dt + self.ham_sqrt * np.sqrt(dt)

    def generator(self) -> np.ndarray:
        if self.kind == "unitary":
            raise ValueError("unitary steps have no generator matrix")
        bin_ = TimeBin(self.bin_dim - 1)
        k = [sum(np.kron(linalg.dense(jm), bin_.creation(m)) for jm, m, h in
                 zip(self.jumps, self.modes, self.groups) if h == g)
             for g in sorted(set(self.groups))]
        return generator_matrix(-1j * self.ham_dt, k)

    def apply(self, joint_state: np.ndarray, dt: float) -> np.ndarray:
        """Propagate a joint density matrix through one bin of length dt."""
        if self.kind == "unitary":
            u = linalg.matrix_exponential(-1j * self.hamiltonian(dt))
            return u @ joint_state @ dag(u)
        prop = linalg.matrix_exponential(dt * self.generator())
        return (prop @ joint_state.reshape(-1)).reshape(joint_state.shape)


def _step(kind, hamiltonian, jumps, modes=None, groups=None) -> JointSuperStep:
    """Jump j emits into bin mode modes[j] and belongs to joint jump
    groups[j]; both default to j.  The operators are held as the
    representation holds them: the residuals read a CSR Hamiltonian as it
    is, and the joint matrices (`hamiltonian`, `generator`) are formed
    dense on request.  A step holds no dt: dt enters only through
    `hamiltonian(dt)` and `apply`."""
    modes, groups = (np.arange(len(jumps)) if x is None else np.asarray(x)
                     for x in (modes, groups))
    return JointSuperStep(kind, hamiltonian, tuple(jumps), modes, groups,
                          int(modes.max(initial=-1)) + 2)


def stochastic_hamiltonian_step(rep: Representation) -> JointSuperStep:
    """Joint Hamiltonian step H x 1 dt + i sum_j (J_j x dB_j† - h.c.)."""
    return _step("unitary", rep.hamiltonian, rep.jumps)


def rotating_frame_step(rep: Representation) -> JointSuperStep:
    """Stochastic Hamiltonian of the traceless jumps (zero ones included)."""
    return _step("unitary", *rep.traceless)


def displacement_step(rep: Representation, dt: float) -> np.ndarray:
    """Bin unitary removing the coherent part of traceful jumps.

    D = exp(-i dQ) with dQ = (i/d) sum_j [dB_j Tr(J_j†) - dB_j† Tr(J_j)]
    realized on the bin.
    """
    tr = rep.jump_traces
    c = (1j / rep.dim) * np.sqrt(dt)
    dq = np.zeros((rep.njumps + 1,) * 2, dtype=complex)
    dq[0, 1:], dq[1:, 0] = c * np.conj(tr), -c * tr    # dB_j† and dB_j parts
    return linalg.matrix_exponential(-1j * dq)


# largest frame residual that is expm's rounding: the residuals are
# absolute differences of joint unitaries (norm sqrt(joint dim)), rounding
# leaves them below 1e-14 on traceless jumps, and no tol reaches this
# diagnostic, which fits a slope rather than deciding a symmetry
_FRAME_ALIGNED = 1e-13


def rotating_frame_convergence(rep: Representation, dt_list) -> float:
    """Measured order of the frame-change residual.

    Compares the displaced bare step D exp(-i dH) against the
    traceless-frame step exp(-i dH') on vacuum-sector inputs, where the
    one-bin realization of the increment algebra is exact; the commutator
    remainder then scales as dt^(3/2) and the fitted log-log slope is
    expected near 1.5.  (Without the vacuum restriction the one-photon
    sector contributes a spurious first-order term.)
    """
    dts = np.asarray(sorted(dt_list, reverse=True), dtype=float)
    if len(dts) < 2:
        raise ValueError("need at least two bin lengths")
    bare = stochastic_hamiltonian_step(rep)
    frame = rotating_frame_step(rep)
    eye_s = np.eye(rep.dim, dtype=complex)
    pvac = np.kron(eye_s, TimeBin(rep.njumps).vacuum_projector())
    resid = []
    for dt in dts:
        u_bare = linalg.matrix_exponential(-1j * bare.hamiltonian(dt))
        u_frame = linalg.matrix_exponential(-1j * frame.hamiltonian(dt))
        d_lift = np.kron(eye_s, displacement_step(rep, dt))
        resid.append(frob((d_lift @ u_bare - u_frame) @ pvac))
    if np.max(resid) < _FRAME_ALIGNED:
        return np.inf  # already frame-aligned, nothing to measure
    return float(np.polyfit(np.log(dts), np.log(np.asarray(resid) + 1e-300), 1)[0])


def dephased_generator_step(rep: Representation) -> JointSuperStep:
    """Counting-measurement generator: separable joint jumps J_j x dB_j†."""
    return _step("dephased", rep.effective_hamiltonian, rep.jumps)


def partially_dephased_generator_step(rep: Representation,
                                      partition: SjedPartition) -> JointSuperStep:
    """Partial-measurement generator: one joint jump per SJED."""
    return _step("partial", rep.effective_hamiltonian, partition.jumps,
                 groups=partition.coarse_labels())


def coarse_grained_generator_step(rep: Representation,
                                  partition: SjedPartition) -> JointSuperStep:
    """Erasure generator: quanta labelled by SJED on a (d_c + 1)-dim bin."""
    return _step("coarse", rep.effective_hamiltonian, partition.jumps,
                 modes=partition.coarse_labels())


def partial_trace_environment(joint_state: np.ndarray, system_dim: int,
                              bin_dim: int) -> np.ndarray:
    r = joint_state.reshape(system_dim, bin_dim, system_dim, bin_dim)
    return np.einsum("abcb->ac", r)


def environment_trace_slope(step: JointSuperStep, rep: Representation, psi0,
                            dt_list) -> float:
    """Richardson slope of || Tr_E step(psi x vac) - psi - L(psi) dt ||
    over the bin lengths dt_list."""
    psi0 = np.asarray(psi0, dtype=complex)
    lpsi = apply_master_operator(rep, psi0)
    start = np.kron(psi0, TimeBin(step.bin_dim - 1).vacuum_projector())
    errs = []
    dts = np.asarray(sorted(dt_list, reverse=True), dtype=float)
    for dt in dts:
        out = step.apply(start, dt)
        reduced = partial_trace_environment(out, step.system_dim, step.bin_dim)
        errs.append(frob(reduced - psi0 - dt * lpsi))
    return float(np.polyfit(np.log(dts), np.log(np.asarray(errs) + 1e-300), 1)[0])


def environment_certificates(report: SymmetryReport) -> dict:
    """Step kind -> the u with U x Gamma(u) a certified symmetry of that
    step: dephased <- condition III's phased permutation, partial <-
    condition II's block unitary, coarse <- pi_c, rotating_frame <- the
    block unitary or else condition I's completion, read (and so formed)
    only where the block unitary is missing; kinds left uncertified (a
    failed condition or block completion) are left out."""
    c1, c2, c3 = report.condition_I, report.condition_II, report.condition_III
    out = {}
    if c3.holds:
        out["dephased"] = permutation_unitary(c3.permutation, c3.phases)
    if c2.holds:     # c2.unitary is None when its completion failed
        out.update(partial=c2.unitary, coarse=permutation_unitary(c2.permutation),
                   rotating_frame=c2.unitary)
    if c1.holds and out.get("rotating_frame") is None:
        out["rotating_frame"] = c1.unitary
    return {kind: u for kind, u in out.items() if u is not None}


def _check_images(step: JointSuperStep, images: SymmetryImages) -> bool:
    """Whether a unitary step is of the traceless frame; the step must hold
    images.rep's own H (H', H_eff) and jumps (traceless jumps)."""
    rep = images.rep
    if images.sym.dim != step.system_dim:
        raise ShapeError("symmetry operator dimensions do not match the step")
    frames = [(rep.hamiltonian, rep.jumps), rep.traceless] if step.kind == "unitary" \
        else [(rep.effective_hamiltonian, rep.jumps)]
    for frame, (h, jumps) in enumerate(frames):
        if step.system_hamiltonian is h and step.jumps is jumps:
            return frame == 1
    raise ValueError("the images are of another representation's operators")


def joint_symmetry_residual(step: JointSuperStep, images: SymmetryImages,
                            u: np.ndarray) -> float:
    """Relative residual of the joint symmetry W = U x Gamma(u) on the
    step's coefficients, exact in dt, read from the images.

    images is sym.images(rep) for the representation the step was built
    from; u acts on the step's n_modes = bin_dim - 1 bin modes, and Gamma(u),
    never formed, fixes the vacuum and sends b_m to sum_k conj(u[m, k])
    b_k.  Unitary steps compare W H W† with the joint Hamiltonian,
    generator steps M Λ M† with Λ, M = W x W*.  sum_t X_t x B_t
    has the norm of sum_t c_t vec(B_t)^T, c_t the coordinates of X_t in an
    orthonormal basis.  On unitary steps (mode j = jump j) the 1, b_j and
    b_j† parts are orthogonal, so with A, B the coordinates of the step's
    jumps and of their images (bare or traceless frame) and E = bin_dim,
    residual^2 = (E ||U H U† - H||^2 + 2 ||B conj(u) - A||^2) /
    (E ||H||^2 + 2 ||A||^2).  On generator steps D and K stay orthogonal
    (every k_g is traceless); with N the joint dimension and H_0 = H_eff -
    tr(H_eff)/d, ||D||^2 = 2 N E ||H_0||^2 + 4 E^2 Im(tr H_eff)^2 and
    ||MDM† - D||^2 = 2 N E ||U H_eff U† - H_eff||^2.  K realigned is
    sum_g |k_g>><<k_g|, so ||MKM† - K|| = ||ÂÂ† - B̂B̂†|| for the
    coordinates Â, B̂ of the k_g and of their images, read off a thin QR
    of [Â B̂], bin mode m standing for row m of the identity in k_g and
    for row m of conj(u) in its image: k_g sums its jumps' coordinates at
    their modes, its image the images' ones, then times conj(u).
    """
    u = np.asarray(u, dtype=complex)
    frame = _check_images(step, images)
    e, n_modes = step.bin_dim, step.bin_dim - 1
    if u.shape != (n_modes, n_modes):
        raise ShapeError("environment unitary does not match the step's bin modes")
    h = step.system_hamiltonian
    if step.kind == "unitary":
        h_image, a, b = ((images.frame_hamiltonian_image, images.frame_jumps,
                          images.frame_images) if frame else
                         (images.hamiltonian_image, images.jumps, images.jump_images))
        b = b @ u.conj()
        num = e * linalg.distance(h_image, h) ** 2 + 2 * frob(b - a) ** 2
        den = e * frob(h) ** 2 + 2 * frob(a) ** 2
        return float(np.sqrt(num / max(den, 1e-300)))
    n_joint, trace = step.joint_dim, np.trace(h)
    h0 = linalg.remove_trace(h.copy())
    num = 2 * n_joint * e * frob(images.effective_hamiltonian_image - h) ** 2
    den = 2 * n_joint * e * frob(h0) ** 2 + 4 * e ** 2 * trace.imag ** 2
    if step.jumps:
        g = step.groups.max() + 1
        stack = np.zeros((2, g, len(images.jumps), n_modes), dtype=complex)
        for part, coords in zip(stack, (images.jumps, images.jump_images)):
            np.add.at(part, (step.groups, slice(None), step.modes), coords.T)
        stack[1] = stack[1] @ u.conj()
        r = linalg.coordinates(stack.reshape(2 * g, -1))
        gap, k_norm, _ = linalg.frame_gap(r[:, :g], r[:, g:])
        num += gap ** 2
        den += k_norm ** 2
    return float(np.sqrt(num / max(den, 1e-300)))


_ASCENT_RTOL = 1e-12      # partial-step ascent stops below this relative gain
_ASCENT_MAX_ITER = 500


def minimum_symmetry_residual(step: JointSuperStep, images: SymmetryImages,
                              partition: SjedPartition) -> float:
    """Joint residual at the jump-space unitary u found to minimize it
    (images as in joint_symmetry_residual).

    Drift and jump superoperators stay Frobenius orthogonal under every u,
    so only the jump overlap depends on u, through P[j, k] = <J_k, U J_j U†>:
    it is sum |P|^2 |u|^2 on dephased steps, the same weights summed over
    SJED pairs on coarse steps, and f(u) = sum_ab |c_ab|^2 on partial steps,
    c_ab = sum_{j in a, k in b} conj(u[j, k]) P[j, k].  |u|^2 is doubly
    stochastic, so one assignment gives the exact minimum of the first two
    (Birkhoff).  f is convex; the partial step starts from the polar factor
    of the SJED blocks of P an assignment on their squared nuclear norms
    picks, then ascends by u <- polar(conj(c_ab) P[j, k]), which never
    lowers f.  That gives an upper bound, 0 whenever condition II holds.
    """
    if step.kind == "unitary":
        raise ValueError("unitary steps have no minimum residual")
    _check_images(step, images)
    p = images.overlaps
    member = partition.membership
    if step.kind == "dephased":
        u = permutation_unitary(linalg.assign(-np.abs(p) ** 2, np.inf))
    elif step.kind == "coarse":
        u = permutation_unitary(
            linalg.assign(-member.T @ np.abs(p) ** 2 @ member, np.inf))
    else:
        nuclear = np.array([[np.linalg.norm(p[np.ix_(a.indices, b.indices)], "nuc")
                             for b in partition.sets] for a in partition.sets])
        pairs = permutation_unitary(linalg.assign(-nuclear ** 2, np.inf)).real
        u, f = _polar(member @ pairs @ member.T * p), -1.0
        for _ in range(_ASCENT_MAX_ITER):
            c = member.T @ (u.conj() * p) @ member
            f_next = np.sum(np.abs(c) ** 2)
            if f_next <= f * (1.0 + _ASCENT_RTOL):
                break
            best, f = u, f_next
            u = _polar(member @ c.conj() @ member.T * p)
        u = best
    return joint_symmetry_residual(step, images, u)


def _polar(a: np.ndarray) -> np.ndarray:
    w, _, vh = np.linalg.svd(a)
    return w @ vh


def change_of_basis_symmetry(rep_b: Representation, v: np.ndarray,
                             u_matrix_a: np.ndarray, sym: SymmetryOperator,
                             tol: float = DEFAULT_TOL):
    """Transport an environment certificate to another representation.

    v is the isometry relating the traceless jumps (rows index rep_b's
    jumps).  The transported matrix is V U V† + (1 - V V†), the identity
    off v's range (rep_b's jump kernel when v is tall), and must certify
    the images of rep_b's traceless jumps (linalg.SpanMap.accept), else
    CompletionFailed.  Returns (u_matrix_b, residual) with the residual of
    rep_b's rotating-frame step under (system unitary, transported
    environment unitary).
    """
    v = np.asarray(v, dtype=complex)
    u_b = v @ np.asarray(u_matrix_a, dtype=complex) @ dag(v) + np.eye(len(v)) - v @ dag(v)
    images = sym.images(rep_b)
    if linalg.SpanMap(images.frame_jumps, images.frame_images, tol).accept(u_b) is None:
        raise CompletionFailed("transported matrix does not certify the jump images")
    resid = joint_symmetry_residual(rotating_frame_step(rep_b), images, u_b)
    return u_b, float(resid)


__all__ = [
    "JointSuperStep",
    "TimeBin",
    "change_of_basis_symmetry",
    "coarse_grained_generator_step",
    "dephased_generator_step",
    "displacement_step",
    "environment_certificates",
    "environment_trace_slope",
    "joint_symmetry_residual",
    "minimum_symmetry_residual",
    "partial_trace_environment",
    "partially_dephased_generator_step",
    "rotating_frame_convergence",
    "rotating_frame_step",
    "stochastic_hamiltonian_step",
]
