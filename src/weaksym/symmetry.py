"""Symmetry condition checks and certificates.

Three increasingly restrictive conditions relate a unitary symmetry of
the master operator to the representation, each deciding on one
scale-free distance, kept as its `residual`:

* condition I (master level): lindblad.master_gaps, of the traceless
  Hamiltonian and of the traceless jumps' frame;
* condition II (trajectory level): the Hamiltonian's gap and the SJED
  matching gap of the composite actions (sjed.match_sets);
* condition III (record level): the gap of the jumps permuted up to phases.

A distance includes the distance of the level below, which must hold, so
III => II => I on every input.  A condition holds when its distance is at
most tau(tol) = linalg.threshold(tol) = max(tol, linalg.ROUNDING_FLOOR),
the one threshold every decision reads; the floor keeps rounding from
deciding.  A SymmetryReport decides each condition on its first read.
Deciding finds the permutations and phases; the other certificates
(mixing matrix, unitaries) are formed on their first read
(ConditionResult), and a failed one is None, with the reason.  One rule,
linalg.SpanMap.accept, accepts every unitary on jump space (condition
I's completion, the SJED block unitary, `fourier_symmetrize`'s
eigenvalues): U†U within tau max(1, sqrt(n)) of 1 (linalg.check_unitary)
and each target reproduced within tau times its own norm; ranks are cut
at singular values above tau times the largest (linalg.rank).  All checks
read the symmetry's images (`SymmetryOperator.images`).  Phases of U are
equal by linalg.phase_classes at the symmetry's tol, and the group order
takes U^n = theta 1 when U^n's eigenphases form one such class.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse

from . import linalg, sjed
from .lindblad import (
    Representation,
    apply_adjoint_master_operator,
    apply_master_operator,
    change_superoperator_basis,
    master_gaps,
)
from .linalg import DEFAULT_TOL, dag, frob, threshold
from .sjed import SjedPartition, build_sjeds, composite_choi, match_sets


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


# the largest group order tried: n with U^n = theta 1 by the phase rule
_MAX_ORDER = 64


def _radius_at_most(power, theta: complex, bound: float) -> bool:
    """Whether the spectral radius r of N = P - theta 1, P a unitary in its
    working form (linalg.working), is at most bound, by Gelfand's formula
    on N^k, k = 1, 2, 4, ..., 64 (each N^k is normal): max |diag N^k| <=
    r^k <= sqrt(||N^k||_1 ||N^k||_inf), the diagonal lying in the convex
    hull of the eigenvalues, the norms the largest absolute column and row
    sums.  No when still undecided at k = 64, that is when r is within a
    factor d^(1/128) above bound.  The powers are rescaled as they are
    squared, N^k = e^scale n, in P's form."""
    d = power.shape[0]
    one = linalg.from_entries(np.arange(d), np.arange(d), np.ones(d), d)
    n, scale, k = power - theta * one, 0.0, 1
    while True:
        weights = abs(n)
        upper = np.sqrt(weights.sum(axis=1).max() * weights.sum(axis=0).max())
        if upper == 0.0 or (scale + np.log(upper)) / k <= np.log(bound):
            return True
        lower = np.max(weights.diagonal(), initial=0.0)
        if k == 64 or (lower > 0.0 and (scale + np.log(lower)) / k > np.log(bound)):
            return False
        n = n / upper
        n, scale, k = n @ n, 2.0 * (scale + np.log(upper)), 2 * k


@dataclass(frozen=True)
class SymmetryOperator:
    """A unitary U, held by `u` in its working form (linalg.working).  Its
    images U A U† and its (finite) group order are formed with products in
    that form.  `matrix`, U as a d x d array (`u` itself when that is an
    array), is formed on first use for the readers that need one (the
    eigendecomposition, transformed Choi matrices, the ensemble test).  The
    order and the eigendecomposition (`phases`, `eigenbasis`) are computed
    on first use."""

    u: np.ndarray | scipy.sparse.csr_array
    tol: float = DEFAULT_TOL
    _images: list = field(default_factory=list, init=False, repr=False,
                          compare=False)

    @classmethod
    def from_matrix(cls, u, tol: float = DEFAULT_TOL):
        """The operator of u, an array or a sparse matrix, in its working
        form, so that `matrix` is u bit for bit; NotUnitaryError unless
        ||U U† - 1|| is at most threshold(tol) max(1, sqrt(d))
        (linalg.check_unitary), U U† one product in U's form."""
        op = cls(linalg.working(u), tol)
        if op.u.ndim != 2 or op.u.shape[0] != op.u.shape[1]:
            raise linalg.ShapeError(f"expected square matrix, got {op.u.shape}")
        with np.errstate(all="ignore"):     # a NaN or huge U fails the check
            gram = op.u @ op._adjoint
        linalg.check_unitary(gram, tol)
        return op

    @property
    def dim(self) -> int:
        return self.u.shape[0]

    @cached_property
    def matrix(self) -> np.ndarray:
        return linalg.dense(self.u, "the symmetry's matrix")

    @cached_property
    def order(self) -> int | None:
        """Least n <= _MAX_ORDER at which U^n = theta 1 by the one phase rule
        (linalg.phase_classes at tau = threshold(tol)): every eigenphase of
        U^n in one class.  Decided on the power U^n in U's form, with no
        eigendecomposition.  N = U^n - theta 1 is normal, so its spectral
        radius r(N) is the largest |e^{i phi} - theta| = 2 sin(|phi - arg
        theta| / 2) over the eigenphases phi of U^n.  U^n is accepted when
        * theta = 1 and r(N) <= 2 sin(tau / 2): every phi is within tau of
          0, in the zero class;
        * or theta = e^{i psi}, psi the phase of tr U^n with |psi| > tau,
          and r(N) <= 2 sin(delta / 2), delta = min(tau / 2, |psi| - tau):
          every phi is within delta of psi, on an arc of length at most tau
          more than tau from 0, so in the one class its least member names.
        `_radius_at_most` decides each bound on r(N).  So an accepted U^n
        has one class; one class is turned down only where a bound is not
        sharp: r(N) within a factor d^(1/128) above it, or phases all more
        than tau from 0 but spread wider than |psi| - tau about psi.  Only
        n with |v† U^n v| >= (1 - tau) ||v||^2, v = (1, ..., d), U^n v from
        n products, are tried: accepted, every eigenvalue is within r < tau
        of theta, so |v† U^n v| >= (1 - r^2 / 2) ||v||^2, tau / 2 above that
        floor."""
        d, u, power, p = self.dim, self.u, self.u, 1
        tau, v = threshold(self.tol), np.arange(1.0, d + 1.0)
        w, floor = v, (1.0 - tau) * v.dot(v)
        for n in range(1, _MAX_ORDER + 1):
            w = u @ w
            if abs(v.dot(w)) < floor:
                continue
            while p < n:
                power, p = power @ u, p + 1
            if _radius_at_most(power, 1.0, 2.0 * np.sin(tau / 2.0)):
                return n
            psi = np.angle(power.trace())
            if abs(psi) > tau and _radius_at_most(
                    power, np.exp(1j * psi), 2.0 * np.sin(min(tau / 2.0, abs(psi) - tau) / 2.0)):
                return n
        return None

    @cached_property
    def _adjoint(self):
        """U† in U's form (linalg.operator): its rows are U's columns,
        conjugated."""
        return linalg.operator(dag(self.u))

    @cached_property
    def _eigen(self):
        return linalg.unitary_eigendecomposition(self.matrix, self.tol)

    @property
    def phases(self) -> np.ndarray:
        """Eigenphases in [0, 2pi), sorted by their linalg.phase_classes at
        tol, the zero class reading 0.0 (unitary_eigendecomposition)."""
        return self._eigen[0]

    @property
    def eigenbasis(self) -> np.ndarray:
        """Eigenvector columns in the order of `phases`."""
        return self._eigen[1]

    def conjugate(self, a):
        """U A U† for a d x d array A, as U (U A†)†, an array."""
        return self.u @ dag(self.u @ dag(a))

    def conjugate_nonzeros(self, k, rows, cols, values) -> tuple:
        """Entries (k, rows, cols, values) of the operators U A_k U† from
        those of the A_k, given in order of k and row-major within each;
        the entries come in order of k and of rows, each position once,
        exact zeros left out.  An array U images the A_k written into one
        (n, d, d) stack by one stacked product.  For a CSR U two sparse
        products form them: the A_k stacked as the blocks of one
        CSR matrix, times U† (whose rows are U's columns), then 1 ⊗ U
        times that, whose work and memory follow the nonzero terms, however
        dense U is."""
        d, u = self.dim, self.u
        n = int(k[-1]) + 1 if len(k) else 0
        if isinstance(u, np.ndarray):
            stack = np.zeros((n, d, d), dtype=complex)
            stack[k, rows, cols] = values
            out = u @ stack @ dag(u)
            k, rows, cols = np.nonzero(out)
            return k, rows, cols, out[k, rows, cols]
        nnz = len(u.data)
        stack = scipy.sparse.csr_array(
            (values, cols, np.searchsorted(k * d + rows, np.arange(n * d + 1))),
            shape=(n * d, d))
        blocks = np.arange(n)[:, None]
        diagonal = scipy.sparse.csr_array(
            (np.tile(u.data, n), (blocks * d + u.indices).ravel(),
             np.append((blocks * nnz + u.indptr[:-1]).ravel(), n * nnz)),
            shape=(n * d, n * d))
        out = diagonal @ (stack @ self._adjoint)
        k, rows = np.divmod(np.repeat(np.arange(n * d), np.diff(out.indptr)), d)
        return k, rows, out.indices, out.data

    def images(self, rep: Representation) -> SymmetryImages:
        """The images of rep's operators, kept for the last rep asked for."""
        if not self._images or self._images[0] is not rep:
            self._images[:] = [rep, SymmetryImages(rep, self)]
        return self._images[1]


class SymmetryImages:
    """One symmetry's images of a representation's operators, formed from
    the operators' nonzero entries (`SymmetryOperator.conjugate_nonzeros`
    of `Representation.nonzeros`): U H U† with ||U H U† - H|| and U H' U†
    (H' the traceless frame's Hamiltonian) in their working forms
    (linalg.from_entries), U H_eff U† on first use, and the coordinates of
    one QR of the traceless jumps J'_j and their images (`frame_jumps`,
    `frame_images`), taken over the entries where 1, a J'_j or an image is
    stored and shifted to those of J_j = J'_j + tr(J_j)/d 1 (`jumps`,
    `jump_images`; J'_j is orthogonal to 1, so the shift loses nothing)."""

    def __init__(self, rep: Representation, sym: SymmetryOperator):
        self.rep, self.sym = rep, sym
        self.frame_hamiltonian = rep.traceless[0]
        d, n = rep.dim, rep.njumps
        k, rows, cols, values = rep.nonzeros
        ik, irows, icols, ivalues = sym.conjugate_nonzeros(k, rows, cols, values)
        m, im = np.searchsorted(k, 2), np.searchsorted(ik, 2)   # H and H' first
        ends = np.searchsorted(ik[:im], [0, 1, 2])
        self.hamiltonian_image, self.frame_hamiltonian_image = (
            linalg.from_entries(irows[a:b], icols[a:b], ivalues[a:b], d)
            for a, b in zip(ends[:-1], ends[1:]))
        self.hamiltonian_residual = linalg.distance(self.hamiltonian_image, rep.hamiltonian)
        # rows: 1, then the J'_j (k - 1), then their images (k - 1 + n)
        r = linalg.support_coordinates(
            np.concatenate([np.zeros(d, dtype=int), k[m:] - 1, ik[im:] + (n - 1)]),
            np.concatenate([np.arange(0, d * d, d + 1), rows[m:] * d + cols[m:],
                            irows[im:] * d + icols[im:]]),
            np.concatenate([np.ones(d), values[m:], ivalues[im:]]), 2 * n + 1)
        one, self.frame_jumps, self.frame_images = r[:, 0], r[:, 1:n + 1], r[:, n + 1:]
        shift = np.outer(one, rep.jump_traces / d)
        self.jumps, self.jump_images = self.frame_jumps + shift, self.frame_images + shift

    @cached_property
    def effective_hamiltonian_image(self) -> np.ndarray:
        return self.sym.conjugate(self.rep.effective_hamiltonian)

    @property
    def overlaps(self) -> np.ndarray:
        """P[j, k] = <J_k, U J_j U†>."""
        return self.jump_images.T @ self.jumps.conj()


_CERTIFICATES = {"mixing": None, "mixing_residual": 0.0, "unitary": None, "reason": ""}


@dataclass
class ConditionResult:
    """A verdict, with the residuals, permutation and phases deciding it
    finds, and its certificates: `mixing`, `mixing_residual` and `unitary`,
    and `reason`, which says why it failed, or why a certificate of one that
    holds is None.  They are formed together on the first read of one by
    `certify`, which returns them by name; one it leaves out keeps its
    default (None, 0.0, None and "")."""

    holds: bool
    hamiltonian_residual: float = 0.0
    permutation: tuple | None = None
    phases: tuple | None = None
    residual: float = 0.0
    certify: Callable[[], dict] = field(default=dict, repr=False)

    def __getattr__(self, name):
        # reached only by names not yet set: the certificates, until formed
        if name not in _CERTIFICATES:
            raise AttributeError(name)
        for key, value in {**_CERTIFICATES, **self.certify()}.items():
            self.__dict__.setdefault(key, value)    # one assigned before stays
        return self.__dict__[name]

    def __bool__(self) -> bool:
        return self.holds


class SymmetryReport:
    """The three conditions of one symmetry of rep, each decided on its first
    read, on the condition below it, by check_condition_I, _II and _III (read
    through those names), and `consistent`, whether III => II => I; each
    condition forms its certificates on their first read."""

    def __init__(self, rep: Representation, sym: SymmetryOperator, tol: float,
                 partition: SjedPartition | None):
        self.rep, self.sym, self.tol, self.partition = rep, sym, tol, partition

    @cached_property
    def condition_I(self) -> ConditionResult:
        return check_condition_I(self.rep, self.sym, self.tol)

    @cached_property
    def condition_II(self) -> ConditionResult:
        return check_condition_II(self.rep, self.sym, self.tol, self.partition,
                                  below=self.condition_I)

    @cached_property
    def condition_III(self) -> ConditionResult:
        return check_condition_III(self.rep, self.sym, self.tol, below=self.condition_II)

    @property
    def consistent(self) -> bool:
        c1, c2, c3 = self.condition_I, self.condition_II, self.condition_III
        return (not c3.holds or c2.holds) and (not c2.holds or c1.holds)

    def verdicts(self) -> tuple:
        return (self.condition_I.holds, self.condition_II.holds,
                self.condition_III.holds)


def blockwise_unitary_completion(rep: Representation, sym: SymmetryOperator,
                                 partition: SjedPartition, pi_c):
    """Unitary certificate built through canonical SJED families.

    The canonical family of each set (sjed.canonical_family of its jump
    coordinates in the symmetry's images) gives its isometry V = zhᵀ; the
    images of set a's family projected on set pi_c[a]'s give the block X.
    The result V X V† + (1 - V V†), independent of the basis inside each
    set, must certify the jump images (linalg.SpanMap.accept), and has the
    SJED block-sum property: summing U*[j, k] U(J_j) over j in S_a gives
    J_k for k in S_{pi_c(a)} and zero otherwise.  The tolerance is the one
    the partition was built with.
    """
    tol = partition.tol
    images = sym.images(rep)
    cols = [list(s.indices) for s in partition.sets]
    families = [sjed.canonical_family(images.jumps[:, c], tol)[1] for c in cols]
    offsets = np.cumsum([0, *(len(zh) for zh in families)])
    v = np.zeros((rep.njumps, offsets[-1]), dtype=complex)
    xt = np.zeros((offsets[-1],) * 2, dtype=complex)
    for a, (zh, b) in enumerate(zip(families, pi_c)):
        if len(zh) != len(families[b]):
            raise CompletionFailed("matched SJEDs have different canonical ranks")
        tgt = images.jumps[:, cols[b]] @ dag(families[b])
        src = images.jump_images[:, cols[a]] @ dag(zh)
        v[cols[a], offsets[a]:offsets[a + 1]] = zh.T
        xt[offsets[a]:offsets[a + 1], offsets[b]:offsets[b + 1]] = \
            (src.T @ tgt.conj()) / np.sum(np.abs(tgt) ** 2, axis=0)
    u = v @ xt @ dag(v) + (np.eye(len(v), dtype=complex) - v @ dag(v))
    if linalg.SpanMap(images.jumps, images.jump_images, tol).accept(u) is None:
        raise CompletionFailed("the block certificate does not reproduce the jump images")
    return u


def _verdict(tol: float, h_resid: float, terms: dict) -> ConditionResult:
    """The verdict on the largest of terms, name -> scale-free distance (inf
    for a matching that does not exist within threshold(tol))."""
    name, gap = max(terms.items(), key=lambda item: item[1])
    if gap <= threshold(tol):
        return ConditionResult(True, h_resid, residual=gap)
    reason = f"{name} {gap:.3g} > {threshold(tol):.3g}"
    return ConditionResult(False, h_resid, certify=lambda: {"reason": reason})


def check_condition_I(rep: Representation, sym: SymmetryOperator,
                      tol: float = DEFAULT_TOL) -> ConditionResult:
    """Master-level symmetry, U L(rho) U† = L(U rho U†), decided on the
    lindblad.master_gaps of the traceless frame and its image.  Where it
    holds, the least-norm mixing X with U J'_j U† ~ sum_k X[j, k] J'_k, its
    relative residual and X's unitary completion are formed on their first
    read, from one linalg.SpanMap, so the two agree on the jump span."""
    images = sym.images(rep)
    h_gap, frame_gap = master_gaps(images.frame_hamiltonian, images.frame_hamiltonian_image,
                                   images.frame_jumps, images.frame_images)
    result = _verdict(tol, linalg.distance(images.frame_hamiltonian_image,
                                           images.frame_hamiltonian),
                      {"traceless Hamiltonian gap": h_gap, "jump frame gap": frame_gap})
    if result.holds:
        def certify():
            span = linalg.SpanMap(images.frame_jumps, images.frame_images, tol)
            (mixing, residual), unitary = span.mixing, span.certificate()
            return {"mixing": mixing, "mixing_residual": residual, "unitary": unitary,
                    "reason": "" if unitary is not None else
                    "no unitary completion of the mixing reproduces the targets"}
        result.certify = certify
    return result


def check_condition_II(rep: Representation, sym: SymmetryOperator,
                       tol: float = DEFAULT_TOL,
                       partition: SjedPartition | None = None,
                       below: ConditionResult | None = None) -> ConditionResult:
    """Trajectory-level symmetry on condition I's result (below, checked
    here when not given), ||U H U† - H|| / max(||H||, 1) and the largest
    relative Choi-frame gap of the SJEDs matched with their images by
    sjed.match_sets; `unitary` is the SJED block certificate, formed on its
    first read."""
    images = sym.images(rep)
    below = check_condition_I(rep, sym, tol) if below is None else below
    if not below.holds:
        return ConditionResult(False, images.hamiltonian_residual,
                               certify=lambda: {"reason": below.reason})
    partition = build_sjeds(rep, tol) if partition is None else partition
    sets = [s.indices for s in partition.sets]
    pi, gap = match_sets(images.jumps, images.jump_images, sets, sets, tol)
    result = _verdict(tol, images.hamiltonian_residual, {
        "condition I distance": below.residual,
        "Hamiltonian gap":
            images.hamiltonian_residual / max(linalg.distance(rep.hamiltonian), 1.0),
        "SJED matching gap": np.inf if pi is None else gap})
    if result.holds:
        def certify():
            try:
                return {"unitary": blockwise_unitary_completion(rep, sym, partition, pi)}
            except CompletionFailed as exc:
                return {"reason": str(exc)}
        result.permutation, result.certify = pi, certify
    return result


def check_condition_III(rep: Representation, sym: SymmetryOperator,
                        tol: float = DEFAULT_TOL,
                        below: ConditionResult | None = None) -> ConditionResult:
    """Record-level symmetry on condition II's result (below, checked here
    when not given) and the largest ||U J_j U† - e^{i phi} J_pi(j)|| /
    ||J_j||, e^{i phi} the phase of c = P[j, k] / ||J_k||^2, over the
    least-total bijection pi within threshold(tol); phases are arg c."""
    images = sym.images(rep)
    below = check_condition_II(rep, sym, tol) if below is None else below
    if not below.holds:
        return ConditionResult(False, images.hamiltonian_residual,
                               certify=lambda: {"reason": below.reason})
    a, b = images.jumps, images.jump_images
    coeff = images.overlaps / np.sum(np.abs(a) ** 2, axis=0)
    gaps = linalg.norms(b[:, :, None] - np.exp(1j * np.angle(coeff)) * a[:, None, :])
    gaps /= np.maximum(linalg.norms(b), 1e-300)[:, None]
    pi = linalg.assign(gaps, threshold(tol))
    result = _verdict(tol, images.hamiltonian_residual, {
        "condition II distance": below.residual,
        "phase-permutation gap": np.inf if pi is None else float(
            np.max(gaps[np.arange(len(pi)), list(pi)], initial=0.0))})
    if result.holds:
        result.permutation = pi
        result.phases = tuple(float(np.angle(coeff[j, k])) for j, k in enumerate(pi))
    return result


def permutation_unitary(pi, phases=None) -> np.ndarray:
    """Matrix U[j, k] = exp(i phi_j) delta(pi[j], k)."""
    u = np.eye(len(pi), dtype=complex)[list(pi)]
    return u if phases is None else u * np.exp(1j * np.asarray(phases))[:, None]


def _cycles(pi) -> list:
    """The cycles of a permutation, each walked in its direction."""
    seen, cycles = set(), []
    for start in range(len(pi)):
        if start not in seen:
            cyc = [start]
            while pi[cyc[-1]] != start:
                cyc.append(pi[cyc[-1]])
            seen.update(cyc)
            cycles.append(cyc)
    return cycles


def lift_II_to_III(rep: Representation, sym: SymmetryOperator,
                   partition: SjedPartition | None = None):
    """Canonical-SJED representation whose jumps are permuted by the symmetry.

    Along each pi_c cycle, the first set's canonical family is refined on
    degenerate weights to diagonalize the cycle-closing map (the product of
    condition II's certificate blocks in canonical coordinates) and
    phase-fixed; each later family is the image of the one before, carried
    as member coefficients through the certificate.  Condition II, the
    canonical families, degeneracy and the closing map's eigenphases are
    all decided at the partition's tol (DEFAULT_TOL for the one built
    when none is given).  Returns
    (representation, groups), groups the output's jump indices per input
    SJED.  Raises NotConditionII when condition II fails and
    CompletionFailed when its certificate does.
    """
    partition = build_sjeds(rep) if partition is None else partition
    tol = partition.tol
    cond = check_condition_II(rep, sym, tol, partition)
    if not cond.holds:
        raise NotConditionII(cond.reason)
    if cond.unitary is None:
        raise CompletionFailed(cond.reason)
    u, coords = cond.unitary, sym.images(rep).jumps
    tau = threshold(tol)      # weights within tau are degenerate

    families = [None] * partition.nsets
    for cyc in _cycles(cond.permutation):
        members = [list(partition.sets[a].indices) for a in cyc]
        blocks = [u[np.ix_(m, n)] for m, n in zip(members, members[1:] + members[:1])]
        s, zh = sjed.canonical_family(coords[:, members[0]], tol)
        closing = np.linalg.multi_dot([zh.conj(), *blocks, zh.T])
        w, t = s ** 2, np.eye(len(s), dtype=complex)
        i = 0
        while i < len(w):    # w descends: a degenerate group is contiguous
            j = i + int(np.sum(w[i] - w[i:] <= tau * max(w[0], 1.0)))
            if j - i > 1:
                _, vb = linalg.unitary_eigendecomposition(closing[i:j, i:j].T, tol)
                t[i:j, i:j] = vb.T
            i = j
        ref, coeffs = sjed.phase_fixed_family(rep.jumps, members[0], t @ zh.conj())
        families[cyc[0]] = ref
        for a, m, block in zip(cyc[1:], members[1:], blocks):
            coeffs = coeffs @ block
            families[a] = np.tensordot(
                coeffs, np.array([linalg.dense(rep.jumps[k]) for k in m]), axes=1)
    ends = np.cumsum([0, *map(len, families)])
    groups = tuple(tuple(range(a, b)) for a, b in zip(ends[:-1], ends[1:]))
    return Representation(rep.hamiltonian, tuple(j for f in families for j in f)), groups


def fourier_symmetrize(rep: Representation, sym: SymmetryOperator,
                       tol: float = DEFAULT_TOL) -> Representation:
    """Weakly symmetric representation by Fourier transforming jump cycles.

    Requires the record-level condition; each permutation cycle
    (J_{k_0} -> J_{k_1} -> ...) of length n is replaced by the waves
    hat-J_l = n^{-1/2} sum_m exp(-2 pi i l m / n) exp(i beta_m) J_{k_m},
    with beta_m the accumulated transformation phases, so that every
    output jump is an eigenoperator of the symmetry.  The accumulated
    phase around each cycle must close to a multiple of 2 pi.
    """
    cond = check_condition_III(rep, sym, tol)
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
    # each wave is an eigenoperator: its eigenvalues certify the images
    images = sym.images(out)
    c = np.diag(images.overlaps) / np.sum(np.abs(images.jumps) ** 2, axis=0)
    if linalg.SpanMap(images.jumps, images.jump_images, tol).accept(np.diag(c)) is None:
        raise PhaseSumNotInteger("wave jumps failed the eigenoperator check")
    return out


def wave_operators(partition: SjedPartition, pi_c):
    """Choi matrices of the Fourier transforms of the composite actions.

    pi_c must be a single cycle; wave k satisfies the eigen-relation
    C' = exp(2 pi i k / d_c) C, C' the Choi matrix of the symmetry-conjugated
    superoperator (lindblad.change_superoperator_basis(C, U†)).
    """
    d_c = partition.nsets
    cycles = _cycles(pi_c)
    if len(cycles) != 1:
        raise NotSingleCycle(f"permutation has {len(cycles)} cycles")
    chois = [composite_choi(partition, a) for a in cycles[0]]
    return [sum(np.exp(-2j * np.pi * k * j / d_c) * chois[j] for j in range(d_c))
            for k in range(d_c)]


def block_support(superop: np.ndarray, sym: SymmetryOperator) -> dict:
    """Frobenius mass of a superoperator per symmetry block class.

    The matrix is rotated to the symmetry-adapted basis; row and column
    indices (i, j) carry the eigenphase difference delta = phi_i - phi_j,
    and entries are keyed by the linalg.phase_classes of delta_row - delta_col.
    """
    d = sym.dim
    if np.shape(superop) != (d * d, d * d):
        raise linalg.ShapeError("superoperator dimension mismatch")
    t = change_superoperator_basis(superop, sym.eigenbasis)
    deltas = np.subtract.outer(sym.phases, sym.phases).reshape(-1)
    keys = linalg.phase_classes(np.subtract.outer(deltas, deltas), sym.tol)
    return {float(key): frob(t[keys == key]) for key in np.unique(keys)}


def off_block_mass(superop: np.ndarray, sym: SymmetryOperator) -> float:
    """Relative Frobenius mass outside the Delta = 0 blocks (key 0.0)."""
    support = block_support(superop, sym)
    total_sq = sum(v ** 2 for v in support.values())
    if total_sq == 0.0:
        return 0.0
    off_sq = sum(v ** 2 for k, v in support.items() if k != 0.0)
    return float(np.sqrt(off_sq / total_sq))


def monomial_eigenfunctions(sym: SymmetryOperator, order: int, eigenvalue) -> list:
    """Index tuples of monomials in the adapted basis with a given unit
    eigenvalue, equal in phase by linalg.phase_classes.

    A tuple (i_1, ..., i_2n) (1-based) stands for the product of matrix
    elements psi[i_1, i_2] psi[i_3, i_4] ... of a pure state written in
    the symmetry eigenbasis; under psi -> U psi U† it picks up
    exp(i * sum_x (phi_odd - phi_even)).  Tuples are canonically ordered
    (pairs nondecreasing as two-digit numbers).
    """
    if order > 3:
        raise ValueError("monomial order capped at 3")
    pairs = list(itertools.product(range(1, sym.dim + 1), repeat=2))
    monomials = [sum(c, ()) for c in itertools.combinations_with_replacement(pairs, order)]
    phases = np.angle([monomial_eigenvalue(sym, m) for m in monomials]) - np.angle(eigenvalue)
    return [m for m, c in zip(monomials, linalg.phase_classes(phases, sym.tol)) if c == 0.0]


def monomial_eigenvalue(sym: SymmetryOperator, indices) -> complex:
    phase = sum(sym.phases[indices[x] - 1] - sym.phases[indices[x + 1] - 1]
                for x in range(0, len(indices), 2))
    return complex(np.exp(1j * phase))


def check_linear_eigenfunction(rep: Representation, f, tol: float = DEFAULT_TOL):
    """Whether F is an eigenmatrix of the adjoint master operator.

    Returns (is_eigen, eigenvalue).  A least-squares eigenvalue is fitted,
    its relative residual must be at most tau = threshold(tol), and the dual
    pairing Tr[F L(psi)] = lambda Tr[F psi] is verified on 20 random pure
    states psi (||psi|| = 1; the same draws on every call), each to
    |Tr[F L(psi)] - lambda Tr[F psi]| <= tau ||F|| max(1, |lambda|), a
    bound that scales with F.
    """
    f = np.asarray(f, dtype=complex)
    lf = apply_adjoint_master_operator(rep, f)
    lam = np.vdot(f.reshape(-1), lf.reshape(-1)) / np.vdot(f.reshape(-1), f.reshape(-1))
    resid = frob(lf - lam * f) / max(frob(lf), frob(f))
    if resid > threshold(tol):
        return False, complex(lam)
    rng = np.random.default_rng(2024)
    d, bound = rep.dim, threshold(tol) * frob(f) * max(1.0, abs(lam))
    for _ in range(20):
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        v /= np.linalg.norm(v)
        psi = np.outer(v, v.conj())
        lhs = np.trace(f @ apply_master_operator(rep, psi))
        rhs = lam * np.trace(f @ psi)
        if abs(lhs - rhs) > bound:
            return False, complex(lam)
    return True, complex(lam)


def build_symmetry_report(rep: Representation, sym: SymmetryOperator,
                          tol: float = DEFAULT_TOL,
                          partition: SjedPartition | None = None) -> SymmetryReport:
    """The report of sym on rep, each condition decided on its first read."""
    return SymmetryReport(rep, sym, tol, partition)


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
    "fourier_symmetrize",
    "lift_II_to_III",
    "monomial_eigenfunctions",
    "monomial_eigenvalue",
    "off_block_mass",
    "permutation_unitary",
    "wave_operators",
]
