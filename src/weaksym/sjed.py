"""Sets of jumps with equal destinations (SJEDs).

Jump operators are grouped into sets whose pure-state actions share a
destination: rank-one (reset) jumps with a common target state, and
mutually proportional higher-rank jumps.  Whatever its dim or form, a
jump is read once, as its block on its nonzero rows and columns
(linalg.support), and split by one rule.  The composite action of a set
is the superoperator sum of its members; it preserves purity and is the
object that matters for the unravelled dynamics.  A composite action is
fixed by its Choi matrix, the frame sum_j |J_j>><<J_j| of its members, so
`match_sets` compares sets by the frames of their jumps' coordinates in
one orthonormal basis, whether the sets come from two representations or
are a representation's sets and their images under a symmetry, and a thin
SVD of the same coordinates gives a set's canonical family, whatever its
kind (`canonical_family`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import linalg
from .lindblad import Representation, jump_part_choi
from .linalg import DEFAULT_TOL, dag, frob


@dataclass(frozen=True)
class SjedSet:
    """One SJED: member indices and kind, "reset" or "proportional".

    A reset set's members are J_j = |destination><s_j|, with the sources
    s_j = J_j† destination the columns of `sources` in member order."""

    indices: tuple
    kind: str  # "reset" | "proportional"
    destination: np.ndarray | None = None    # unit target state (reset)
    sources: np.ndarray | None = None        # d x |S| (reset)

    @property
    def size(self) -> int:
        return len(self.indices)


@dataclass(frozen=True)
class SjedPartition:
    """Disjoint SJEDs covering all jump indices of a representation."""

    sets: tuple
    jumps: tuple
    tol: float = DEFAULT_TOL      # the tolerance the sets were built with

    @property
    def nsets(self) -> int:
        return len(self.sets)

    def coarse_labels(self) -> np.ndarray:
        """Array mapping jump index -> SJED index."""
        out = np.empty(len(self.jumps), dtype=int)
        out[[j for s in self.sets for j in s.indices]] = np.repeat(
            np.arange(self.nsets), [s.size for s in self.sets])
        return out

    @property
    def membership(self) -> np.ndarray:
        """The (jumps, nsets) 0/1 int matrix with row j the indicator of
        jump j's SJED: full counts times it are coarse counts."""
        return np.eye(self.nsets, dtype=int)[self.coarse_labels()]


def _rank_one_split(block: np.ndarray, tol: float):
    """(destination, source) with block = |dest><source|, or None when its
    singular values have s_1 > tol s_0.  A block of one row or one column
    is split by inspection, any other by one SVD, whose top left singular
    vector, phase-fixed (linalg.fix_column_phases), is the destination;
    the source is block† dest."""
    if block.shape[0] == 1:
        dest = np.ones(1, dtype=complex)
    elif block.shape[1] == 1:
        dest = linalg.fix_column_phases(block / frob(block))[:, 0]
    else:
        u, s, _ = np.linalg.svd(block, full_matrices=False)
        if s[1] > tol * s[0]:
            return None
        dest = linalg.fix_column_phases(u[:, :1])[:, 0]
    return dest, dag(block) @ dest


def _proportionality_gap(base, x) -> float:
    """min_c ||x - c base|| for unit vectors (or operators of one dim, so
    in one working form, linalg.working) base and x: the sine of the angle
    between them, from the difference itself."""
    c = (base.conj() * x).sum()
    return frob(x - c * base)


def _partition(jumps, tol: float) -> tuple:
    """The SJEDs of a jump list, as build_sjeds describes them: a set's
    members have directions within threshold(tol) of its first's.  A
    jump's block on its nonzero rows and columns (linalg.support) has its
    singular values: the block's split gives the destination on those
    rows, and a reset member's source J† dest is block† dest[rows] on
    those columns."""
    tau = linalg.threshold(tol)
    supports = [linalg.support(j) for j in jumps]
    splits = [_rank_one_split(block, tau) for _, _, block in supports]
    # unit directions: a rank-one jump's destination, else the jump itself
    bases = []
    for j, (rows, _, _), split in zip(jumps, supports, splits):
        if split is None:
            bases.append(j / frob(j))
        else:
            bases.append(np.zeros(j.shape[0], dtype=complex))
            bases[-1][rows] = split[0]
    sets, used = [], set()
    for k, base in enumerate(bases):
        if k in used:
            continue
        members = [k] + [m for m in range(k + 1, len(jumps)) if m not in used
                         and (splits[m] is None) == (splits[k] is None)
                         and _proportionality_gap(base, bases[m]) <= tau]
        if splits[k] is None:
            sets.append(SjedSet(tuple(members), "proportional"))
        else:
            sources = np.zeros((len(base), len(members)), dtype=complex)
            for i, m in enumerate(members):
                rows, cols, block = supports[m]
                sources[cols, i] = dag(block) @ base[rows]
            sets.append(SjedSet(tuple(members), "reset", destination=base, sources=sources))
        used.update(members)
    return tuple(sets)


def build_sjeds(rep: Representation, tol: float = DEFAULT_TOL) -> SjedPartition:
    """Partition the jumps of a representation into SJEDs.

    Rank-one jumps are grouped by shared destination (up to phase),
    remaining jumps by pairwise proportionality; leftovers are singletons.
    Each set starts at its smallest member, so sets come in that order.
    """
    return SjedPartition(_partition(rep.jumps, tol), rep.jumps, tol)


def partition_from_groups(rep: Representation, groups,
                          tol: float = DEFAULT_TOL) -> SjedPartition:
    """Build a partition from explicit jump-index groups.

    Each group must be a valid equal-destination set (all members
    rank-one with a common destination, or mutually proportional);
    this lets a model fix a physically meaningful grouping when shared
    destinations would otherwise merge sets.
    """
    jumps = rep.jumps
    seen = sorted(i for g in groups for i in g)
    if seen != list(range(len(jumps))):
        raise ValueError("groups must partition the jump indices")
    sets = []
    for group in groups:
        group = tuple(sorted(group))
        sub = _partition([jumps[i] for i in group], tol)
        if len(sub) != 1:
            raise ValueError(f"group {group} is not a single equal-destination set")
        sets.append(replace(sub[0], indices=group))
    sets = sorted(sets, key=lambda s: s.indices[0])
    return SjedPartition(tuple(sets), jumps, tol)


def composite_choi(partition: SjedPartition, alpha: int) -> np.ndarray:
    """Choi matrix of the composite action of one SJED."""
    return jump_part_choi([partition.jumps[j] for j in partition.sets[alpha].indices])


def match_sets(a: np.ndarray, b: np.ndarray, sets_a, sets_b,
               tol: float = DEFAULT_TOL):
    """(pi, residual): the bijection beta -> alpha with the composite action
    of sets_b[beta] equal to that of sets_a[alpha], of least total cost
    among those with every cost at most linalg.threshold(tol), and its
    largest cost; (None, None) when there is none.

    a and b hold jumps as columns of coordinates in one orthonormal basis
    (see linalg.operator_coordinates) and each set is a tuple of column
    indices.  A set's composite action is fixed by its Choi matrix, the
    frame of its columns, so the cost is their relative linalg.frame_gap."""
    if len(sets_a) != len(sets_b):
        return None, None
    cost = np.empty((len(sets_b), len(sets_a)))
    for beta, sb in enumerate(sets_b):
        for alpha, sa in enumerate(sets_a):
            gap, fa, fb = linalg.frame_gap(a[:, list(sa)], b[:, list(sb)])
            cost[beta, alpha] = gap / max(fa, fb, 1e-300)
    pi = linalg.assign(cost, linalg.threshold(tol))
    if pi is None:
        return None, None
    return pi, float(max((cost[beta, alpha] for beta, alpha in enumerate(pi)),
                         default=0.0))


def same_unravelled_generator(rep_a: Representation, rep_b: Representation,
                              tol: float = DEFAULT_TOL,
                              partition_a: SjedPartition | None = None,
                              partition_b: SjedPartition | None = None):
    """Decide whether two representations share the unravelled generator.

    Requires H_b = H_a + r with real r and a bijection pi_c matching the
    SJEDs' composite actions (match_sets on the operator_coordinates of
    both jump families).  Returns (ok, pi_c or None, r or None) with
    pi_c[beta] the rep_a set matching rep_b's set beta.
    """
    if rep_a.dim != rep_b.dim:
        raise linalg.ShapeError("dimension mismatch")
    r = _hamiltonian_shift(rep_a.hamiltonian, rep_b.hamiltonian, tol)
    if r is None:
        return False, None, None
    pa = partition_a if partition_a is not None else build_sjeds(rep_a, tol)
    pb = partition_b if partition_b is not None else build_sjeds(rep_b, tol)
    pi, _ = match_sets(*linalg.operator_coordinates(rep_a.jumps, rep_b.jumps),
                       [s.indices for s in pa.sets], [s.indices for s in pb.sets], tol)
    if pi is None:
        return False, None, None
    return True, pi, r


def _hamiltonian_shift(ha: np.ndarray, hb: np.ndarray, tol: float):
    """Real r with H_b = H_a + r 1 within linalg.threshold(tol) max(||H_a||,
    ||H_b||, 1), or None (linalg.distance of H_b - H_a up to a multiple of
    1)."""
    r = (hb.trace() - ha.trace()) / ha.shape[0]
    bound = linalg.threshold(tol) * max(frob(ha), frob(hb), 1.0)
    if abs(r.imag) > bound or linalg.distance(hb, ha, traceless=True) > bound:
        return None
    return float(r.real)


def canonical_family(a: np.ndarray, tol: float = DEFAULT_TOL):
    """(s, zh): the singular values kept by the one rank cut (linalg.rank)
    of a thin SVD a = W S Z† of one set's jump coordinates (its columns) and
    their rows of Z†.  The canonical jumps C_i = sum_k conj(zh[i, k]) J_k
    are orthogonal, with norms s_i and, up to the cut, the set's frame."""
    _, s, zh = np.linalg.svd(a, full_matrices=False)
    r = linalg.rank(s, tol)
    return s[:r], zh[:r]


def phase_fixed_family(jumps, indices, coeffs) -> tuple:
    """(C, coeffs'): C_i = sum_k coeffs'[i, k] J_{indices[k]}, where each row
    of coeffs is rescaled by the unit phase that makes C_i's first
    non-negligible entry, row-major, real positive."""
    ops = np.tensordot(coeffs, np.array([linalg.dense(jumps[k]) for k in indices]), axes=1)
    phases = linalg.column_phases(ops.reshape(len(ops), -1).T)
    return ops * phases[:, None, None], coeffs * phases[:, None]


def canonical_sjed_representation(rep: Representation,
                                  partition: SjedPartition | None = None,
                                  tol: float = DEFAULT_TOL) -> Representation:
    """Minimal representation with one orthogonal jump family per SJED.

    Each set's jumps give way to its phase-fixed canonical family, read
    from the jumps' `linalg.operator_coordinates`.
    The output generates the same unravelled dynamics with the identity
    SJED matching and zero Hamiltonian shift.
    """
    if partition is None:
        partition = build_sjeds(rep, tol)
    coords, = linalg.operator_coordinates(rep.jumps)
    canon = []
    for s in partition.sets:
        _, zh = canonical_family(coords[:, list(s.indices)], tol)
        canon.extend(phase_fixed_family(rep.jumps, s.indices, zh.conj())[0])
    return Representation(rep.hamiltonian, tuple(canon))


__all__ = [
    "SjedPartition",
    "SjedSet",
    "build_sjeds",
    "canonical_family",
    "canonical_sjed_representation",
    "composite_choi",
    "match_sets",
    "partition_from_groups",
    "phase_fixed_family",
    "same_unravelled_generator",
]
