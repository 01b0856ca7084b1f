"""Sets of jumps with equal destinations (SJEDs).

Jump operators are grouped into sets whose pure-state actions share a
destination: rank-one (reset) jumps with a common target state, and
mutually proportional higher-rank jumps.  The composite action of a set
is the superoperator sum of its members; it preserves purity and is the
object that matters for the unravelled dynamics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .lindblad import Representation, jump_part_choi
from .linalg import DEFAULT_TOL, dag, frob


@dataclass(frozen=True)
class SjedSet:
    """One SJED: member indices plus reset or proportional structure."""

    indices: tuple
    kind: str  # "reset" | "proportional"
    # reset data
    destination: np.ndarray | None = None
    gamma: np.ndarray | None = None          # PSD matrix on the source side
    # proportional data
    base: np.ndarray | None = None           # unit-Frobenius base operator
    coefficients: tuple = ()                 # J_k = coefficients[k] * base

    @property
    def size(self) -> int:
        return len(self.indices)


@dataclass(frozen=True)
class SjedPartition:
    """Disjoint SJEDs covering all jump indices of a representation."""

    sets: tuple
    jumps: tuple

    @property
    def nsets(self) -> int:
        return len(self.sets)

    def coarse_labels(self) -> np.ndarray:
        """Array mapping jump index -> SJED index."""
        out = np.empty(len(self.jumps), dtype=int)
        for a, s in enumerate(self.sets):
            for j in s.indices:
                out[j] = a
        return out


def _rank_one_split(j: np.ndarray, tol: float):
    """(destination, source) with J = |dest><source| exactly, or None."""
    u, s, vh = np.linalg.svd(j)
    if s.size > 1 and s[1] > tol * s[0]:
        return None
    dest = linalg.fix_column_phases(u[:, :1])[:, 0]
    source = s[0] * vh[0].conj()  # rate absorbed into the source vector
    # compensate the phase moved into dest
    ph = np.vdot(dest, u[:, 0])
    return dest, source * ph.conjugate()


def _proportionality_coefficient(base: np.ndarray, j: np.ndarray, tol: float):
    """c with j = c * base (unit-Frobenius base), or None."""
    c = np.vdot(base, j)
    if frob(j - c * base) > tol * max(frob(j), 1e-300):
        return None
    return c


def build_sjeds(rep: Representation, tol: float = DEFAULT_TOL) -> SjedPartition:
    """Partition the jumps of a representation into SJEDs.

    Rank-one jumps are grouped by shared destination (up to phase),
    remaining jumps by pairwise proportionality; leftovers are singletons.
    Sets are ordered by their smallest member index.
    """
    jumps = rep.jumps
    if not jumps:
        return SjedPartition((), ())
    rank_one = {}
    full_rank = []
    for k, j in enumerate(jumps):
        split = _rank_one_split(j, tol)
        if split is None:
            full_rank.append(k)
        else:
            rank_one[k] = split

    sets = []
    used = set()
    for k in sorted(rank_one):
        if k in used:
            continue
        dest_k, _ = rank_one[k]
        members = [k]
        for m in sorted(rank_one):
            if m <= k or m in used:
                continue
            dest_m, _ = rank_one[m]
            if abs(np.vdot(dest_k, dest_m)) >= 1.0 - tol:
                members.append(m)
        used.update(members)
        sources = [rank_one[m][1] for m in members]
        gamma = sum(np.outer(s, s.conj()) for s in sources)
        sets.append(SjedSet(tuple(members), "reset",
                            destination=dest_k, gamma=gamma))

    for k in full_rank:
        if k in used:
            continue
        base = linalg.fix_column_phases(jumps[k].reshape(-1, 1)).reshape(
            jumps[k].shape) / frob(jumps[k])
        members = [k]
        coeffs = [_proportionality_coefficient(base, jumps[k], tol)]
        for m in full_rank:
            if m <= k or m in used:
                continue
            c = _proportionality_coefficient(base, jumps[m], tol)
            if c is not None:
                members.append(m)
                coeffs.append(c)
        used.update(members)
        sets.append(SjedSet(tuple(members), "proportional",
                            base=base, coefficients=tuple(coeffs)))

    sets.sort(key=lambda s: s.indices[0])
    return SjedPartition(tuple(sets), jumps)


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
        sub = build_sjeds(rep.with_jumps([jumps[i] for i in group]), tol)
        if sub.nsets != 1:
            raise ValueError(f"group {group} is not a single equal-destination set")
        s = sub.sets[0]
        sets.append(SjedSet(group, s.kind, destination=s.destination,
                            gamma=s.gamma, base=s.base,
                            coefficients=s.coefficients))
    sets = sorted(sets, key=lambda s: s.indices[0])
    return SjedPartition(tuple(sets), jumps)


def composite_action(partition: SjedPartition, alpha: int, psi) -> np.ndarray:
    """sum_{j in S_alpha} J_j psi J_j†."""
    if not 0 <= alpha < partition.nsets:
        raise IndexError(f"SJED index {alpha} out of range")
    psi = np.asarray(psi, dtype=complex)
    out = np.zeros_like(psi)
    for j in partition.sets[alpha].indices:
        jm = partition.jumps[j]
        out += jm @ psi @ dag(jm)
    return out


def composite_choi(partition: SjedPartition, alpha: int) -> np.ndarray:
    """Choi matrix of the composite action of one SJED."""
    return jump_part_choi([partition.jumps[j] for j in partition.sets[alpha].indices])


def composite_signature(partition: SjedPartition, alpha: int):
    """Structural data determining the composite action of one SJED.

    Reset sets are the pair (destination, gamma); proportional sets the
    pair (unit base, total weight).  Equality of signatures is equality
    of the composite actions, without building superoperator matrices.
    """
    s = partition.sets[alpha]
    if s.kind == "reset":
        return ("reset", s.destination, s.gamma)
    weight = float(sum(abs(c) ** 2 for c in s.coefficients))
    return ("prop", s.base, weight)


def signature_conjugate(u: np.ndarray, sig):
    """Signature of the composite action conjugated by a unitary."""
    kind = sig[0]
    if kind == "reset":
        return ("reset", u @ sig[1], u @ sig[2] @ dag(u))
    return ("prop", u @ sig[1] @ dag(u), sig[2])


def _aligned_gap(a: np.ndarray, b: np.ndarray) -> float:
    """Norm distance of two unit vectors after optimal phase alignment."""
    ov = np.vdot(b.reshape(-1), a.reshape(-1))
    phase = ov / abs(ov) if abs(ov) > 0 else 1.0
    return float(np.linalg.norm(a.reshape(-1) - phase * b.reshape(-1)))


def signature_distance(sig_a, sig_b) -> float:
    """Relative distance between two composite-action signatures."""
    if sig_a[0] != sig_b[0]:
        return np.inf
    if sig_a[0] == "reset":
        g_scale = max(frob(sig_a[2]), frob(sig_b[2]), 1e-300)
        return max(_aligned_gap(sig_a[1], sig_b[1]),
                   frob(sig_a[2] - sig_b[2]) / g_scale)
    w_scale = max(sig_a[2], sig_b[2], 1e-300)
    return max(_aligned_gap(sig_a[1], sig_b[1]),
               abs(sig_a[2] - sig_b[2]) / w_scale)


def match_signatures(sigs_a, sigs_b, tol):
    """Bijection beta -> alpha with sigs_b[beta] = sigs_a[alpha], or None.

    The least total distance among bijections with every distance <= tol.
    """
    if len(sigs_a) != len(sigs_b):
        return None
    cost = np.array([[signature_distance(sa, sb) for sa in sigs_a]
                     for sb in sigs_b])
    return linalg.assign(cost, tol)


def same_unravelled_generator(rep_a: Representation, rep_b: Representation,
                              tol: float = DEFAULT_TOL,
                              partition_a: SjedPartition | None = None,
                              partition_b: SjedPartition | None = None):
    """Decide whether two representations share the unravelled generator.

    Requires H_b = H_a + r with real r, equal SJED counts, and a bijection
    pi_c matching composite-action Choi matrices.  Returns
    (ok, pi_c or None, r or None) with pi_c[beta] the rep_a set matching
    rep_b's set beta.
    """
    if rep_a.dim != rep_b.dim:
        raise linalg.ShapeError("dimension mismatch")
    d = rep_a.dim
    diff = rep_b.hamiltonian - rep_a.hamiltonian
    r = np.trace(diff) / d
    scale = max(frob(rep_a.hamiltonian), frob(rep_b.hamiltonian), 1.0)
    if abs(r.imag) > tol * scale or frob(diff - r * np.eye(d)) > tol * scale:
        return False, None, None
    pa = partition_a if partition_a is not None else build_sjeds(rep_a, tol)
    pb = partition_b if partition_b is not None else build_sjeds(rep_b, tol)
    if pa.nsets != pb.nsets:
        return False, None, None
    sigs_a = [composite_signature(pa, a) for a in range(pa.nsets)]
    sigs_b = [composite_signature(pb, b) for b in range(pb.nsets)]
    pi = match_signatures(sigs_a, sigs_b, max(tol * 100, 1e-8))
    if pi is None:
        return False, None, None
    return True, pi, float(r.real)


def gamma_modes(gamma: np.ndarray, tol: float = DEFAULT_TOL):
    """Eigenpairs of a reset SJED's gamma matrix, weights descending.

    Modes with weight at most tol times the largest are dropped.
    """
    w, vecs = linalg.hermitian_eigendecomposition(gamma, tol)
    w, vecs = w[::-1], vecs[:, ::-1]
    keep = w > tol * max(w[0], 1e-300)
    return w[keep], vecs[:, keep]


def canonical_sets_with_isometries(partition: SjedPartition,
                                   tol: float = DEFAULT_TOL):
    """Canonical jumps per SJED plus member isometries.

    Returns (canonical_jumps, block_isometries, offsets) where
    canonical_jumps is the flat list over sets, block_isometries[a] is the
    |S_a| x r_a matrix with J_member = sum_i V[k, i] * canonical, and
    offsets[a] is the starting flat index of set a.
    """
    canon = []
    isoms = []
    offsets = []
    for s in partition.sets:
        offsets.append(len(canon))
        if s.kind == "proportional":
            scale = np.sqrt(sum(abs(c) ** 2 for c in s.coefficients))
            canon.append(scale * s.base)
            isoms.append(np.array([[c / scale] for c in s.coefficients],
                                  dtype=complex))
        else:
            w, vecs = gamma_modes(s.gamma, tol)
            for i in range(len(w)):
                canon.append(np.sqrt(w[i]) * np.outer(s.destination,
                                                      vecs[:, i].conj()))
            v = np.zeros((s.size, len(w)), dtype=complex)
            for row, j in enumerate(s.indices):
                zeta = dag(partition.jumps[j]) @ s.destination
                v[row] = (dag(vecs) @ zeta).conj() / np.sqrt(w)
            isoms.append(v)
    return canon, isoms, offsets


def canonical_sjed_representation(rep: Representation,
                                  partition: SjedPartition | None = None,
                                  tol: float = DEFAULT_TOL) -> Representation:
    """Minimal representation with one orthogonal jump family per SJED.

    Proportional sets collapse to a single jump; reset sets are replaced
    by the eigen-jumps of their gamma matrix (zero modes dropped).  The
    output generates the same unravelled dynamics with the identity
    SJED matching and zero Hamiltonian shift.
    """
    if partition is None:
        partition = build_sjeds(rep, tol)
    canon, _, _ = canonical_sets_with_isometries(partition, tol)
    return Representation(rep.hamiltonian, tuple(canon))


def remix_within_sets(partition: SjedPartition, rng) -> tuple:
    """Jumps with each SJED's members mixed by a random unitary.

    The composite actions are untouched, so the unravelled dynamics is
    preserved; useful for gauge-invariance tests.
    """
    jumps = list(partition.jumps)
    for s in partition.sets:
        n = s.size
        if n == 1:
            continue
        q = linalg.random_unitary(rng, n)
        old = [jumps[j] for j in s.indices]
        for row, j in enumerate(s.indices):
            jumps[j] = sum(q[row, k] * old[k] for k in range(n))
    return tuple(jumps)


__all__ = [
    "SjedPartition",
    "SjedSet",
    "build_sjeds",
    "canonical_sets_with_isometries",
    "canonical_sjed_representation",
    "composite_action",
    "composite_choi",
    "composite_signature",
    "match_signatures",
    "partition_from_groups",
    "remix_within_sets",
    "same_unravelled_generator",
    "signature_conjugate",
    "signature_distance",
]
