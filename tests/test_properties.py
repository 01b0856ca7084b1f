"""Property tests of the condition hierarchy on representations that are
symmetric by construction, and of the shared symmetry images against the
dense per-check computation they replaced."""

import math
from unittest import mock

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, strategies as st

from weaksym import linalg, models, sjed
from weaksym.lindblad import (
    Representation,
    change_superoperator_basis,
    jump_part_choi,
    liouville_matrix,
    representations_equal,
)
from weaksym.linalg import dag, frob
from weaksym.sjed import (
    build_sjeds,
    composite_choi,
    partition_from_groups,
    same_unravelled_generator,
)
from weaksym.symmetry import (
    CompletionFailed,
    ConditionResult,
    SymmetryOperator,
    _cycles,
    build_symmetry_report,
    check_condition_I,
    check_condition_II,
    check_condition_III,
    lift_II_to_III,
    off_block_mass,
)

from conftest import random_unitary, remix_within_sets


@st.composite
def symmetric_models(draw):
    """(representation, symmetry, remixed, split) with jumps closed under U.

    U has order dividing `order`; the jumps are the U-orbits of a few
    full-rank jumps and of rank-one jumps sharing one destination, the
    Hamiltonian is the U-average of a random one.  Remixing inside the
    SJEDs keeps conditions I and II but generally breaks condition III.
    A split model is checked with every jump in an SJED of its own;
    when U is a multiple of the identity its orbits repeat jumps, and the
    SJED matching then has ties.
    """
    dim = draw(st.integers(2, 3))
    order = draw(st.integers(1, 3))
    steps = draw(st.lists(st.integers(0, order - 1), min_size=dim, max_size=dim))
    n_full = draw(st.integers(0, 2))
    n_reset = draw(st.integers(0 if n_full else 1, 2))
    remixed = draw(st.booleans())
    split = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def gaussian(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    v = random_unitary(rng, dim)
    u = v @ np.diag(np.exp(2j * np.pi * np.array(steps) / order)) @ dag(v)
    powers = [np.linalg.matrix_power(u, k) for k in range(order)]
    h = gaussian(dim, dim)
    h = sum(p @ (h + dag(h)) @ dag(p) for p in powers)
    dest = gaussian(dim)
    seeds = [gaussian(dim, dim) for _ in range(n_full)]
    seeds += [np.outer(dest, gaussian(dim).conj()) for _ in range(n_reset)]
    rep = Representation(h, tuple(p @ j @ dag(p) for p in powers for j in seeds))
    if remixed:
        rep = Representation(rep.hamiltonian, remix_within_sets(build_sjeds(rep), rng))
    return rep, SymmetryOperator.from_matrix(u), remixed, split


@given(symmetric_models())
def test_symmetric_models_keep_the_hierarchy(model):
    rep, sym, remixed, split = model
    partition = partition_from_groups(rep, [[k] for k in range(rep.njumps)]) \
        if split else None
    report = build_symmetry_report(rep, sym, partition=partition)
    assert report.consistent
    assert report.condition_I.holds
    assert report.condition_II.holds or (remixed and split)
    assert report.condition_III.holds or remixed


_FIELDS = ("holds", "hamiltonian_residual", "residual", "permutation", "phases",
           "mixing", "mixing_residual", "unitary", "reason")
_CHECK_ORDER = [("condition_I", "holds"), ("condition_II", "holds"),
                ("condition_III", "holds"), "consistent", ("condition_I", "mixing"),
                ("condition_I", "unitary"), ("condition_II", "permutation"),
                ("condition_III", "permutation"), ("condition_III", "phases"),
                ("condition_I", "hamiltonian_residual"), ("condition_I", "mixing_residual"),
                ("condition_II", "residual"), ("condition_II", "unitary"),
                ("condition_II", "reason")]
_READ_ORDERS = {
    "conditions up": [(c, f) for c in ("condition_I", "condition_II", "condition_III")
                      for f in _FIELDS],
    "condition III first": [(c, f) for c in ("condition_III", "condition_II", "condition_I")
                            for f in _FIELDS],
    "certificates first": [(c, f) for f in ("unitary", "mixing", "reason", *_FIELDS)
                           for c in ("condition_II", "condition_I", "condition_III")],
    "as check prints": _CHECK_ORDER,
}


def _bits(value):
    """A value's bits: dtype, shape and bytes of an array, bytes of a float."""
    if isinstance(value, tuple):
        return tuple(map(_bits, value))
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, (float, np.floating)):
        return np.float64(value).tobytes()
    return value


def _read_report(rep, u, partition, order):
    """Every field of a fresh report (fresh operator and images), read in
    order and then the rest, by name."""
    report = build_symmetry_report(rep, SymmetryOperator.from_matrix(u), 1e-9, partition)
    keys = [*order, *_READ_ORDERS["conditions up"], "consistent"]
    return {key: _bits(report.consistent if key == "consistent"
                       else getattr(getattr(report, key[0]), key[1])) for key in keys}


def _assert_read_order_free(rep, u, partition=None):
    want = _read_report(rep, u, partition, [])
    for name, order in _READ_ORDERS.items():
        assert _read_report(rep, u, partition, order) == want, name


@given(symmetric_models())
def test_read_order_does_not_change_a_report(model):
    rep, sym, _, split = model
    partition = partition_from_groups(rep, [[k] for k in range(rep.njumps)]) \
        if split else None
    _assert_read_order_free(rep, sym.matrix, partition)


def test_read_order_does_not_change_a_builtin_report():
    for name in models.BUILDERS:
        model = models.get_model(name)
        partition = None if model.sjed_groups is None else \
            partition_from_groups(model.rep, model.sjed_groups)
        for u in model.symmetries.values():
            _assert_read_order_free(model.rep, u, partition)


@given(st.one_of(st.sampled_from([n for n in models.BUILDERS if n != "qutrit-chain"]),
                 symmetric_models()),
       st.sampled_from([1e-12, 1e-9, 1e-6]), st.floats(0.1, 100.0),
       st.sampled_from(["H", "jumps", "both"]), st.integers(0, 2 ** 32 - 1))
def test_perturbed_models_keep_the_hierarchy(source, tol, size, moved, seed):
    # H, the jumps or both moved by size tol (normal + i normal) max(1, max|A|),
    # the scale at which the checks' thresholds decide: each condition that
    # holds has a distance within tau(tol) and at least the one below it
    if isinstance(source, str):
        m = models.get_model(source)
        rep, sym = m.rep, SymmetryOperator.from_matrix(next(iter(m.symmetries.values())))
    else:
        rep, sym, _, _ = source
    rng = np.random.default_rng(seed)

    def move(a):
        noise = rng.standard_normal(a.shape) + 1j * rng.standard_normal(a.shape)
        return a + size * tol * max(1.0, np.max(np.abs(a))) * noise

    h, jumps = rep.hamiltonian, rep.jumps
    if moved != "jumps":
        h = move(h)
        h = (h + dag(h)) / 2
    if moved != "H":
        jumps = tuple(move(j) for j in jumps)
    report = build_symmetry_report(Representation(h, jumps), sym, tol)
    assert report.consistent
    results = (report.condition_I, report.condition_II, report.condition_III)
    for below, above in zip(results, results[1:]):
        if above.holds:
            assert below.holds and below.residual <= above.residual <= linalg.threshold(tol)


@given(symmetric_models(), st.integers(0, 2 ** 32 - 1))
def test_remixing_inside_sjeds_conjugates_the_block_certificate(model, seed):
    # J'_j = sum_k Q[j, k] J_k with Q block-diagonal over the SJEDs keeps
    # every composite action, so condition II does not move; the block
    # certificate does not depend on the basis inside a set, so it becomes
    # Q u Q†
    rep, sym, _, _ = model
    rng = np.random.default_rng(seed)
    partition = build_sjeds(rep)
    q = np.zeros((rep.njumps,) * 2, dtype=complex)
    for s in partition.sets:
        q[np.ix_(s.indices, s.indices)] = random_unitary(rng, s.size)
    remixed = Representation(rep.hamiltonian,
                             tuple(np.tensordot(q, np.array(rep.jumps), axes=1)))
    moved = build_sjeds(remixed)
    assert [s.indices for s in moved.sets] == [s.indices for s in partition.sets]
    a = check_condition_II(rep, sym, partition=partition)
    b = check_condition_II(remixed, sym, partition=moved)
    assert (a.holds, a.permutation) == (b.holds, b.permutation)
    assert abs(a.residual - b.residual) <= 1e-12
    if a.holds:
        u, v = a.unitary, b.unitary
        assert (u is None) == (v is None)
        if u is not None:
            assert frob(v - q @ u @ dag(q)) <= 1e-10 * frob(u)


@given(symmetric_models())
def test_lift_permutes_the_jumps_along_each_cycle(model):
    # wherever condition II holds with a block certificate, the lift gives a
    # condition-III representation of the same unravelled generator whose
    # families are carried exactly along each pi_c cycle
    _assert_lift_permutes_the_jumps(model, linalg.DEFAULT_TOL)


@pytest.mark.parametrize("tol", [1e-12, 1e-6])
@given(symmetric_models())
def test_lift_permutes_the_jumps_at_the_partition_tol(tol, model):
    # the lift decides everything at the tol of the partition it is given
    _assert_lift_permutes_the_jumps(model, tol)


def _assert_lift_permutes_the_jumps(model, tol):
    rep, sym, _, split = model
    partition = partition_from_groups(rep, [[k] for k in range(rep.njumps)], tol) \
        if split else build_sjeds(rep, tol)
    cond = check_condition_II(rep, sym, tol, partition)
    if cond.unitary is None:
        return
    out, groups = lift_II_to_III(rep, sym, partition)
    assert check_condition_III(out, sym, tol).holds
    ok, _, r = same_unravelled_generator(
        rep, out, tol, partition_a=partition,
        partition_b=partition_from_groups(out, groups, tol))
    assert ok and r == 0
    u = sym.matrix
    for cyc in _cycles(cond.permutation):
        for a, b in zip(cyc, cyc[1:]):
            for j, k in zip(groups[a], groups[b], strict=True):
                image = u @ out.jumps[j] @ dag(u)
                assert frob(image - out.jumps[k]) <= 1e-10 * frob(out.jumps[k])


@given(symmetric_models(), st.data())
def test_relabelling_relabels_the_certificates(model, data):
    rep, sym, _, _ = model
    sigma = data.draw(st.permutations(range(rep.njumps)))
    relabelled = Representation(rep.hamiltonian, [rep.jumps[s] for s in sigma])
    a = build_symmetry_report(rep, sym)
    b = build_symmetry_report(relabelled, sym)
    assert a.verdicts() == b.verdicts()
    if a.condition_III.holds:
        # jump i of the relabelled model is jump sigma[i]; both certificates
        # must send it to the same operator (the same index unless two
        # jumps coincide up to phase)
        for i, s in enumerate(sigma):
            image_a = np.exp(1j * a.condition_III.phases[s]) \
                * rep.jumps[a.condition_III.permutation[s]]
            image_b = np.exp(1j * b.condition_III.phases[i]) \
                * relabelled.jumps[b.condition_III.permutation[i]]
            assert frob(image_a - image_b) < 1e-8 * frob(image_a)
    if a.condition_II.holds:
        pa, pb = build_sjeds(rep), build_sjeds(relabelled)
        original = {frozenset(s.indices): k for k, s in enumerate(pa.sets)}
        for k, s in enumerate(pb.sets):
            ka = original[frozenset(sigma[i] for i in s.indices)]
            choi_a = composite_choi(pa, a.condition_II.permutation[ka])
            choi_b = composite_choi(pb, b.condition_II.permutation[k])
            assert frob(choi_a - choi_b) < 1e-8 * frob(choi_a)


@given(symmetric_models(), st.integers(0, 2 ** 32 - 1))
def test_change_of_basis_keeps_the_condition_I_certificate(model, seed):
    # A -> W A W† keeps every Frobenius inner product, so the jumps' span
    # map, and with it the mixing matrix and the unitary, stay the same
    rep, sym, _, _ = model
    w = random_unitary(np.random.default_rng(seed), rep.dim)
    moved = Representation(w @ rep.hamiltonian @ dag(w),
                           tuple(w @ j @ dag(w) for j in rep.jumps))
    a = check_condition_I(rep, sym)
    b = check_condition_I(moved, SymmetryOperator.from_matrix(w @ sym.matrix @ dag(w)))
    assert a.holds == b.holds
    for x, y in ((a.mixing, b.mixing), (a.unitary, b.unitary)):
        assert (x is None) == (y is None)
        if x is not None:
            assert frob(x - y) <= 1e-10 * frob(x)


@given(st.one_of(st.sampled_from([n for n in models.BUILDERS if n != "qutrit-chain"]),
                 symmetric_models()),
       st.floats(-6.0, 6.0))
def test_rescaled_jumps_keep_verdicts_and_certificates(source, exponent):
    # every jump times c = 10^exponent, H unchanged: each decision is
    # scale-free, so the verdicts, pi_c, pi and the phases stay, and the
    # (dimensionless) certificates move by rounding only.  Where U's orbits
    # repeat a jump or a set, rounding breaks the matching's tie; the
    # matched sets and jumps must then be the same instead
    if isinstance(source, str):
        m = models.get_model(source)
        rep, sym = m.rep, SymmetryOperator.from_matrix(next(iter(m.symmetries.values())))
    else:
        rep, sym, _, _ = source
    scaled = Representation(rep.hamiltonian, tuple(10.0 ** exponent * j for j in rep.jumps))
    a, b = build_symmetry_report(rep, sym), build_symmetry_report(scaled, sym)
    assert a.verdicts() == b.verdicts()
    certificates = [(a.condition_I.mixing, b.condition_I.mixing),
                    (a.condition_I.unitary, b.condition_I.unitary)]
    if a.condition_II.permutation == b.condition_II.permutation:
        certificates.append((a.condition_II.unitary, b.condition_II.unitary))
    else:
        partition = build_sjeds(rep)
        assert all(_choi_gap(partition, sym, c.permutation[k], k) <= 1e-8
                   for c in (a.condition_II, b.condition_II) for k in range(partition.nsets))
    if a.condition_III.holds:
        for j in range(rep.njumps):
            x, y = (np.exp(1j * c.phases[j]) * rep.jumps[c.permutation[j]]
                    for c in (a.condition_III, b.condition_III))
            assert frob(x - y) <= 1e-9 * frob(x)
            if a.condition_III.permutation == b.condition_III.permutation:
                assert abs(np.exp(1j * a.condition_III.phases[j])
                           - np.exp(1j * b.condition_III.phases[j])) <= 1e-9
    for x, y in certificates:
        assert (x is None) == (y is None)
        if x is not None:
            assert np.max(np.abs(x - y), initial=0.0) <= 1e-9


# ------------------------------------------------- dense per-check oracle
#
# Reference checks that form every image densely: each check conjugates
# H and every jump itself and compares dense d x d matrices, SJEDs split
# rank-one jumps by a full SVD, and the group order is searched by
# repeated products of U.

def _oracle_order(u, cap=64):
    d = u.shape[0]
    p = np.eye(d, dtype=complex)
    for n in range(1, cap + 1):
        p = p @ u
        tr = np.trace(p)
        if frob(p - np.exp(1j * np.angle(tr)) * np.eye(d)) <= 1e-9 * np.sqrt(d):
            return n
    return None


def _oracle_rank_one_split(j, tol):
    u, s, vh = np.linalg.svd(j)
    if s.size > 1 and s[1] > tol * s[0]:
        return None
    dest = linalg.fix_column_phases(u[:, :1])[:, 0]
    ph = np.vdot(dest, u[:, 0])
    return dest, s[0] * vh[0].conj() * ph.conjugate()


def _oracle_verify(u, jumps, targets, tol):
    """The certificate rule on dense operators: U†U within tau max(1,
    sqrt(n)) of 1, and each target within tau times its own norm of
    sum_k U[j, k] J_k."""
    n, tau = len(jumps), linalg.threshold(tol)
    if not frob(dag(u) @ u - np.eye(n)) <= tau * max(1.0, np.sqrt(n)):
        raise CompletionFailed("not unitary")
    for j, t in enumerate(targets):
        if frob(t - sum(u[j, k] * jumps[k] for k in range(n))) > tau * frob(t):
            raise CompletionFailed("targets not reproduced")


def _flat(ops):
    """Operators as the columns of a d^2 x len(ops) matrix."""
    return np.column_stack([o.reshape(-1) for o in ops])


def _oracle_verdict(tol, below, h_resid, terms):
    """The oracle result on a list of distance terms and the result of the
    condition below, which must hold: the distance is the largest of the
    terms and the distance below."""
    if below is not None and not below.holds:
        return ConditionResult(False, hamiltonian_residual=h_resid)
    distance = max([*terms, 0.0 if below is None else below.residual])
    if not distance <= linalg.threshold(tol):
        return ConditionResult(False, hamiltonian_residual=h_resid)
    return ConditionResult(True, hamiltonian_residual=h_resid, residual=distance)


def _traceless_gap(a, b):
    """||A - B|| / max(||A||, ||B||, 1) for A and B without their traces."""
    a, b = (linalg.remove_trace(np.array(m, dtype=complex)) for m in (a, b))
    return frob(a - b) / max(frob(a), frob(b), 1.0)


def _oracle_condition_I(rep, sym, tol):
    hp, jumps = rep.traceless
    image = sym.conjugate(hp)
    targets = [sym.conjugate(j) for j in jumps]
    frame_gap = 0.0
    if jumps:
        choi, moved = jump_part_choi(jumps), jump_part_choi(targets)
        frame_gap = frob(choi - moved) / max(frob(choi), frob(moved), 1e-300)
    out = _oracle_verdict(tol, None, frob(image - hp),
                          [_traceless_gap(hp, image), frame_gap])
    if not out.holds:
        return out
    if not jumps:
        out.mixing, out.unitary = np.zeros((0, 0)), np.zeros((0, 0))
        return out
    n, cut = len(jumps), linalg.threshold(tol)
    fa, fb = _flat(jumps), _flat(targets)
    xt, *_ = np.linalg.lstsq(fa, fb, rcond=cut)
    out.mixing = xt.T
    out.mixing_residual = frob(fb - fa @ xt) / max(frob(fb), 1e-300)
    # the mixing completed by the identity on the kernel of the jumps, cut
    # at tau; a zero jump (the traceless part of one proportional to 1) is
    # a kernel vector
    live = np.linalg.norm(fa, axis=0) > 0
    _, s, vh = np.linalg.svd(fa[:, live], full_matrices=False)
    z = np.zeros((int(np.sum(s > cut * s[:1])), n), dtype=complex)
    z[:, live] = vh[:len(z)]
    u = out.mixing + np.eye(n) - z.T @ z.conj()
    try:
        _oracle_verify(u, jumps, targets, tol)
        out.unitary = u
    except CompletionFailed:
        pass
    return out


def _choi_gap(partition, sym, a, b):
    """Relative Frobenius gap of set a's dense Choi matrix and the image of
    set b's under the symmetry."""
    x = composite_choi(partition, a)
    y = change_superoperator_basis(composite_choi(partition, b), dag(sym.matrix))
    return frob(x - y) / max(frob(x), frob(y))


def _oracle_condition_II(rep, sym, tol, partition, below):
    h_resid = frob(sym.conjugate(rep.hamiltonian) - rep.hamiltonian)
    n = partition.nsets
    cost = np.array([[_choi_gap(partition, sym, a, b) for a in range(n)]
                     for b in range(n)]).reshape(n, n)
    pi = linalg.assign(cost, linalg.threshold(tol))
    gap = np.inf if pi is None else max((cost[b, pi[b]] for b in range(n)), default=0.0)
    out = _oracle_verdict(tol, below, h_resid,
                          [h_resid / max(frob(rep.hamiltonian), 1.0), gap])
    if not out.holds:
        return out
    out.permutation = pi
    if not rep.jumps:
        out.unitary = np.zeros((0, 0))
    else:
        try:
            out.unitary = _oracle_block_unitary(rep, sym, partition, pi, tol)
        except CompletionFailed:
            pass
    return out


def _oracle_condition_III(rep, sym, tol, below):
    h_resid = frob(sym.conjugate(rep.hamiltonian) - rep.hamiltonian)
    d = rep.njumps
    coeff = np.zeros((d, d), dtype=complex)
    gaps = np.zeros((d, d))
    for j in range(d):
        target = sym.conjugate(rep.jumps[j])
        for k, jump in enumerate(rep.jumps):
            coeff[j, k] = np.vdot(jump, target) / frob(jump) ** 2
            gaps[j, k] = frob(target - np.exp(1j * np.angle(coeff[j, k])) * jump) \
                / frob(target)
    pi = linalg.assign(gaps, linalg.threshold(tol))
    gap = np.inf if pi is None else max((gaps[j, pi[j]] for j in range(d)), default=0.0)
    out = _oracle_verdict(tol, below, h_resid, [gap])
    if out.holds:
        out.permutation = pi
        out.phases = tuple(float(np.angle(coeff[j, pi[j]])) for j in range(d))
    return out


def _oracle_canonical_sets(partition, tol):
    """(canonical jumps, isometries, offsets): per set the dense jumps
    C_i = sum_k Z[k, i] J_k of the right singular vectors Z of the members'
    d^2-row stack with singular values above tau times the largest, and
    the isometry V = conj(Z) with J_k = sum_i V[k, i] C_i."""
    canon, isoms, offsets = [], [], []
    for s in partition.sets:
        members = [partition.jumps[k] for k in s.indices]
        _, sv, vh = np.linalg.svd(_flat(members), full_matrices=False)
        z = vh[sv > linalg.threshold(tol) * sv[0]].conj().T
        offsets.append(len(canon))
        canon += [sum(z[k, i] * j for k, j in enumerate(members))
                  for i in range(z.shape[1])]
        isoms.append(z.conj())
    return canon, isoms, offsets


def _oracle_block_unitary(rep, sym, partition, pi_c, tol):
    canon, isoms, offsets = _oracle_canonical_sets(partition, tol)
    n, dd = len(partition.jumps), len(canon)
    v = np.zeros((n, dd), dtype=complex)
    for a, s in enumerate(partition.sets):
        for row, j in enumerate(s.indices):
            v[j, offsets[a]:offsets[a] + isoms[a].shape[1]] = isoms[a][row]
    sizes = [iso.shape[1] for iso in isoms]
    xt = np.zeros((dd, dd), dtype=complex)
    for a, b in enumerate(pi_c):
        if sizes[a] != sizes[b]:
            raise CompletionFailed("ranks differ")
        for i in range(sizes[a]):
            src = sym.conjugate(canon[offsets[a] + i])
            for j in range(sizes[b]):
                tgt = canon[offsets[b] + j]
                xt[offsets[a] + i, offsets[b] + j] = np.vdot(tgt, src) / np.vdot(tgt, tgt)
    u = v @ xt @ dag(v) + (np.eye(n) - v @ dag(v))
    _oracle_verify(u, partition.jumps, [sym.conjugate(j) for j in partition.jumps], tol)
    return u


@st.composite
def random_models(draw):
    """(representation, symmetry matrix) with no built-in symmetry: U of a
    random finite order or Haar-random, H random or averaged over U, full-
    rank, reset and identity-proportional jumps."""
    dim = draw(st.integers(2, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    order = draw(st.sampled_from([None, 1, 2, 3, 4, 6]))

    def gaussian(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    v = random_unitary(rng, dim)
    u = v if order is None else v @ np.diag(
        np.exp(2j * np.pi * rng.integers(0, order, dim) / order)) @ dag(v)
    h = gaussian(dim, dim)
    h = h + dag(h)
    if order is not None and draw(st.booleans()):
        powers = [np.linalg.matrix_power(u, k) for k in range(order)]
        h = sum(p @ h @ dag(p) for p in powers)
    dest = gaussian(dim)
    jumps = [gaussian(dim, dim) for _ in range(draw(st.integers(0, 2)))]
    jumps += [np.outer(dest, gaussian(dim).conj())
              for _ in range(draw(st.integers(0, 2)))]
    jumps += [(0.5 + 1j) * np.eye(dim)] * draw(st.integers(0, 1))
    return Representation(h, tuple(jumps)), u


def _assert_results_agree(new, old, same_target, scale=1.0):
    """Verdicts, certificates and residuals agree; permutations are equal
    unless two targets coincide (a U-orbit that repeats a jump), where
    rounding breaks the tie and same_target(a, b) must hold instead.
    Certificates solved from a Gram matrix move by eps times its condition
    number under any change of rounding, so their bound is 1e-12 * scale."""
    assert new.holds == old.holds
    assert abs(new.hamiltonian_residual - old.hamiltonian_residual) <= 1e-12
    if not new.holds:
        return
    assert abs(new.residual - old.residual) <= 1e-12
    assert abs(new.mixing_residual - old.mixing_residual) <= 1e-12 * scale
    if new.permutation != old.permutation:
        assert all(same_target(i, new, old) for i in range(len(new.permutation)))
        return
    for a, b, bound in ((new.mixing, old.mixing, 1e-12 * scale),
                        (new.unitary, old.unitary, 1e-12 * scale),
                        (new.phases, old.phases, 1e-12)):
        assert (a is None) == (b is None)
        if a is not None:
            assert np.max(np.abs(np.subtract(a, b)), initial=0.0) <= bound


def _gram_condition(jumps, tol):
    """Condition number of the Gram matrix of the jumps on their span."""
    s = np.linalg.svd(_flat(jumps), compute_uv=False) \
        if jumps else np.ones(1)
    s = s[s > tol * s[0]]
    return (s[0] / s[-1]) ** 2 if s.size else 1.0


def _assert_matches_oracle(rep, u, tol=1e-9):
    with mock.patch.object(sjed, "_rank_one_split", _oracle_rank_one_split):
        oracle_partition = build_sjeds(rep, tol)
    partition = build_sjeds(rep, tol)
    assert [(s.indices, s.kind) for s in partition.sets] \
        == [(s.indices, s.kind) for s in oracle_partition.sets]
    sym = SymmetryOperator.from_matrix(u)
    assert sym.order == _oracle_order(u)
    report = build_symmetry_report(rep, sym, tol, partition)

    def same_set(a, new, old):
        return all(_choi_gap(partition, sym, c.permutation[a], a) <= 1e-8
                   for c in (new, old))

    def same_jump(j, new, old):
        a, b = (np.exp(1j * c.phases[j]) * rep.jumps[c.permutation[j]]
                for c in (new, old))
        return frob(a - b) <= 1e-8 * frob(a)

    oracle_I = _oracle_condition_I(rep, sym, tol)
    oracle_II = _oracle_condition_II(rep, sym, tol, partition, oracle_I)
    _assert_results_agree(report.condition_I, oracle_I,
                          None, _gram_condition(rep.traceless[1], tol))
    _assert_results_agree(report.condition_II, oracle_II, same_set)
    _assert_results_agree(report.condition_III,
                          _oracle_condition_III(rep, sym, tol, oracle_II), same_jump)
    pi_c = report.condition_II.permutation
    if not report.condition_II.holds:
        return
    new = report.condition_II.unitary
    if not rep.jumps:   # the dense completion failed here; 0 x 0 is right
        assert new.shape == (0, 0)
        return
    try:
        old = _oracle_block_unitary(rep, sym, partition, pi_c, tol)
    except CompletionFailed:
        old = None
    assert (new is None) == (old is None)
    if new is not None:
        assert np.max(np.abs(new - old), initial=0.0) <= 1e-12


@given(symmetric_models())
def test_shared_images_match_dense_oracle_on_symmetric_models(model):
    rep, sym, _, _ = model
    _assert_matches_oracle(rep, sym.matrix)


@given(random_models())
def test_shared_images_match_dense_oracle_on_random_models(model):
    _assert_matches_oracle(*model)


@given(order=st.integers(1, 80), dim=st.integers(1, 4),
       seed=st.integers(0, 2 ** 32 - 1))
def test_eigenphase_order_matches_product_loop(order, dim, seed):
    # eigenphases 2 pi k / order with one k = 1, so U has order
    # order / gcd(order, k - 1) (None beyond the cap of 64); dim 1 gives a
    # multiple of the identity
    rng = np.random.default_rng(seed)
    steps = np.concatenate([[1], rng.integers(0, order, dim - 1)])
    v = random_unitary(rng, dim)
    u = np.exp(2j * np.pi * rng.random()) \
        * v @ np.diag(np.exp(2j * np.pi * steps / order)) @ dag(v)
    got = SymmetryOperator.from_matrix(u).order
    assert got == _oracle_order(u)
    exact = order // math.gcd(order, *(int(k) - 1 for k in steps))
    assert got == (exact if exact <= 64 else None)
    for w in (np.exp(0.3j) * np.eye(dim), random_unitary(rng, dim + 1)):
        assert SymmetryOperator.from_matrix(w).order == _oracle_order(w)


@given(dim=st.integers(2, 6), big=st.sampled_from([None, 8, linalg.SMALL_DIM + 8]),
       tol=st.sampled_from([1e-9, 1e-6, 1e-3]),
       ratio=st.sampled_from([0.01, 0.999, 1.001, 100.0]), spread=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_rank_one_split_keeps_the_singular_value_threshold(dim, big, tol, ratio, spread,
                                                           seed):
    # s_1 / s_0 = ratio * tol, just under and just over the threshold; with
    # spread every lower singular value is s_1, as in diag(1, d, .., d)
    rng = np.random.default_rng(seed)
    s = np.zeros(dim)
    s[0] = rng.uniform(0.5, 2.0)
    s[1:] = ratio * tol * s[0] if spread else 0.0
    s[1] = ratio * tol * s[0]
    u, v = random_unitary(rng, dim), random_unitary(rng, dim)
    j = u @ np.diag(s) @ dag(v)
    new, old = sjed._rank_one_split(j, tol), _oracle_rank_one_split(j, tol)
    assert (new is None) == (old is None) == (ratio > 1.0)
    if new is not None:
        assert np.max(np.abs(new[0] - old[0])) <= 1e-12
        assert np.max(np.abs(new[1] - old[1])) <= 1e-12 * s[0]
    # a second jump with the same destination joins the first one's set;
    # with big, both sit on random rows and columns of a big x big zero
    # matrix, whose block the SJEDs read
    jumps = [j, j @ random_unitary(rng, dim)]
    if big is not None:
        rows, cols = (np.sort(rng.choice(big, dim, replace=False)) for _ in range(2))
        for k, block in enumerate(jumps):
            jumps[k] = np.zeros((big, big), dtype=complex)
            jumps[k][np.ix_(rows, cols)] = block
    h = np.zeros(jumps[0].shape)
    rep = Representation(h, tuple(jumps))
    with mock.patch.object(sjed, "_rank_one_split", _oracle_rank_one_split):
        oracle = build_sjeds(rep, tol)
    arrays = build_sjeds(rep, tol)
    assert [(s.indices, s.kind) for s in arrays.sets] \
        == [(s.indices, s.kind) for s in oracle.sets]
    # as CSR matrices (held as such above SMALL_DIM) the same sets,
    # destinations and sources, bit for bit
    sparse = build_sjeds(Representation(h, tuple(map(scipy.sparse.csr_array, jumps))), tol)
    assert [(s.indices, s.kind) for s in arrays.sets] \
        == [(s.indices, s.kind) for s in sparse.sets]
    for a, b in zip(arrays.sets, sparse.sets):
        for x, y in ((a.destination, b.destination), (a.sources, b.sources)):
            assert (x is None) == (y is None)
            assert x is None or x.tobytes() == y.tobytes()
    # and within 1e-12 of the oracle split of each dense jump
    if ratio < 1.0:
        reset, = arrays.sets
        assert reset.indices == (0, 1) and reset.kind == "reset"
        for k, m in enumerate(jumps):
            dest, source = _oracle_rank_one_split(m, tol)
            assert np.max(np.abs(reset.destination - dest)) <= 1e-12
            assert np.max(np.abs(reset.sources[:, k] - source)) <= 1e-12 * s[0]


def _assert_condition_II_is_generator_equality(rep, sym, groups=None):
    """Condition II holds with pi_c exactly when rep and U rep U† share the
    unravelled generator with the SJED matching pi_c; where two sets have
    the same action, rounding may break the tie either way."""
    moved = Representation(sym.conjugate(rep.hamiltonian),
                           tuple(sym.conjugate(j) for j in rep.jumps))
    pa, pb = (build_sjeds(r) if groups is None else partition_from_groups(r, groups)
              for r in (rep, moved))
    c2 = check_condition_II(rep, sym, partition=pa)
    ok, pi, _ = same_unravelled_generator(rep, moved, partition_a=pa, partition_b=pb)
    assert c2.holds == ok
    if ok and c2.permutation != pi:
        assert all(_choi_gap(pa, sym, perm[b], b) <= 1e-8
                   for perm in (c2.permutation, pi) for b in range(pa.nsets))


@given(symmetric_models())
def test_condition_II_is_generator_equality_on_symmetric_models(model):
    rep, sym, _, split = model
    _assert_condition_II_is_generator_equality(
        rep, sym, [[k] for k in range(rep.njumps)] if split else None)


@given(random_models())
def test_condition_II_is_generator_equality_on_random_models(model):
    rep, u = model
    _assert_condition_II_is_generator_equality(rep, SymmetryOperator.from_matrix(u))


# ------------------------------------- off-block mass against condition I

@st.composite
def weak_symmetry_models(draw):
    """(representation, symmetry, kind).  "symmetric": U has irrational
    eigenphases sqrt(2) k (order None; degenerate where the k repeat), H
    commutes with U (not a multiple of 1), and the jumps are a unitary mix of eigenoperators of
    the conjugation, so that their images are a unitary mix of the jumps.
    "moved": such a model with H or one jump shifted by a random matrix of
    norm 1e-3 to 1.  "random": Haar U, H and jumps unconstrained."""
    kind = draw(st.sampled_from(["symmetric", "moved", "random"]))
    dim = draw(st.integers(2, 4))
    njumps = draw(st.integers(0, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def gaussian(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    v = random_unitary(rng, dim)
    if kind == "random":
        h = gaussian(dim, dim)
        jumps = [gaussian(dim, dim) for _ in range(njumps)]
        return Representation(h + dag(h), jumps), SymmetryOperator.from_matrix(v), kind
    steps = rng.permutation(np.r_[0, 1, rng.integers(0, 3, dim - 2)])
    u = v @ np.diag(np.exp(np.sqrt(2.0) * 1j * steps)) @ dag(v)
    h = gaussian(dim, dim) * np.equal.outer(steps, steps)
    h = v @ (h + dag(h)) @ dag(v)
    eigen = []
    for _ in range(njumps):
        a, b = rng.choice(steps, 2)
        mask = np.outer(steps == a, steps == b)
        eigen.append(v @ (gaussian(dim, dim) * mask) @ dag(v))
    jumps = list(np.einsum("mk,kab->mab", random_unitary(rng, njumps),
                           np.reshape(eigen, (njumps, dim, dim))))
    if kind == "moved":
        shift = gaussian(dim, dim) * 10.0 ** rng.uniform(-3, 0)
        if jumps and rng.random() < 0.5:
            jumps[0] = jumps[0] + shift
        else:
            h = h + shift + dag(shift)
    return Representation(h, jumps), SymmetryOperator.from_matrix(u), kind


@given(weak_symmetry_models())
def test_off_block_mass_vanishes_exactly_when_condition_I_holds(model):
    rep, sym, kind = model
    holds = check_condition_I(rep, sym).holds
    assert (off_block_mass(liouville_matrix(rep), sym) <= 1e-10) == holds
    assert holds == (kind == "symmetric")


# ------------------------------------- support-column images, dense oracle
#
# SymmetryImages forms U X U† in U's form and takes its thin QR
# over the columns where 1, a J'_j or an image is nonzero.  The oracle is
# the full-stack computation: dense U X U† and one QR of the d^2-long rows.

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


@st.composite
def sparse_symmetry_inputs(draw):
    """(representation, U) with U dense, monomial (a permutation times
    phases), local (a unitary on one factor of a product space) or a
    Hadamard factor whose image of a jump cancels to exact zeros; the
    jumps are sparse, some with a trace and some of rank one."""
    kind = draw(st.sampled_from(["dense", "monomial", "local", "cancel"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def gaussian(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    if kind in ("dense", "monomial"):
        d = draw(st.integers(2, 6))
        u = random_unitary(rng, d) if kind == "dense" else \
            np.eye(d)[rng.permutation(d)] * np.exp(2j * np.pi * rng.random(d))
    else:
        m = draw(st.integers(1, 3))
        d = 2 * m
        u = np.kron(HADAMARD, np.eye(m)) if kind == "cancel" else \
            np.kron(random_unitary(rng, 2), np.eye(m))
    def sparse(n):
        v = np.zeros(n, dtype=complex)
        k = rng.integers(1, min(n, d) + 1)
        v[rng.choice(n, k, replace=False)] = gaussian(k)
        return v

    jumps = [sparse(d * d).reshape(d, d) for _ in range(draw(st.integers(1, 4)))]
    jumps.append(np.outer(sparse(d), sparse(d).conj()))
    if kind == "cancel":
        # U J U† = kron(H ones H, A): its lower blocks are h*h*a - h*h*a
        a = np.zeros((d // 2, d // 2), dtype=complex)
        a.flat[rng.integers(0, a.size)] = 1.0
        jumps.append(np.kron(np.ones((2, 2)), a + gaussian(*a.shape) * (a != 0)))
    h = np.zeros((d, d), dtype=complex)
    h[0, -1] = gaussian(1)[0]
    return Representation(h + dag(h), tuple(jumps)), u


def _oracle_coordinates(rep, u):
    """(jump coordinates, image coordinates) from one QR of the full
    d^2-long stack of 1, the J'_j and their dense images."""
    d, n = rep.dim, rep.njumps
    _, traceless = rep.traceless
    stack = [np.eye(d), *traceless, *(u @ j @ dag(u) for j in traceless)]
    r = np.linalg.qr(_flat(stack), mode="r")
    shift = np.outer(r[:, 0], [np.trace(j) / d for j in rep.jumps])
    return r[:, 1:n + 1] + shift, r[:, n + 1:] + shift


def _oracle_frame_gaps(a, b, sets):
    out = np.empty((len(sets), len(sets)))
    for beta, sb in enumerate(sets):
        for alpha, sa in enumerate(sets):
            x, y = a[:, list(sa)], b[:, list(sb)]
            fa, fb = x @ dag(x), y @ dag(y)
            out[beta, alpha] = frob(fa - fb) / max(frob(fa), frob(fb), 1e-300)
    return out


@given(sparse_symmetry_inputs())
def test_support_column_images_match_the_full_stack(inputs):
    rep, u = inputs
    tol = 1e-9
    sym = SymmetryOperator.from_matrix(u)
    images = sym.images(rep)
    a, b = _oracle_coordinates(rep, u)
    # overlaps P[j, k] = <J_k, U J_j U†>, relative to ||J_j|| ||J_k|| (P
    # may vanish)
    want = b.T @ a.conj()
    assert frob(images.overlaps - want) <= 1e-12 * frob(a) * frob(b)
    # condition I's least-norm mixing matrix and its residual
    cut = linalg.threshold(tol)
    x, resid = linalg.SpanMap(images.frame_jumps, images.frame_images, tol).mixing
    _, traceless = rep.traceless
    fa = _flat(traceless)
    fb = _flat([u @ j @ dag(u) for j in traceless])
    xt, *_ = np.linalg.lstsq(fa, fb, rcond=cut)
    want_resid = frob(fb - fa @ xt) / max(frob(fb), 1e-300)
    assert frob(x - xt.T) <= 1e-12 * max(frob(xt), 1.0)
    assert abs(resid - want_resid) <= 1e-12
    # condition II's frame gaps, every pair of SJEDs
    sets = [s.indices for s in build_sjeds(rep, tol).sets]
    with mock.patch.object(linalg, "assign", wraps=linalg.assign) as spy:
        sjed.match_sets(images.jumps, images.jump_images, sets, sets, tol)
    got = spy.call_args.args[0]
    assert np.max(np.abs(got - _oracle_frame_gaps(a, b, sets))) <= 1e-12
    # the order and the eigen-decomposition, on first use
    phases, basis = linalg.unitary_eigendecomposition(u)
    assert np.array_equal(sym.phases, phases) and np.array_equal(sym.eigenbasis, basis)
    assert sym.order == _oracle_order(u)


@given(sparse_symmetry_inputs())
def test_array_and_csr_forms_of_u_give_one_image_and_order(inputs):
    # U is held as an array up to linalg.SMALL_DIM and as a CSR matrix above;
    # at one dim the two forms give the same image entries, in order of k
    # and of rows, and the same group order
    rep, u = inputs
    d, nonzeros = rep.dim, rep.nonzeros
    n = int(nonzeros[0][-1]) + 1
    held = SymmetryOperator.from_matrix(u)
    csr = SymmetryOperator(scipy.sparse.csr_array(u))
    assert isinstance(held.u, np.ndarray)
    images = []
    for sym in (held, csr):
        k, rows, cols, values = sym.conjugate_nonzeros(*nonzeros)
        assert np.all(np.diff(k * d + rows) >= 0)
        stack = np.zeros((n, d, d), dtype=complex)
        stack[k, rows, cols] = values
        images.append(stack)
    assert frob(images[0] - images[1]) <= 1e-14 * frob(images[0])
    assert held.order == csr.order


# ------------------------------------------- images from nonzeros, dense oracle
#
# SymmetryImages forms U A U† from A's nonzero entries and U's stored
# columns.  The oracle is the dense product and one QR of the full d^2-long
# stack of the traceless jumps and their images.

@st.composite
def nonzero_image_inputs(draw):
    """(representation, U): jumps dense, chain-like with one or two
    nonzeros, proportional to 1 or of trace 0, and a dense, diagonal or
    zero Hamiltonian; U a phased permutation, a Haar unitary or a tensor
    product of local unitaries."""
    kind = draw(st.sampled_from(["permutation", "haar", "local"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def gaussian(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    if kind == "local":
        factors = [random_unitary(rng, m)
                   for m in draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))]
        u = factors[0]
        for f in factors[1:]:
            u = np.kron(u, f)
        d = len(u)
    else:
        d = draw(st.integers(1, 6))
        u = random_unitary(rng, d) if kind == "haar" else \
            np.eye(d)[rng.permutation(d)] * np.exp(2j * np.pi * rng.random(d))
    jumps = [gaussian(d, d) for _ in range(draw(st.integers(0, 2)))]
    for _ in range(draw(st.integers(0 if jumps else 1, 3))):
        j = np.zeros(d * d, dtype=complex)
        k = draw(st.integers(1, min(2, d * d)))
        j[rng.choice(d * d, k, replace=False)] = gaussian(k)
        jumps.append(j.reshape(d, d))
    if draw(st.booleans()):
        jumps.append(gaussian(1)[0] * np.eye(d))
    if d > 1 and draw(st.booleans()):
        j = gaussian(d, d)
        jumps.append(j - np.trace(j) / d * np.eye(d))
    h = draw(st.sampled_from(["dense", "diagonal", "zero"]))
    h = gaussian(d, d) if h == "dense" else \
        np.diag(gaussian(d)) if h == "diagonal" else np.zeros((d, d))
    return Representation(h + dag(h), tuple(jumps)), u


@given(nonzero_image_inputs())
def test_images_from_nonzeros_match_dense_products(inputs):
    rep, u = inputs
    images = SymmetryOperator.from_matrix(u).images(rep)
    frame_hamiltonian, traceless = rep.traceless
    for got, a in ((images.hamiltonian_image, rep.hamiltonian),
                   (images.frame_hamiltonian_image, frame_hamiltonian)):
        assert frob(got - u @ a @ dag(u)) <= 1e-12 * frob(a)
    # the coordinates' Gram matrix is that of the dense stack
    r = np.linalg.qr(_flat([*traceless, *(u @ j @ dag(u) for j in traceless)]),
                     mode="r")
    coords = np.hstack([images.frame_jumps, images.frame_images])
    want = dag(r) @ r
    assert frob(dag(coords) @ coords - want) <= 1e-12 * frob(want)


# ------------------------------------ operator coordinates, dense-row oracle
#
# linalg.operator_coordinates reads every family from its nonzero entries.
# The oracle is one QR of the families' dense rows (d^2 long for d x d
# operators) behind the master-operator test, the SJED matching and the
# span maps.

def _dense_rows(family) -> list:
    return [np.asarray(a.toarray() if scipy.sparse.issparse(a) else a,
                       dtype=complex).reshape(-1) for a in family]


def _oracle_operator_coordinates(*families):
    rows = [r for f in families for r in _dense_rows(f)]
    if not rows:
        return tuple(np.zeros((0, 0), dtype=complex) for _ in families)
    r = np.linalg.qr(np.array(rows).T, mode="r")
    ends = np.cumsum([0, *map(len, families)])
    return tuple(r[:, a:b] for a, b in zip(ends[:-1], ends[1:]))


def _oracle_master_coordinates(rep_a, rep_b, tol):
    """lindblad._master_coordinates on the dense d^2-long rows."""
    d = rep_a.dim
    ha, hb = rep_a.traceless[0], rep_b.traceless[0]
    ha = ha - (np.trace(ha) / d) * np.eye(d)
    hb = hb - (np.trace(hb) / d) * np.eye(d)
    if frob(ha - hb) > tol * max(frob(ha), frob(hb), 1.0):
        return None
    a, b = _oracle_operator_coordinates(rep_a.traceless[1], rep_b.traceless[1])
    gap, fa, fb = linalg.frame_gap(a, b)
    return (a, b) if gap <= tol * max(fa, fb, 1e-300) else None


def _oracle_same_unravelled_generator(rep_a, rep_b, tol):
    """(ok, pi_c) of same_unravelled_generator on the dense d^2-long rows."""
    d = rep_a.dim
    diff = rep_b.hamiltonian - rep_a.hamiltonian
    r = np.trace(diff) / d
    scale = max(frob(rep_a.hamiltonian), frob(rep_b.hamiltonian), 1.0)
    if abs(r.imag) > tol * scale or frob(diff - r * np.eye(d)) > tol * scale:
        return False, None
    pa, pb = build_sjeds(rep_a, tol), build_sjeds(rep_b, tol)
    pi, _ = sjed.match_sets(*_oracle_operator_coordinates(rep_a.jumps, rep_b.jumps),
                            [s.indices for s in pa.sets], [s.indices for s in pb.sets],
                            tol)
    return pi is not None, pi


@st.composite
def operator_families(draw):
    """(jumps, targets, spare): two families of up to 64 operators of one
    size, each a dense or a scipy.sparse d x d matrix, or all 1-D
    coordinate vectors, with 1 to all entries nonzero.  The targets are a
    unitary remix of the jumps (so their frames agree), a random mix of
    them, independent of them, or zero (all, or some); either family may
    be empty.  spare asks for an empty family between the two."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    vectors = draw(st.booleans())
    d = draw(st.integers(1, 4))
    size = draw(st.integers(1, 16)) if vectors else d * d
    n = draw(st.integers(0, 64))
    kind = draw(st.sampled_from(["remix", "mix", "independent", "zero", "some zero"]))

    def gaussian(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    def family(m):
        out = np.zeros((m, size), dtype=complex)
        for row in out:
            k = rng.integers(1, size + 1)
            row[rng.choice(size, k, replace=False)] = gaussian(k)
        return out

    jumps = family(n)
    if kind == "remix":
        targets = random_unitary(rng, n) @ jumps if n else jumps.copy()
    elif kind == "mix":
        targets = gaussian(n, n) @ jumps
    else:
        targets = family(n)
        if kind != "independent":
            targets[rng.random(n) < (1.0 if kind == "zero" else 0.5)] = 0.0

    def operators(rows):
        if vectors:
            return list(rows)
        sparse = rng.random(len(rows)) < 0.5
        return [scipy.sparse.csr_array(r.reshape(d, d)) if s else r.reshape(d, d)
                for r, s in zip(rows, sparse)]

    return operators(jumps), operators(targets), draw(st.booleans())


@given(operator_families())
def test_operator_coordinates_match_the_dense_row_stack(families):
    jumps, targets, spare = families
    got = linalg.operator_coordinates(jumps, [], targets) if spare else \
        linalg.operator_coordinates(jumps, targets)
    a, b = got[0], got[-1]
    assert [x.shape[1] for x in got] == [len(jumps), *([0] if spare else []), len(targets)]
    oa, ob = _oracle_operator_coordinates(jumps, targets)
    # the frame gap and both frames' norms
    want = linalg.frame_gap(oa, ob)
    scale = max(want[1], want[2], 1e-300)
    assert np.max(np.abs(np.subtract(linalg.frame_gap(a, b), want))) <= 1e-12 * scale
    # the span maps of the mixing and of general_unitary_completion
    for tol in (np.sqrt(1e-9), 1e-9):
        span, oracle = linalg.SpanMap(a, b, tol), linalg.SpanMap(oa, ob, tol)
        assert span.svd[3] == oracle.svd[3]
        x, resid = span.mixing
        ox, oresid = oracle.mixing
        assert frob(x - ox) <= 1e-12 * max(frob(ox), 1.0)
        assert abs(resid - oresid) <= 1e-12
    u, ou = span.certificate(), oracle.certificate()
    assert (u is None) == (ou is None)
    if u is not None:
        assert frob(u - ou) <= 1e-12 * max(frob(ou), 1.0)


@st.composite
def representation_pairs(draw):
    """(rep_a, rep_b): rep_a with up to 64 jumps (dense, sparse, rank one to
    a shared destination, or proportional to 1, so with a zero traceless
    part), rep_b a remix inside rep_a's SJEDs or a unitary remix of all its
    jumps, the latter also with H shifted by a multiple of 1, with H
    moved, or with its jumps perturbed."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    d = draw(st.integers(1, 4))

    def gaussian(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    dest = gaussian(d)
    jumps = []
    for kind in draw(st.lists(st.sampled_from(["dense", "sparse", "reset", "identity"]),
                              min_size=1, max_size=64)):
        if kind == "dense":
            jumps.append(gaussian(d, d))
        elif kind == "sparse":
            j = np.zeros(d * d, dtype=complex)
            j[rng.integers(d * d)] = gaussian(1)[0]
            jumps.append(j.reshape(d, d))
        elif kind == "reset":
            jumps.append(np.outer(dest, gaussian(d).conj()))
        else:
            jumps.append(gaussian(1)[0] * np.eye(d))
    h = gaussian(d, d)
    rep_a = Representation(h + dag(h), tuple(jumps))
    move = draw(st.sampled_from(["sjeds", "all", "shifted H", "moved H", "perturbed"]))
    if move == "sjeds":
        return rep_a, Representation(rep_a.hamiltonian,
                                     remix_within_sets(build_sjeds(rep_a), rng))
    mixed = np.tensordot(random_unitary(rng, len(jumps)), np.array(jumps), axes=1)
    if move == "perturbed":
        mixed = mixed + 1e-3 * gaussian(*mixed.shape)
    g = gaussian(d, d)
    h = rep_a.hamiltonian + {"shifted H": 0.7 * np.eye(d),
                             "moved H": 1e-3 * (g + dag(g))}.get(move, 0.0)
    return rep_a, Representation(h, tuple(mixed))


@given(representation_pairs())
def test_master_and_sjed_verdicts_match_the_dense_row_stack(pair):
    rep_a, rep_b = pair
    tol = 1e-9
    assert representations_equal(rep_a, rep_b, tol) == \
        (_oracle_master_coordinates(rep_a, rep_b, tol) is not None)
    ok, pi, _ = same_unravelled_generator(rep_a, rep_b, tol)
    assert (ok, pi) == _oracle_same_unravelled_generator(rep_a, rep_b, tol)
