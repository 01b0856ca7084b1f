"""Property tests of the condition hierarchy on representations that are
symmetric by construction, and of the shared symmetry images against the
dense per-check computation they replaced."""

import math
from unittest import mock

import numpy as np
from hypothesis import given, strategies as st

from weaksym import linalg, sjed
from weaksym.lindblad import Representation
from weaksym.linalg import dag, frob
from weaksym.sjed import (
    build_sjeds,
    canonical_sets_with_isometries,
    composite_choi,
    composite_signature,
    match_signatures,
    partition_from_groups,
    remix_within_sets,
    signature_distance,
)
from weaksym.symmetry import (
    CompletionFailed,
    ConditionResult,
    SymmetryOperator,
    blockwise_unitary_completion,
    build_symmetry_report,
    check_condition_I,
)


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

    v = linalg.random_unitary(rng, dim)
    u = v @ np.diag(np.exp(2j * np.pi * np.array(steps) / order)) @ dag(v)
    powers = [np.linalg.matrix_power(u, k) for k in range(order)]
    h = gaussian(dim, dim)
    h = sum(p @ (h + dag(h)) @ dag(p) for p in powers)
    dest = gaussian(dim)
    seeds = [gaussian(dim, dim) for _ in range(n_full)]
    seeds += [np.outer(dest, gaussian(dim).conj()) for _ in range(n_reset)]
    rep = Representation(h, tuple(p @ j @ dag(p) for p in powers for j in seeds))
    if remixed:
        rep = rep.with_jumps(remix_within_sets(build_sjeds(rep), rng))
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


@given(symmetric_models(), st.data())
def test_relabelling_relabels_the_certificates(model, data):
    rep, sym, _, _ = model
    sigma = data.draw(st.permutations(range(rep.njumps)))
    relabelled = rep.with_jumps([rep.jumps[s] for s in sigma])
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
    w = linalg.random_unitary(np.random.default_rng(seed), rep.dim)
    moved = Representation(w @ rep.hamiltonian @ dag(w),
                           tuple(w @ j @ dag(w) for j in rep.jumps))
    a = check_condition_I(rep, sym)
    b = check_condition_I(moved, SymmetryOperator.from_matrix(w @ sym.matrix @ dag(w)))
    assert a.holds == b.holds
    for x, y in ((a.mixing, b.mixing), (a.unitary, b.unitary)):
        assert (x is None) == (y is None)
        if x is not None:
            assert frob(x - y) <= 1e-10 * frob(x)


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
        tr = np.trace(p) / d
        if abs(abs(tr) - 1.0) < 1e-9:
            if frob(p - tr / abs(tr) * np.eye(d)) < 1e-9 * np.sqrt(d):
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
    d = len(jumps)
    if frob(dag(u) @ u - np.eye(d)) > 1e3 * tol * max(1.0, d):
        raise CompletionFailed("not unitary")
    scale = max(max(frob(j) for j in jumps), 1e-300)
    for j, t in enumerate(targets):
        if frob(t - sum(u[j, k] * jumps[k] for k in range(d))) > 1e3 * tol * scale:
            raise CompletionFailed("targets not reproduced")


def _flat(ops):
    """Operators as the columns of a d^2 x len(ops) matrix."""
    return np.column_stack([o.reshape(-1) for o in ops])


def _oracle_frame_isometry(stack, flat_targets, tol):
    """(Q, N R^-1 or None, escape): M = Q R the coefficients of the jumps in
    an orthonormal basis of their span (an SVD cut at tol), N those of the
    targets; N R^-1 is isometric exactly when the frames agree."""
    w, s, _ = np.linalg.svd(stack, full_matrices=False)
    basis = w[:, :int(np.sum(s > tol * s[0]))]
    m = (dag(basis) @ stack).T
    n = (dag(basis) @ flat_targets).T
    escape = float(np.max(np.linalg.norm(flat_targets - basis @ n.T, axis=0)))
    q, rr = np.linalg.qr(m)
    qb = n @ np.linalg.inv(rr)
    r = q.shape[1]
    if frob(dag(qb) @ qb - np.eye(r)) > 1e3 * tol * max(1.0, r):
        qb = None
    return q, qb, escape


def _oracle_condition_I(rep, sym, tol):
    hp, jumps = rep.traceless
    h_resid = frob(sym.conjugate(hp) - hp)
    if h_resid > tol * max(frob(hp), 1.0):
        return ConditionResult(False, hamiltonian_residual=h_resid)
    if not jumps:
        return ConditionResult(True, hamiltonian_residual=h_resid,
                               mixing=np.zeros((0, 0)), unitary=np.zeros((0, 0)))
    targets = [sym.conjugate(j) for j in jumps]
    n = len(jumps)
    gram = np.array([[np.vdot(a, b) for b in jumps] for a in jumps])
    b = np.array([[np.vdot(m, t) for m in jumps] for t in targets])
    x = b @ np.linalg.pinv(gram, rcond=tol, hermitian=True).T
    x_resid = np.sqrt(sum(frob(t - sum(x[j, k] * jumps[k] for k in range(n))) ** 2
                          for j, t in enumerate(targets))) \
        / max(np.sqrt(sum(frob(t) ** 2 for t in targets)), 1e-300)
    if x_resid > tol:
        return ConditionResult(False, hamiltonian_residual=h_resid, mixing=x,
                               mixing_residual=x_resid)
    q, qb, escape = _oracle_frame_isometry(_flat(jumps), _flat(targets), tol)
    try:
        if escape > tol * max(max(frob(j) for j in jumps), 1e-300) or qb is None:
            raise CompletionFailed("no completion")
        u = qb @ dag(q) + (np.eye(n) - q @ dag(q))
        _oracle_verify(u, jumps, targets, tol)
    except CompletionFailed:
        return ConditionResult(False, hamiltonian_residual=h_resid, mixing=x,
                               mixing_residual=x_resid)
    return ConditionResult(True, hamiltonian_residual=h_resid, mixing=x,
                           mixing_residual=x_resid, unitary=u)


def _oracle_condition_II(rep, sym, tol, partition):
    h_resid = frob(sym.conjugate(rep.hamiltonian) - rep.hamiltonian)
    if h_resid > tol * max(frob(rep.hamiltonian), 1.0):
        return ConditionResult(False, hamiltonian_residual=h_resid)
    u = sym.matrix
    sigs = [composite_signature(partition, a) for a in range(partition.nsets)]
    images = [("reset", u @ s[1], u @ s[2] @ dag(u)) if s[0] == "reset"
              else ("prop", u @ s[1] @ dag(u), s[2]) for s in sigs]
    pi = match_signatures(sigs, images, max(tol * 100, 1e-8))
    if pi is None:
        return ConditionResult(False, hamiltonian_residual=h_resid)
    resid = max((signature_distance(images[a], sigs[pi[a]])
                 for a in range(len(sigs))), default=0.0)
    return ConditionResult(True, hamiltonian_residual=h_resid, permutation=pi,
                           residual=resid)


def _oracle_condition_III(rep, sym, tol, phase_tol=1e-8):
    h_resid = frob(sym.conjugate(rep.hamiltonian) - rep.hamiltonian)
    if h_resid > tol * max(frob(rep.hamiltonian), 1.0):
        return ConditionResult(False, hamiltonian_residual=h_resid)
    d = rep.njumps
    coeff = np.zeros((d, d), dtype=complex)
    cost = np.full((d, d), np.inf)
    for j in range(d):
        target = sym.conjugate(rep.jumps[j])
        for k, jump in enumerate(rep.jumps):
            c = np.vdot(jump, target) / frob(jump) ** 2
            if frob(target - c * jump) <= tol * max(frob(target), 1e-300) * 100:
                coeff[j, k] = c
                cost[j, k] = abs(abs(c) - 1.0) / phase_tol
    pi = linalg.assign(cost, 1.0)
    if pi is None:
        return ConditionResult(False, hamiltonian_residual=h_resid)
    return ConditionResult(True, hamiltonian_residual=h_resid, permutation=pi,
                           phases=tuple(float(np.angle(coeff[j, pi[j]]))
                                        for j in range(d)))


def _oracle_block_unitary(rep, sym, partition, pi_c, tol):
    canon, isoms, offsets = canonical_sets_with_isometries(partition, tol)
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
            mix = sum(xt[offsets[a] + i, offsets[b] + j] * canon[offsets[b] + j]
                      for j in range(sizes[b]))
            if frob(src - mix) > tol * max(frob(src), 1e-300) * 100:
                raise CompletionFailed("not onto the matched SJED")
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

    v = linalg.random_unitary(rng, dim)
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
    sigs = [composite_signature(partition, a) for a in range(partition.nsets)]

    def same_set(a, new, old):
        return signature_distance(sigs[new.permutation[a]],
                                  sigs[old.permutation[a]]) <= 1e-8

    def same_jump(j, new, old):
        a, b = (np.exp(1j * c.phases[j]) * rep.jumps[c.permutation[j]]
                for c in (new, old))
        return frob(a - b) <= 1e-8 * frob(a)

    _assert_results_agree(report.condition_I, _oracle_condition_I(rep, sym, tol),
                          None, _gram_condition(rep.traceless[1], tol))
    _assert_results_agree(report.condition_II,
                          _oracle_condition_II(rep, sym, tol, partition), same_set)
    _assert_results_agree(report.condition_III, _oracle_condition_III(rep, sym, tol),
                          same_jump)
    pi_c = report.condition_II.permutation
    if not report.condition_II.holds:
        return
    try:
        new = blockwise_unitary_completion(rep, sym, partition, pi_c)
    except CompletionFailed:
        new = None
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
    v = linalg.random_unitary(rng, dim)
    u = np.exp(2j * np.pi * rng.random()) \
        * v @ np.diag(np.exp(2j * np.pi * steps / order)) @ dag(v)
    got = SymmetryOperator.from_matrix(u).order
    assert got == _oracle_order(u)
    exact = order // math.gcd(order, *(int(k) - 1 for k in steps))
    assert got == (exact if exact <= 64 else None)
    for w in (np.exp(0.3j) * np.eye(dim), linalg.random_unitary(rng, dim + 1)):
        assert SymmetryOperator.from_matrix(w).order == _oracle_order(w)


@given(dim=st.integers(2, 6), tol=st.sampled_from([1e-9, 1e-6, 1e-3]),
       ratio=st.sampled_from([0.01, 0.999, 1.001, 100.0]), spread=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_rank_one_split_keeps_the_singular_value_threshold(dim, tol, ratio, spread,
                                                           seed):
    # s_1 / s_0 = ratio * tol, just under and just over the threshold; with
    # spread every lower singular value is s_1, as in diag(1, d, .., d)
    rng = np.random.default_rng(seed)
    s = np.zeros(dim)
    s[0] = rng.uniform(0.5, 2.0)
    s[1:] = ratio * tol * s[0] if spread else 0.0
    s[1] = ratio * tol * s[0]
    u, v = linalg.random_unitary(rng, dim), linalg.random_unitary(rng, dim)
    j = u @ np.diag(s) @ dag(v)
    new, old = sjed._rank_one_split(j, tol), _oracle_rank_one_split(j, tol)
    assert (new is None) == (old is None) == (ratio > 1.0)
    if new is not None:
        assert np.max(np.abs(new[0] - old[0])) <= 1e-12
        assert np.max(np.abs(new[1] - old[1])) <= 1e-12 * s[0]
    # a second jump with the same destination joins the first one's set
    rep = Representation(np.zeros((dim, dim)), (j, j @ linalg.random_unitary(rng, dim)))
    with mock.patch.object(sjed, "_rank_one_split", _oracle_rank_one_split):
        oracle = build_sjeds(rep, tol)
    assert [(s.indices, s.kind) for s in build_sjeds(rep, tol).sets] \
        == [(s.indices, s.kind) for s in oracle.sets]
