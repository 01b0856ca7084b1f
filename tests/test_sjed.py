from unittest import mock

import numpy as np
import pytest
import scipy.sparse

from weaksym import linalg, models
from weaksym.lindblad import (Representation, change_superoperator_basis, jump_part_choi,
                              pure_state)
from weaksym.linalg import dag, frob, hermitian_eigendecomposition
from weaksym.sjed import (
    build_sjeds,
    canonical_family,
    canonical_sjed_representation,
    composite_choi,
    match_sets,
    partition_from_groups,
    same_unravelled_generator,
)
from weaksym.symmetry import SymmetryOperator

from conftest import (SM, SX, SZ, composite_action, random_pure_state, random_unitary,
                      remix_within_sets)


def _rank(m):
    """Number of singular values above 1e-9 times the largest one."""
    return np.linalg.matrix_rank(m, tol=1e-9 * np.linalg.norm(m, 2))


def test_qubit_ii_partition():
    m = models.qubit_ii()
    p = build_sjeds(m.rep)
    assert [s.indices for s in p.sets] == [(0, 1), (2,)]
    assert p.sets[0].kind == "proportional"
    assert p.sets[1].kind == "proportional"


def test_twoqubit_ii_partition_reset():
    m = models.twoqubit_ii()
    p = build_sjeds(m.rep)
    assert [s.indices for s in p.sets] == [(0, 1), (2, 3)]
    assert all(s.kind == "reset" for s in p.sets)
    # destinations |00> and |11> in the (|1>,|0>) per-qubit ordering
    e00 = np.zeros(4)
    e00[3] = 1.0
    e11 = np.zeros(4)
    e11[0] = 1.0
    assert abs(np.vdot(p.sets[0].destination, e00)) > 1 - 1e-12
    assert abs(np.vdot(p.sets[1].destination, e11)) > 1 - 1e-12
    for s in p.sets:
        w, _ = hermitian_eigendecomposition(s.sources @ dag(s.sources))
        assert np.min(w) > -1e-12


def test_full_rank_jumps_are_singletons():
    rep = models.qubit_weak().rep
    p = build_sjeds(rep)
    assert p.nsets == 2
    assert all(s.size == 1 for s in p.sets)


def test_composite_action_singleton(rng):
    rep = models.qubit_weak().rep
    p = build_sjeds(rep)
    psi = random_pure_state(rng, 2)
    j = rep.jumps[0]
    assert frob(composite_action(p, 0, psi) - j @ psi @ dag(j)) < 1e-14
    with pytest.raises(IndexError):
        composite_action(p, 5, psi)


def test_composite_action_reset_form(rng):
    m = models.twoqubit_ii()
    p = build_sjeds(m.rep)
    psi = random_pure_state(rng, 4)
    for a, s in enumerate(p.sets):
        expected = np.outer(s.destination, s.destination.conj()) \
            * np.trace(s.sources @ dag(s.sources) @ psi)
        assert frob(composite_action(p, a, psi) - expected) < 1e-12


def test_composite_actions_cover_all_jumps(rng):
    m = models.qubit_ii()
    p = build_sjeds(m.rep)
    psi = random_pure_state(rng, 2)
    total = sum(composite_action(p, a, psi) for a in range(p.nsets))
    direct = sum(j @ psi @ dag(j) for j in m.rep.jumps)
    assert frob(total - direct) < 1e-13


def test_composite_action_preserves_purity(rng):
    for m in (models.qubit_ii(), models.twoqubit_ii()):
        p = build_sjeds(m.rep)
        for _ in range(5):
            psi = random_pure_state(rng, m.rep.dim)
            for a in range(p.nsets):
                out = composite_action(p, a, psi)
                if frob(out) > 1e-12:
                    assert _rank(out) == 1


def test_partition_invariant_under_remixing(rng):
    m = models.twoqubit_ii()
    p = build_sjeds(m.rep)
    mixed = remix_within_sets(p, rng)
    p2 = build_sjeds(Representation(m.rep.hamiltonian, mixed))
    assert [s.indices for s in p2.sets] == [s.indices for s in p.sets]
    for a in range(p.nsets):
        assert frob(composite_choi(p, a) - composite_choi(p2, a)) < 1e-10


def test_same_generator_reflexive():
    rep = models.qubit_ii().rep
    ok, pi, r = same_unravelled_generator(rep, rep)
    assert ok and pi == (0, 1) and abs(r) < 1e-12
    # identical jumps grouped apart give coinciding SJED signatures
    rep = Representation(np.zeros((2, 2)), (SM, SM))
    p = partition_from_groups(rep, [[0], [1]])
    assert same_unravelled_generator(rep, rep, partition_a=p,
                                     partition_b=p) == (True, (0, 1), 0.0)


def test_same_generator_qubit_ii_vs_iii():
    ok, pi, r = same_unravelled_generator(models.qubit_iii().rep,
                                          models.qubit_ii().rep)
    assert ok
    assert pi == (0, 1)
    assert abs(r) < 1e-12


def test_same_generator_rejects_weak_vs_iii():
    ok, pi, _ = same_unravelled_generator(models.qubit_weak().rep,
                                          models.qubit_iii().rep)
    assert not ok and pi is None


def test_same_generator_detects_shift():
    rep = models.qubit_weak().rep
    shifted = Representation(rep.hamiltonian + 0.7 * np.eye(2), rep.jumps)
    ok, pi, r = same_unravelled_generator(rep, shifted)
    assert ok and abs(r - 0.7) < 1e-12
    tilted = Representation(rep.hamiltonian + 0.7 * SX, rep.jumps)
    ok, _, _ = same_unravelled_generator(rep, tilted)
    assert not ok


def test_canonical_representation_qubit_ii():
    m = models.qubit_ii()
    p = build_sjeds(m.rep)
    canon = canonical_sjed_representation(m.rep, p)
    assert canon.njumps == 2
    kp = np.sqrt(1.0) * SZ + np.sqrt(1.0) * SX
    assert min(frob(canon.jumps[0] - kp / np.sqrt(2)),
               frob(canon.jumps[0] + kp / np.sqrt(2))) < 1e-12
    ok, pi, r = same_unravelled_generator(m.rep, canon)
    assert ok and pi == (0, 1) and abs(r) < 1e-12


def test_canonical_representation_already_canonical():
    rep = models.qubit_weak().rep
    canon = canonical_sjed_representation(rep)
    assert canon.njumps == rep.njumps


def test_canonical_collapses_parallel_reset_sources():
    xi = np.array([1.0, 0.0])
    j1 = np.outer([0, 1], xi)
    j2 = 2.0 * np.outer([0, 1], xi)
    rep = Representation(np.zeros((2, 2)), (j1, j2))
    canon = canonical_sjed_representation(rep)
    assert canon.njumps == 1


def test_canonical_set_sizes_match_gamma_rank():
    m = models.twoqubit_ii()
    p = build_sjeds(m.rep)
    canon = canonical_sjed_representation(m.rep, p)
    p2 = build_sjeds(canon)
    sizes = sorted(s.size for s in p2.sets)
    ranks = sorted(_rank(s.sources @ dag(s.sources)) for s in p.sets)
    assert sizes == ranks
    ok, pi, r = same_unravelled_generator(m.rep, canon, partition_a=p)
    assert ok and pi == tuple(range(p.nsets)) and abs(r) < 1e-12


def test_explicit_groups_qutrit_chain():
    m = models.qutrit_chain(length=3, thetas=np.deg2rad([0.0, 20.0, 50.0]))
    merged = build_sjeds(m.rep)
    assert merged.nsets == 1  # all jumps reset to the global vacuum
    p = partition_from_groups(m.rep, m.sjed_groups)
    assert p.nsets == 3
    assert all(s.kind == "reset" for s in p.sets)


def test_explicit_groups_must_cover():
    rep = models.qubit_weak().rep
    with pytest.raises(ValueError):
        partition_from_groups(rep, [(0,)])
    # grouping non-proportional full-rank jumps is not an equal-destination set
    with pytest.raises(ValueError):
        partition_from_groups(rep, [(0, 1)])


def test_reset_composite_choi_rank_matches_gamma():
    m = models.twoqubit_ii()
    p = build_sjeds(m.rep)
    for a, s in enumerate(p.sets):
        choi = composite_choi(p, a)
        assert _rank(choi) == 2
        assert _rank(s.sources @ dag(s.sources)) == 2


def test_reset_split_reconstructs_jump(rng):
    from weaksym.sjed import _rank_one_split
    for _ in range(20):
        a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        b = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        j = np.outer(a, b.conj())
        dest, source = _rank_one_split(j, 1e-9)
        assert np.linalg.norm(np.outer(dest, source.conj()) - j) < 1e-12
        assert abs(np.linalg.norm(dest) - 1.0) < 1e-12


def test_reset_split_of_one_row_jumps_is_exact_in_either_form():
    # n-jump-style jumps |k><b|, whose rows other than k hold -0.0 entries,
    # as arrays at d = 32 and d = 33 and as CSR matrices at d = 33: each
    # set's destination is e_k and its sources the b, bit for bit
    rng = np.random.default_rng(0)
    bs = rng.normal(size=(2, 33)) + 1j * rng.normal(size=(2, 33))
    for d, form in ((32, np.asarray), (33, np.asarray), (33, scipy.sparse.csr_array)):
        shifted = [[np.roll(b[:d], k) for k in range(d)] for b in bs]
        jumps = [form(np.outer(np.eye(d)[k], row[k].conj())) for row in shifted
                 for k in range(d)]
        p = build_sjeds(Representation(np.eye(d), tuple(jumps)))
        assert [s.indices for s in p.sets] == [(k, k + d) for k in range(d)]
        for k, s in enumerate(p.sets):
            assert s.destination.tobytes() == np.eye(d, dtype=complex)[k].tobytes()
            expected = np.column_stack([row[k] for row in shifted])
            assert s.sources.tobytes() == expected.tobytes()


def _reset_partitions(rng):
    """Partitions with reset sets: the built-ins, the built-in qutrit chain
    with its pinned groups, and random reset sets whose sources are
    independent, dependent (three jumps in a two-dimensional span) or
    share one direction."""
    out = [build_sjeds(m.rep) for m in (b() for b in models.BUILDERS.values())]
    chain = models.qutrit_chain()
    out.append(partition_from_groups(chain.rep, chain.sjed_groups))
    for dim, n, span in ((3, 2, 2), (4, 3, 2), (5, 3, 1), (6, 4, 4)):
        dest = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        basis = rng.standard_normal((dim, span)) + 1j * rng.standard_normal((dim, span))
        mix = rng.standard_normal((span, n)) + 1j * rng.standard_normal((span, n))
        jumps = [np.outer(dest, s.conj()) for s in (basis @ mix).T]
        out.append(build_sjeds(Representation(np.zeros((dim, dim)), tuple(jumps))))
    return out


def test_match_costs_are_dense_choi_gaps(rng):
    # every pair of sets, reset and proportional alike, against the images
    # of the sets under a random unitary; the d = 81 chain is left out, its
    # d^2 x d^2 Choi matrices take 0.7 GB each
    for p in _reset_partitions(rng):
        d = p.jumps[0].shape[0]
        if d > 6:
            continue
        sym = SymmetryOperator.from_matrix(random_unitary(rng, d))
        images = sym.images(Representation(np.zeros((d, d)), p.jumps))
        sets = [s.indices for s in p.sets]
        with mock.patch.object(linalg, "assign", wraps=linalg.assign) as spy:
            match_sets(images.jumps, images.jump_images, sets, sets)
        cost = spy.call_args.args[0]
        for b in range(p.nsets):
            moved = change_superoperator_basis(composite_choi(p, b), dag(sym.matrix))
            for a in range(p.nsets):
                choi = composite_choi(p, a)
                want = frob(choi - moved) / max(frob(choi), frob(moved))
                assert abs(cost[b, a] - want) <= 1e-12


def test_canonical_family_rebuilds_the_frame(rng):
    # reset sets (built-ins, the pinned chain, random sources) and the
    # proportional sets of qubit-II and qubit-nonunique
    tol = 1e-9
    partitions = _reset_partitions(rng) + [
        build_sjeds(m.rep) for m in (models.qubit_ii(), models.qubit_nonunique())]
    for p in partitions:
        d = p.jumps[0].shape[0]
        rep = Representation(np.zeros((d, d)), p.jumps)
        canon = canonical_sjed_representation(rep, p, tol)
        coords = linalg.coordinates(
            np.array([linalg.dense(j) for j in p.jumps]).reshape(len(p.jumps), d * d))
        start = 0
        for a, s in enumerate(p.sets):
            sv, zh = canonical_family(coords[:, list(s.indices)], tol)
            family = [linalg.dense(c) for c in canon.jumps[start:start + len(sv)]]
            start += len(sv)
            members = [linalg.dense(p.jumps[k]) for k in s.indices]
            gram = np.array([[np.vdot(x, y) for y in members] for x in members])
            ev = np.linalg.eigvalsh(gram)
            assert len(family) == np.sum(ev > tol * ev[-1])
            # orthogonal, with norms the kept singular values
            cg = np.array([[np.vdot(x, y) for y in family] for x in family])
            assert frob(cg - np.diag(sv ** 2)) <= 1e-12 * sv[0] ** 2
            # the composite action (the d = 81 chain's frame is compared in
            # coordinates; its Choi matrices take 0.7 GB each)
            both = linalg.coordinates(np.array([*members, *family]).reshape(-1, d * d))
            gap, fa, _ = linalg.frame_gap(both[:, :len(members)], both[:, len(members):])
            assert gap <= 1e-12 * fa
            if d <= 6:
                choi = composite_choi(p, a)
                assert frob(jump_part_choi(family) - choi) <= 1e-12 * frob(choi)
            # each jump's first non-negligible entry, row-major, is real positive
            for c in family:
                v = c.reshape(-1)
                first = v[np.argmax(np.abs(v) > 1e-12 * np.abs(v).max())]
                assert abs(first.imag) <= 1e-15 and first.real > 0
        assert start == canon.njumps
