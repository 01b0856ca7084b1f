import time

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, strategies as st

from weaksym import linalg, models, symmetry
from weaksym.lindblad import (
    Representation,
    apply_master_operator,
    change_superoperator_basis,
    liouville_matrix,
    representations_equal,
)
from weaksym.linalg import dag, frob
from weaksym.sjed import build_sjeds, partition_from_groups, same_unravelled_generator, \
    composite_choi
from weaksym.symmetry import (
    CompletionFailed,
    NotConditionII,
    SymmetryOperator,
    block_support,
    blockwise_unitary_completion,
    build_symmetry_report,
    check_condition_I,
    check_condition_II,
    check_condition_III,
    check_linear_eigenfunction,
    fourier_symmetrize,
    general_unitary_completion,
    lift_II_to_III,
    monomial_eigenfunctions,
    monomial_eigenvalue,
    off_block_mass,
    permutation_unitary,
    wave_operators,
)

from conftest import (SM, SX, SZ, evaluate_monomial, random_pure_state, random_unitary,
                      remix_within_sets, superoperator_matrix)

PARITY = SymmetryOperator.from_matrix(SZ)


def solve_mixing_matrix(jumps, targets, tol=linalg.DEFAULT_TOL):
    """(X, residual): the least-norm X with targets_j ~ sum_k X[j, k] jumps_k
    and the residual relative to the targets', from the span map of the
    operators' coordinates."""
    if len(jumps) != len(targets):
        raise linalg.ShapeError("need equally many jumps and targets")
    return linalg.SpanMap(*linalg.operator_coordinates(jumps, targets), tol).mixing


def sym_of(model, name=None):
    if name is None:
        name = next(iter(model.symmetries))
    return SymmetryOperator.from_matrix(model.symmetries[name])


def model_partition(model):
    if model.sjed_groups is not None:
        return partition_from_groups(model.rep, model.sjed_groups)
    return build_sjeds(model.rep)


# ---------------------------------------------------------------- operator

def test_symmetry_operator_phases_and_order():
    assert PARITY.order == 2
    assert np.allclose(PARITY.phases, [0.0, np.pi])
    u4 = np.diag(np.exp(2j * np.pi * np.arange(4) / 4))
    s = SymmetryOperator.from_matrix(u4)
    assert s.order == 4


def test_symmetry_operator_unresolved_order():
    u = np.diag([1.0, np.exp(1j * 0.1)])
    s = SymmetryOperator.from_matrix(u)
    assert s.order is None


def _sparse_power_order(sym):
    """The group order as the one phase rule reads every power of U, formed
    as an array, with no screen: the least n at which U^n's eigenphases form
    one class."""
    power = sym.matrix
    for n in range(1, symmetry._MAX_ORDER + 1):
        if n > 1:
            power = power @ sym.matrix
        phases = np.angle(np.linalg.eigvals(power))
        if len(set(linalg.phase_classes(phases, sym.tol))) == 1:
            return n
    return None


def _phases(*turns):
    return np.diag(np.exp(2j * np.pi * np.array(turns)))


def _nearly_order_four():
    # U^4 = 1 + O(1e-10): inside the exact test's 1e-9 sqrt(d)
    rng = np.random.default_rng(5)
    v = random_unitary(rng, 6)
    turns = np.array([0, 1, 2, 3, 1, 0]) / 4 + 2.5e-11 * rng.standard_normal(6)
    return v @ _phases(*turns) @ dag(v)


@pytest.mark.parametrize("eps", [0.5e-9, 0.95e-9, 1.05e-9, 1.5e-9, 2e-9])
def test_order_and_phase_classes_are_one_rule(eps):
    # U = diag(1, e^{i eps}) at tol 1e-9: U = theta 1 exactly when its two
    # eigenphases fall in one class, and no power of U does past tau
    sym = SymmetryOperator.from_matrix(np.diag([1.0, np.exp(1j * eps)]))
    classes = linalg.phase_classes(np.array([0.0, eps]), sym.tol)
    assert (sym.order == 1) == (len(set(classes)) == 1) == (eps <= 1e-9)
    if eps > 1e-9:
        assert sym.order is None
    # the same from the arc side: phases eps / 2 on either side of 2.5
    arc = SymmetryOperator.from_matrix(np.diag(np.exp(1j * (2.5 + np.array([-1, 1]) * eps / 2))))
    assert (arc.order == 1) == (eps <= 1e-9)
    # a 4-cycle times e^{i eps}: U^4 = e^{4 i eps} 1 is one class at every eps
    assert SymmetryOperator.from_matrix(np.eye(4)[[1, 2, 3, 0]] * np.exp(1j * eps)).order == 4


@pytest.mark.parametrize("u, order", [
    (np.exp(0.7j) * np.eye(5), 1),
    (_phases(0, 0.5, 0), 2),
    (_phases(1 / 3, 1 / 4, 0), 12),
    (_phases(1 / 64, 0), 64),
    (_phases(1 / 65, 0), None),                      # beyond the cap
    (np.diag(np.exp(1j * np.sqrt([2.0, 3.0, 5.0]))), None),
    (np.eye(5)[[1, 0, 3, 4, 2]], 6),
    (_nearly_order_four(), 4),
])
def test_order_screen_matches_the_sparse_power_loop(u, order, monkeypatch):
    # up to linalg.SMALL_DIM U is held as an array, whose powers give the order
    small = SymmetryOperator.from_matrix(u)
    assert isinstance(small.u, np.ndarray)
    assert small.order == _sparse_power_order(small) == order
    # above it U ⊗ 1, of the same order, is held in CSR form
    big = np.kron(u, np.eye(linalg.SMALL_DIM // len(u) + 1))
    sym = SymmetryOperator.from_matrix(scipy.sparse.csr_array(big))
    assert isinstance(sym.u, scipy.sparse.csr_array)
    assert _sparse_power_order(sym) == order
    # the powers U^2 .. U^order are formed for the order found, and none
    # without one: the unscreened loop forms 63 then; each power the screen
    # passes takes at most two spectral radius bounds of 6 squarings each
    products, squarings = [], []
    original = type(sym.u).__matmul__

    def counting(self, other):
        if other is sym.u:
            products.append(other)
        elif other is self:
            squarings.append(other)
        return original(self, other)

    monkeypatch.setattr(type(sym.u), "__matmul__", counting)
    assert sym.order == order
    assert len(products) == (order - 1 if order else 0)
    v = np.arange(1.0, sym.dim + 1.0)
    powers = [np.linalg.matrix_power(big, n) for n in range(1, (order or symmetry._MAX_ORDER) + 1)]
    screened = sum(abs(v @ p @ v) >= (1 - linalg.threshold(sym.tol)) * v @ v for p in powers)
    assert len(squarings) <= 12 * screened


# ---------------------------------------------------------------- mixing

def test_solve_mixing_identity_targets():
    rep = models.qubit_weak().rep
    x, resid = solve_mixing_matrix(rep.jumps, rep.jumps)
    assert resid < 1e-12
    assert np.allclose(x, np.eye(2), atol=1e-10)


def test_solve_mixing_qubit_ii_matches_reference():
    m = models.qubit_ii()
    c1, c2 = m.parameters["c1"], m.parameters["c2"]
    sym = sym_of(m)
    targets = [sym.conjugate(j) for j in m.rep.jumps]
    x, resid = solve_mixing_matrix(m.rep.jumps, targets)
    assert resid < 1e-12
    expected = np.sqrt(2) * np.array([
        [0, 0, c1],
        [0, 0, c2],
        [np.conj(c1), np.conj(c2), 0],
    ])
    assert frob(x - expected) < 1e-9


def test_solve_mixing_incompatible_target():
    rep = Representation(np.zeros((2, 2)), (SZ,))
    x, resid = solve_mixing_matrix(rep.jumps, [SX])
    assert resid > 0.5


# ---------------------------------------------------------------- completion

def test_completion_independent_jumps_returns_mixing():
    m = models.qubit_i()
    sym = sym_of(m)
    tl = Representation(*m.rep.traceless, m.rep.labels)
    targets = [sym.conjugate(j) for j in tl.jumps]
    x, _ = solve_mixing_matrix(tl.jumps, targets)
    u = general_unitary_completion(tl.jumps, targets)
    assert frob(u - x) < 1e-9
    a, b = m.parameters["a"], m.parameters["b"]
    expected = np.array([[a * a - b * b, 2 * a * b],
                         [2 * a * b, b * b - a * a]])
    assert frob(u - expected) < 1e-9


@pytest.mark.parametrize("delta", [1e-3, 1e-6, 1e-8])
def test_mixing_and_unitary_certificate_agree(delta):
    # the jumps' singular values are 2 and 2 delta: one rank cut for both
    # keeps the second, so the least-norm mixing is the swap, as its
    # unitary completion is
    rep = Representation(SZ, (SZ + delta * SX, SZ - delta * SX))
    result = check_condition_I(rep, PARITY)
    assert result.holds
    assert frob(result.mixing - SX) <= 1e-8
    assert frob(result.unitary - SX) <= 1e-8
    assert result.mixing_residual <= 1e-9


@pytest.mark.parametrize("tol", [1.0, 1.7e308, np.nan])
def test_checks_refuse_a_tol_outside_the_unit_interval(tol):
    with pytest.raises(ValueError, match="tol must lie in"):
        check_condition_I(models.qubit_weak().rep, PARITY, tol)


def test_completion_failure_for_span_escape():
    rep = Representation(np.zeros((2, 2)), (SZ,))
    with pytest.raises(CompletionFailed):
        general_unitary_completion(rep.jumps, [SX])


def test_completion_failure_for_non_isometric_frame():
    e1 = np.diag([1.0, 0.0]).astype(complex)
    e2 = np.array([[0, 1], [1, 0]], dtype=complex) / np.sqrt(2)
    jumps = [e1, e1 + 0.3 * e2]
    targets = [e2, e2 - 0.3 * e1]  # 90-degree rotation of the span basis
    with pytest.raises(CompletionFailed):
        general_unitary_completion(jumps, targets)


def test_blockwise_completion_reproduces_reference_matrix():
    m = models.qubit_ii()
    c1, c2 = m.parameters["c1"], m.parameters["c2"]
    sym = sym_of(m)
    p = build_sjeds(m.rep)
    cond2 = check_condition_II(m.rep, sym)
    u = blockwise_unitary_completion(m.rep, sym, p, cond2.permutation)
    expected = np.sqrt(2) * np.array([
        [np.sqrt(2) * abs(c2) ** 2, -np.sqrt(2) * c1 * np.conj(c2), c1],
        [-np.sqrt(2) * np.conj(c1) * c2, np.sqrt(2) * abs(c1) ** 2, c2],
        [np.conj(c1), np.conj(c2), 0],
    ])
    assert frob(u - expected) < 1e-9


def test_block_sum_property():
    # summing U*[j, k] U(J_j) over an SJED reproduces member k of its image
    for m in (models.qubit_ii(), models.qubit_nonunique(), models.twoqubit_ii()):
        sym = sym_of(m)
        p = build_sjeds(m.rep)
        cond2 = check_condition_II(m.rep, sym)
        u = blockwise_unitary_completion(m.rep, sym, p, cond2.permutation)
        assert frob(dag(u) @ u - np.eye(m.rep.njumps)) < 1e-10
        for a, s in enumerate(p.sets):
            image = p.sets[cond2.permutation[a]].indices
            for k in range(m.rep.njumps):
                acc = sum(np.conj(u[j, k]) * sym.conjugate(m.rep.jumps[j])
                          for j in s.indices)
                if k in image:
                    assert frob(acc - m.rep.jumps[k]) < 1e-9
                else:
                    assert frob(acc) < 1e-9


def test_reference_unitaries_qubit_nonunique():
    # both published certificate choices transform the jumps correctly
    theta = np.pi / 6
    m = models.qubit_nonunique(theta=theta)
    sym = sym_of(m)
    u_swap = np.array([[0, 0, 1, 0], [0, 0, 0, 1],
                       [1, 0, 0, 0], [0, 1, 0, 0]], dtype=complex)
    c2t, s2t = np.cos(2 * theta), np.sin(2 * theta)
    u_rot = np.array([[0, 0, c2t, s2t], [0, 0, s2t, -c2t],
                      [1, 0, 0, 0], [0, 1, 0, 0]], dtype=complex)
    for u in (u_swap, u_rot):
        assert frob(dag(u) @ u - np.eye(4)) < 1e-12
        for j in range(4):
            mix = sum(u[j, k] * m.rep.jumps[k] for k in range(4))
            assert frob(sym.conjugate(m.rep.jumps[j]) - mix) < 1e-12


# ---------------------------------------------------------------- conditions

def test_condition_I_weak_rep_diag_certificate():
    m = models.qubit_weak()
    res = check_condition_I(m.rep, sym_of(m))
    assert res.holds
    assert frob(res.unitary - np.diag([1.0, -1.0])) < 1e-9


def test_condition_I_fails_for_bad_hamiltonian():
    rep = Representation(SX, ())
    assert not check_condition_I(rep, PARITY).holds


def test_condition_I_fails_for_span_escape():
    rep = Representation(np.zeros((2, 2)), (SZ + np.array([[0, 0], [1, 0]]),))
    res = check_condition_I(rep, PARITY)
    assert not res.holds


def test_condition_I_across_representations():
    # the verdict is representation independent for a common master operator
    reps = [models.qubit_weak().rep, models.qubit_iii().rep,
            models.qubit_ii().rep, models.qubit_nonunique().rep]
    for a in reps:
        for b in reps:
            assert representations_equal(a, b, 1e-9)
        assert check_condition_I(a, PARITY).holds


def test_condition_II_verdicts_single_qubit():
    assert check_condition_II(models.qubit_weak().rep, PARITY).holds
    res = check_condition_II(models.qubit_ii().rep, PARITY)
    assert res.holds and res.permutation == (1, 0)
    assert not check_condition_II(models.qubit_i().rep, PARITY).holds


def test_condition_II_twoqubit_reset_swap():
    m = models.twoqubit_ii()
    res = check_condition_II(m.rep, sym_of(m))
    assert res.holds and res.permutation == (1, 0)


def test_condition_II_invariant_under_remixing(rng):
    m = models.twoqubit_ii()
    sym = sym_of(m)
    p = build_sjeds(m.rep)
    mixed = Representation(m.rep.hamiltonian, remix_within_sets(p, rng))
    res = check_condition_II(mixed, sym)
    assert res.holds and res.permutation == (1, 0)


def test_condition_II_pi_matches_unravelled_generator():
    for m in (models.qubit_ii(), models.twoqubit_ii()):
        sym = sym_of(m)
        res = check_condition_II(m.rep, sym)
        transformed = Representation(sym.conjugate(m.rep.hamiltonian),
                                     tuple(sym.conjugate(j) for j in m.rep.jumps))
        ok, pi, r = same_unravelled_generator(m.rep, transformed)
        assert ok and abs(r) < 1e-12
        assert pi == res.permutation


def test_condition_III_verdicts():
    res = check_condition_III(models.qubit_iii().rep, PARITY)
    assert res.holds and res.permutation == (1, 0)
    assert np.allclose(res.phases, 0.0, atol=1e-9)
    assert not check_condition_III(models.qubit_ii().rep, PARITY).holds
    assert not check_condition_III(models.qubit_i().rep, PARITY).holds
    # 11 copies of SZ and 10 of SX under the Hadamard: the 11 images of SZ
    # compete for 10 SX slots, and a backtracking search over partial
    # assignments takes factorial time to find that none is complete
    hadamard = SymmetryOperator.from_matrix(np.array([[1, 1], [1, -1]]) / np.sqrt(2))
    rep = Representation(np.zeros((2, 2)), (SZ,) * 11 + (SX,) * 10)
    start = time.perf_counter()
    assert not check_condition_III(rep, hadamard).holds
    assert time.perf_counter() - start < 1.0


def test_condition_III_weak_rep_phases():
    res = check_condition_III(models.qubit_weak().rep, PARITY)
    assert res.holds and res.permutation == (0, 1)
    assert abs(res.phases[0]) < 1e-9
    assert abs(abs(res.phases[1]) - np.pi) < 1e-9


def test_condition_III_twoqubit():
    m = models.twoqubit_weak()
    res = check_condition_III(m.rep, sym_of(m))
    assert res.holds and res.permutation == (0, 1, 2, 3)
    assert abs(res.phases[1] - np.pi) < 1e-9 or abs(res.phases[1] + np.pi) < 1e-9
    assert abs(res.phases[3] - np.pi) < 1e-9 or abs(res.phases[3] + np.pi) < 1e-9

    m3 = models.twoqubit_iii()
    res3 = check_condition_III(m3.rep, sym_of(m3))
    assert res3.holds and res3.permutation == (1, 0, 3, 2)
    assert np.allclose(res3.phases, 0.0, atol=1e-9)


def test_report_hierarchy_consistency():
    for name in models.BUILDERS:
        m = models.get_model(name)
        for uname, u in m.symmetries.items():
            sym = SymmetryOperator.from_matrix(u)
            part = model_partition(m)
            report = build_symmetry_report(m.rep, sym, partition=part)
            assert report.consistent, (name, uname)
            if uname in m.expect:
                assert report.verdicts() == tuple(m.expect[uname]), (name, uname)
    # two identical reset jumps kept apart: the SJED matching has a tie
    rep = Representation(np.zeros((2, 2)), (SM, SM))
    part = partition_from_groups(rep, [[0], [1]])
    report = build_symmetry_report(rep, SymmetryOperator.from_matrix(np.eye(2)),
                                   partition=part)
    assert report.verdicts() == (True, True, True) and report.consistent


@pytest.mark.parametrize("shift, verdicts, reason", [
    # an imaginary trace moves the traceless frame's Hamiltonian by about
    # 2e-9 relative: the master operator itself is not symmetric
    (1e-9j, (False, False, False), "traceless Hamiltonian gap"),
    # a real trace leaves the Hermitian Jx's master operator as it is but
    # not its unravelling: U (Jx + eps) U† = -Jx + eps is no multiple of it
    (5e-8, (True, False, False), "SJED matching gap"),
])
def test_shifted_jump_moves_the_verdicts_down_the_hierarchy(shift, verdicts, reason):
    m = models.qubit_weak()
    jz, jx = m.rep.jumps
    report = build_symmetry_report(
        Representation(m.rep.hamiltonian, (jz, jx + shift * np.eye(2))), sym_of(m))
    assert report.verdicts() == verdicts and report.consistent
    results = (report.condition_I, report.condition_II, report.condition_III)
    assert all(c.reason.startswith(reason) for c in results if not c.holds)


# ---------------------------------------------------------------- qutrit chain

def test_qutrit_translation_condition_II_cycle():
    m = models.qutrit_chain()
    part = model_partition(m)
    sym = sym_of(m, "translation")
    res = check_condition_II(m.rep, sym, partition=part)
    assert res.holds
    pi = res.permutation
    # a single 4-cycle
    seen = {0}
    a = pi[0]
    while a != 0:
        seen.add(a)
        a = pi[a]
    assert len(seen) == 4
    assert not check_condition_III(m.rep, sym).holds


def test_qutrit_combined_condition_III():
    m = models.qutrit_chain()
    sym = sym_of(m, "combined")
    res = check_condition_III(m.rep, sym)
    assert res.holds
    assert np.allclose(res.phases, 0.0, atol=1e-9)
    # jump pairs advance one site per application
    L = m.parameters["length"]
    for site in range(L):
        assert res.permutation[2 * site] == 2 * ((site + 1) % L)
        assert res.permutation[2 * site + 1] == 2 * ((site + 1) % L) + 1


def test_qutrit_combined_is_conjugated_translation():
    # the aligned combined operator equals the translation conjugated by the
    # angle-matching rotation built from any reference angle
    m = models.qutrit_chain()
    thetas = np.asarray(m.parameters["thetas"])
    L = m.parameters["length"]
    from weaksym.models import _site_op, _site_rotation, _translation_unitary
    theta_ref = 0.7  # arbitrary
    rot = np.eye(3 ** L, dtype=complex)
    for s in range(L):
        rot = rot @ _site_op(_site_rotation(theta_ref - thetas[s]), s, L)
    u_t = _translation_unitary(L)
    conjugated = dag(rot) @ u_t @ rot
    assert frob(conjugated - m.symmetries["combined"]) < 1e-12


def test_qutrit_rotation_condition_II_identity_permutation():
    m = models.qutrit_chain()
    part = model_partition(m)
    sym = sym_of(m, "rotation")
    res = check_condition_II(m.rep, sym, partition=part)
    assert res.holds and res.permutation == (0, 1, 2, 3)


# ---------------------------------------------------------------- lift and Fourier

def test_lift_qubit_ii_recovers_balanced_jumps():
    m = models.qubit_ii()
    sym = sym_of(m)
    out, groups = lift_II_to_III(m.rep, sym)
    assert out.njumps == 2
    assert check_condition_III(out, sym).holds
    ok, pi, r = same_unravelled_generator(m.rep, out)
    assert ok and abs(r) < 1e-12 and pi == (0, 1)
    ref = models.qubit_iii().rep
    for j in out.jumps:
        assert min(frob(j - ref.jumps[0]), frob(j + ref.jumps[0]),
                   frob(j - ref.jumps[1]), frob(j + ref.jumps[1])) < 1e-9


def test_lift_already_condition_III():
    m = models.qubit_iii()
    sym = sym_of(m)
    out, _ = lift_II_to_III(m.rep, sym)
    assert check_condition_III(out, sym).holds


def test_lift_twoqubit_reset():
    m = models.twoqubit_ii()
    sym = sym_of(m)
    out, groups = lift_II_to_III(m.rep, sym)
    assert out.njumps == 4
    assert check_condition_III(out, sym).holds
    ok, _, r = same_unravelled_generator(m.rep, out)
    assert ok and abs(r) < 1e-12


def test_lift_requires_condition_II():
    with pytest.raises(NotConditionII):
        lift_II_to_III(models.qubit_i().rep, PARITY)


def test_lift_refines_degenerate_source_modes():
    # U rotates two equal-weight sources into each other: only the
    # eigen-combinations |0><(1 -+ i 2)/sqrt(2)| are permuted up to phases
    e = np.eye(3)
    rep = Representation(np.zeros((3, 3)), (np.outer(e[0], e[1]), np.outer(e[0], e[2])))
    c, s = np.cos(0.3), np.sin(0.3)
    sym = SymmetryOperator.from_matrix(np.array([[1, 0, 0], [0, c, -s], [0, s, c]]))
    assert check_condition_II(rep, sym).holds and not check_condition_III(rep, sym).holds
    out, _ = lift_II_to_III(rep, sym)
    assert out.njumps == 2 and check_condition_III(out, sym).holds
    ok, _, r = same_unravelled_generator(rep, out)
    assert ok and r == 0


def test_lift_jump_free_model():
    rep = Representation(SZ, ())
    out, groups = lift_II_to_III(rep, PARITY)
    assert out.njumps == 0 and groups == () and frob(out.hamiltonian - SZ) == 0


def test_lift_qutrit_chain():
    m = models.qutrit_chain()
    sym = sym_of(m, "combined")
    part = model_partition(m)
    out, groups = lift_II_to_III(m.rep, sym, part)
    assert check_condition_III(out, sym).holds
    pa = part
    pb = partition_from_groups(out, groups)
    ok, pi, r = same_unravelled_generator(m.rep, out, partition_a=pa, partition_b=pb)
    assert ok and abs(r) < 1e-12


def test_fourier_symmetrize_identity_on_weak_rep():
    m = models.qubit_weak()
    sym = sym_of(m)
    out = fourier_symmetrize(m.rep, sym)
    assert representations_equal(m.rep, out, 1e-9)
    for j in out.jumps:
        t = sym.conjugate(j)
        c = np.vdot(j.reshape(-1), t.reshape(-1)) / frob(j) ** 2
        assert frob(t - c * j) < 1e-10
        assert abs(abs(c) - 1) < 1e-10


def test_fourier_symmetrize_qubit_iii_recovers_weak_jumps():
    m = models.qubit_iii()
    sym = sym_of(m)
    out = fourier_symmetrize(m.rep, sym)
    assert representations_equal(m.rep, out, 1e-9)
    ref = models.qubit_weak().rep
    got = sorted(out.jumps, key=lambda j: abs(j[0, 0]), reverse=True)
    assert min(frob(got[0] - ref.jumps[0]), frob(got[0] + ref.jumps[0])) < 1e-10
    assert min(frob(got[1] - ref.jumps[1]), frob(got[1] + ref.jumps[1])) < 1e-10
    # eigen-relation with the cycle-root phases
    for j in out.jumps:
        t = sym.conjugate(j)
        found = any(frob(t - np.exp(2j * np.pi * l / 2) * j) < 1e-10 for l in range(2))
        assert found


def test_fourier_symmetrize_qutrit_combined():
    m = models.qutrit_chain()
    sym = sym_of(m, "combined")
    out = fourier_symmetrize(m.rep, sym)
    assert representations_equal(m.rep, out, 1e-9)
    n = 4
    for j in out.jumps:
        t = sym.conjugate(j)
        assert any(frob(t - np.exp(2j * np.pi * l / n) * j) < 1e-10 for l in range(n))


# ---------------------------------------------------------------- waves and blocks

def test_wave_operators_single_set():
    m = models.qubit_weak()
    p = build_sjeds(m.rep)
    # restrict to one SJED by passing the singleton cycle
    one = Representation(m.rep.hamiltonian, (m.rep.jumps[0],))
    waves = wave_operators(build_sjeds(one), (0,))
    assert len(waves) == 1
    assert frob(waves[0] - composite_choi(p, 0)) < 1e-12


def test_wave_operators_inverse_and_eigenrelation():
    m = models.qubit_ii()
    sym = sym_of(m)
    p = build_sjeds(m.rep)
    res = check_condition_II(m.rep, sym)
    waves = wave_operators(p, res.permutation)
    d_c = p.nsets
    order = [0]
    while len(order) < d_c:
        order.append(res.permutation[order[-1]])
    for j, a in enumerate(order):
        rec = sum(np.exp(2j * np.pi * k * j / d_c) * waves[k]
                  for k in range(d_c)) / d_c
        assert frob(rec - composite_choi(p, a)) < 1e-12
    for k, w in enumerate(waves):
        assert frob(change_superoperator_basis(w, dag(sym.matrix))
                    - np.exp(2j * np.pi * k / d_c) * w) < 1e-10


def test_wave_operators_qutrit_block_support():
    m = models.qutrit_chain(length=3, thetas=np.deg2rad([0, 20, 40.0]))
    part = model_partition(m)
    sym = sym_of(m, "translation")
    res = check_condition_II(m.rep, sym, partition=part)
    waves = wave_operators(part, res.permutation)
    d_c = 3
    for k in (1, 2):
        support = block_support(waves[k], sym)
        target = 2 * np.pi * k / d_c
        on = sum(v ** 2 for key, v in support.items()
                 if abs(key - target) < 1e-6)
        total = sum(v ** 2 for v in support.values())
        assert on / total > 1 - 1e-12


def test_block_support_liouville_condition_I():
    for m in (models.qubit_weak(), models.qubit_ii(), models.qubit_i(),
              models.twoqubit_ii()):
        sym = sym_of(m)
        lam = liouville_matrix(m.rep)
        assert off_block_mass(lam, sym) < 1e-12


def test_block_support_of_symmetry_itself():
    sym = sym_of(models.qubit_weak())
    support = block_support(superoperator_matrix(sym.conjugate, sym.dim), sym)
    off = sum(v for k, v in support.items() if k != 0.0)
    assert off < 1e-12


def _kron_block_support(superop, sym):
    """block_support through W = V x V* and two d^2 x d^2 products."""
    w = np.kron(sym.eigenbasis, sym.eigenbasis.conj())
    t = dag(w) @ superop @ w
    deltas = np.subtract.outer(sym.phases, sym.phases).reshape(-1)
    out = {}
    keys = linalg.phase_classes(np.subtract.outer(deltas, deltas), sym.tol)
    for key in np.unique(keys):
        out[float(key)] = float(np.linalg.norm(t[keys == key]))
    return out


def _assert_same_support(superop, sym):
    new, ref = block_support(superop, sym), _kron_block_support(superop, sym)
    assert list(new) == list(ref)
    for key, mass in ref.items():
        assert abs(new[key] - mass) <= 1e-14 * frob(superop)


@pytest.mark.parametrize("name", [n for n in models.BUILDERS if n != "qutrit-chain"])
def test_block_support_matches_kronecker_path_on_builtins(name):
    m = models.get_model(name)
    lam = liouville_matrix(m.rep)
    for matrix in m.symmetries.values():
        _assert_same_support(lam, SymmetryOperator.from_matrix(matrix))


@given(dim=st.integers(1, 4), order=st.sampled_from([None, 1, 2, 3, 5]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_block_support_matches_kronecker_path_on_random_unitaries(dim, order, seed):
    # order None draws irrational phases, which no power of U makes scalar
    rng = np.random.default_rng(seed)
    v = random_unitary(rng, dim)
    steps = rng.integers(0, 5 if order is None else order, dim)
    phases = np.sqrt(2.0) * steps if order is None else 2 * np.pi * steps / order
    sym = SymmetryOperator.from_matrix(v @ np.diag(np.exp(1j * phases)) @ dag(v))
    if order is None and len(set(steps)) > 1:
        assert sym.order is None
    superop = (rng.standard_normal((dim * dim,) * 2)
               + 1j * rng.standard_normal((dim * dim,) * 2))
    _assert_same_support(superop, sym)


def _phase_qubit(eps, tol=1e-9):
    return SymmetryOperator.from_matrix(np.diag([1.0, np.exp(1j * eps)]), tol)


@pytest.mark.parametrize("eps, mass", [
    (3e-9, np.sqrt(2) / 4), (-3e-9, np.sqrt(2) / 4),
    (5e-8, np.sqrt(2) / 4), (-5e-8, np.sqrt(2) / 4),
    (4e-10, 0.0), (-4e-10, 0.0),
])
def test_off_block_mass_of_a_near_degenerate_symmetry(eps, mass):
    # H = Z, J = X: the mass off the Delta = 0 blocks sits at Delta = +-2 eps;
    # a class and its partner 2 pi - Delta are both off-block or both on
    lam = liouville_matrix(Representation(SZ, (SX,)))
    assert abs(off_block_mass(lam, _phase_qubit(eps)) - mass) <= 1e-12


def test_monomials_of_a_near_degenerate_symmetry():
    # the off-diagonal monomials' eigenvalues are 500 tau away from 1
    assert monomial_eigenfunctions(_phase_qubit(5e-7), 1, 1.0) == [(1, 1), (2, 2)]


@pytest.mark.parametrize("tol, order", [(1e-6, 2), (1e-9, None)])
def test_order_reads_the_symmetry_tol(tol, order):
    m = models.qubit_weak()
    sym = _phase_qubit(np.pi + 1e-7, tol)
    assert build_symmetry_report(m.rep, sym, tol).verdicts() == (tol == 1e-6,) * 3
    assert sym.order == order


@given(dim=st.integers(1, 5), sectors=st.integers(1, 4),
       tol=st.sampled_from([1e-12, 1e-9, 1e-6, 1e-3]), seed=st.integers(0, 2 ** 32 - 1))
def test_block_classes_of_a_near_degenerate_symmetry_are_the_degenerate_ones(
        dim, sectors, tol, seed):
    # sector phases on the grid 2 pi (k + 1/2) / 8, so that distinct Delta
    # classes lie 2 pi / 8 apart and no phase is near 0; inside a sector
    # the phases spread by less than tau / 4
    rng = np.random.default_rng(seed)
    tau = linalg.threshold(tol)
    v = random_unitary(rng, dim)
    exact = 2 * np.pi * (rng.choice(8, sectors, replace=False) + 0.5) / 8
    exact = exact[rng.integers(0, sectors, dim)]
    near = exact + tau / 4 * rng.random(dim)
    superop = (rng.standard_normal((dim * dim,) * 2)
               + 1j * rng.standard_normal((dim * dim,) * 2))
    syms = [SymmetryOperator.from_matrix(v @ np.diag(np.exp(1j * p)) @ dag(v), tol)
            for p in (exact, near)]
    (ka, ma), (kb, mb) = (zip(*block_support(superop, s).items()) for s in syms)
    assert len(ka) == len(kb) and np.all(np.abs(np.subtract(ka, kb)) <= tau)
    assert np.all(np.abs(np.subtract(ma, mb)) <= 1e-9 * frob(superop))
    assert abs(off_block_mass(superop, syms[0]) - off_block_mass(superop, syms[1])) <= 1e-9


# ---------------------------------------------------------------- eigenfunctions

def test_monomials_order_one():
    tuples = monomial_eigenfunctions(PARITY, 1, 1.0)
    assert (1, 1) in tuples and (2, 2) in tuples
    assert len(tuples) == 2
    # for parity both off-diagonal monomials share the eigenvalue -1
    lam = np.exp(1j * (PARITY.phases[0] - PARITY.phases[1]))
    assert monomial_eigenfunctions(PARITY, 1, lam) == [(1, 2), (2, 1)]
    # a non-degenerate symmetry separates them
    quarter = SymmetryOperator.from_matrix(np.diag([1.0, 1j]))
    lam = np.exp(1j * (quarter.phases[0] - quarter.phases[1]))
    assert monomial_eigenfunctions(quarter, 1, lam) == [(1, 2)]


def test_monomials_order_two_includes_cross_term():
    tuples = monomial_eigenfunctions(PARITY, 2, 1.0)
    assert (1, 2, 2, 1) in tuples
    for t in tuples:
        pairs = [(t[i], t[i + 1]) for i in range(0, len(t), 2)]
        keys = [2 * (a - 1) + (b - 1) for a, b in pairs]
        assert keys == sorted(keys)


def test_monomials_transform_as_eigenfunctions(rng):
    for n in (1, 2):
        for lam in (1.0, -1.0):
            for t in monomial_eigenfunctions(PARITY, n, lam):
                assert abs(monomial_eigenvalue(PARITY, t) - lam) < 1e-12
                for _ in range(5):
                    psi = random_pure_state(rng, 2)
                    lhs = evaluate_monomial(PARITY, t, PARITY.conjugate(psi))
                    rhs = lam * evaluate_monomial(PARITY, t, psi)
                    assert abs(lhs - rhs) < 1e-10


def test_linear_eigenfunction_identity():
    rep = models.qubit_weak().rep
    ok, lam = check_linear_eigenfunction(rep, np.eye(2))
    assert ok and abs(lam) < 1e-12


def test_linear_eigenfunction_dephasing():
    gamma = 0.8
    rep = Representation(np.zeros((2, 2)), (np.sqrt(gamma) * SZ,))
    f = np.array([[0, 1], [0, 0]], dtype=complex)
    ok, lam = check_linear_eigenfunction(rep, f)
    assert ok and abs(lam - (-2 * gamma)) < 1e-10


@pytest.mark.parametrize("scale", [1.0, 1e4, 1e6, 1e8])
def test_linear_eigenfunction_pairing_scales_with_f(scale):
    # the pairing |Tr[F L(psi)] - lambda Tr[F psi]| is compared with
    # tau ||F|| max(1, |lambda|): an eigenmatrix of any norm is one, and a
    # matrix that is none is none at every norm
    rep = Representation(np.zeros((2, 2)), (np.sqrt(0.8) * SZ,))
    ok, lam = check_linear_eigenfunction(rep, scale * np.array([[0, 1], [0, 0]], dtype=complex))
    assert ok and abs(lam + 1.6) < 1e-10
    ok, _ = check_linear_eigenfunction(rep, scale * np.array([[1, 1], [0, 0]], dtype=complex))
    assert not ok


def test_linear_eigenfunction_rejects_generic(rng):
    rep = models.qubit_weak().rep
    f = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    ok, _ = check_linear_eigenfunction(rep, f)
    assert not ok


def test_monomial_order_cap():
    with pytest.raises(ValueError):
        monomial_eigenfunctions(PARITY, 4, 1.0)


def test_wave_operators_require_single_cycle():
    from weaksym.symmetry import NotSingleCycle
    m = models.qubit_weak()
    p = build_sjeds(m.rep)
    with pytest.raises(NotSingleCycle):
        wave_operators(p, (0, 1))  # two fixed points -> two cycles


def test_complex_parameter_certificates():
    # complex proportionality coefficients exercise every conjugation in the
    # mixing solver and the blockwise completion
    c1 = 0.6 / np.sqrt(2) * np.exp(0.7j)
    c2 = 0.8 / np.sqrt(2) * np.exp(-0.2j)
    m = models.qubit_ii(c1=c1, c2=c2)
    sym = sym_of(m)
    targets = [sym.conjugate(j) for j in m.rep.jumps]
    x, resid = solve_mixing_matrix(m.rep.jumps, targets)
    assert resid < 1e-12
    expected_x = np.sqrt(2) * np.array([
        [0, 0, c1], [0, 0, c2], [np.conj(c1), np.conj(c2), 0]])
    assert frob(x - expected_x) < 1e-9
    p = build_sjeds(m.rep)
    c2r = check_condition_II(m.rep, sym)
    assert c2r.holds and c2r.permutation == (1, 0)
    u = blockwise_unitary_completion(m.rep, sym, p, c2r.permutation)
    expected_u = np.sqrt(2) * np.array([
        [np.sqrt(2) * abs(c2) ** 2, -np.sqrt(2) * c1 * np.conj(c2), c1],
        [-np.sqrt(2) * np.conj(c1) * c2, np.sqrt(2) * abs(c1) ** 2, c2],
        [np.conj(c1), np.conj(c2), 0]])
    assert frob(u - expected_u) < 1e-9
    assert frob(dag(u) @ u - np.eye(3)) < 1e-10


def test_lift_proportional_pairs_qubit_nonunique():
    m = models.qubit_nonunique()
    sym = sym_of(m)
    out, groups = lift_II_to_III(m.rep, sym)
    assert out.njumps == 2  # one canonical jump per proportional pair
    assert check_condition_III(out, sym).holds
    ok, pi, r = same_unravelled_generator(m.rep, out)
    assert ok and abs(r) < 1e-12


def test_fourier_symmetrize_two_cycles():
    m = models.qubit_nonunique()
    sym = sym_of(m)
    out = fourier_symmetrize(m.rep, sym)
    assert out.njumps == 4
    assert representations_equal(m.rep, out, 1e-9)
    for j in out.jumps:
        t = sym.conjugate(j)
        c = np.vdot(j.reshape(-1), t.reshape(-1)) / frob(j) ** 2
        assert frob(t - c * j) < 1e-10 and abs(abs(c) - 1) < 1e-10
