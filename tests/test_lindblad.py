import tracemalloc

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, strategies as st

from weaksym import linalg, lindblad, models
from weaksym.lindblad import (
    NegativeTimeError,
    NotSameMasterOperator,
    Representation,
    apply_adjoint_master_operator,
    apply_master_operator,
    change_superoperator_basis,
    evolve_density,
    generator_matrix,
    jump_part_choi,
    liouville_matrix,
    liouville_to_choi,
    pure_state,
    relate_representations,
    representations_equal,
)
from weaksym.linalg import dag, frob, hermitian_eigendecomposition

from conftest import (SX, SZ, SM, random_hermitian, random_pure_state, random_unitary,
                      superoperator_matrix)

PLUS = pure_state([1, 1])


def dephasing_qubit(gamma=1.0):
    return Representation(np.zeros((2, 2)), (np.sqrt(gamma) * SZ,))


def qubit_weak(omega=1.0, gz=1.0, gx=1.0):
    return Representation(omega * SZ, (np.sqrt(gz) * SZ, np.sqrt(gx) * SX))


def test_representation_validation():
    with pytest.raises(ValueError):
        Representation(np.array([[0, 1], [0, 0]]), ())  # not Hermitian
    with pytest.raises(ValueError):
        Representation(np.zeros((2, 2)), (np.zeros((2, 2)),))  # zero jump


def test_master_operator_trivial():
    rep = Representation(np.zeros((2, 2)), ())
    assert frob(apply_master_operator(rep, PLUS)) == 0.0


def test_master_operator_dephasing_offdiagonal():
    omega, gamma = 0.7, 1.3
    rep = Representation(omega * SZ, (np.sqrt(gamma) * SZ,))
    out = apply_master_operator(rep, PLUS)
    expected = -(2 * gamma + 2j * omega) * PLUS[0, 1]
    assert abs(out[0, 1] - expected) < 1e-12


def test_master_operator_trace_preserving(rng):
    rep = qubit_weak()
    for _ in range(50):
        rho = random_hermitian(rng, 2)
        out = apply_master_operator(rep, rho)
        assert abs(np.trace(out)) <= 1e-12 * max(1.0, frob(rho))
        assert frob(apply_master_operator(rep, dag(rho)) - dag(out)) < 1e-12


def test_liouville_identity_superop():
    # rho -> G rho + rho G† with G = 1/2 is the identity
    lam = generator_matrix(0.5 * np.eye(2))
    assert np.allclose(lam, superoperator_matrix(lambda r: r, 2))
    assert np.allclose(lam, np.eye(4))


def test_liouville_unitary_conjugation():
    lam = generator_matrix(np.zeros((2, 2)), [SX])
    assert np.allclose(lam, superoperator_matrix(lambda r: SX @ r @ dag(SX), 2))
    assert np.allclose(lam, np.kron(SX, SX.conj()))


def test_liouville_matches_master_operator(rng):
    rep = qubit_weak(0.3, 0.7, 1.1)
    lam = liouville_matrix(rep)
    rho = random_hermitian(rng, 2)
    direct = apply_master_operator(rep, rho).reshape(-1)
    assert np.linalg.norm(lam @ rho.reshape(-1) - direct) < 1e-12


def test_dephasing_liouville_spectrum():
    gamma = 0.9
    lam = liouville_matrix(dephasing_qubit(gamma))
    evals = np.sort_complex(np.linalg.eigvals(lam))
    expected = np.sort_complex(np.array([0, 0, -2 * gamma, -2 * gamma], dtype=complex))
    assert np.allclose(evals, expected, atol=1e-12)


def test_choi_identity_superop():
    c = liouville_to_choi(generator_matrix(0.5 * np.eye(2)))
    v = np.eye(2, dtype=complex).reshape(-1, 1)
    assert np.allclose(c, v @ dag(v))


def test_choi_reshuffle_identity(rng):
    rep = qubit_weak()
    lam = liouville_matrix(rep)
    c = liouville_to_choi(lam)
    d = 2
    lam4 = lam.reshape(d, d, d, d)
    c4 = c.reshape(d, d, d, d)
    for m in range(d):
        for n in range(d):
            for k in range(d):
                for l in range(d):
                    assert c4[m, n, k, l] == lam4[m, k, n, l]


def test_jump_part_choi_psd(rng):
    jumps = [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
             for _ in range(2)]
    c = jump_part_choi(jumps)
    w, _ = hermitian_eigendecomposition(c)
    assert np.min(w) > -1e-10


# ------------------------------------------- Kronecker oracles of the builders

def _kron_liouville(rep):
    """The Liouville matrix as Kronecker products, term by term."""
    d = rep.dim
    h = rep.hamiltonian
    eye = np.eye(d, dtype=complex)
    lam = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for j in rep.jumps:
        jdj = dag(j) @ j
        lam += np.kron(j, j.conj())
        lam -= 0.5 * (np.kron(jdj, eye) + np.kron(eye, jdj.T))
    return lam


def _kron_generator(g, jumps):
    """G x 1 + 1 x G* + sum_m J_m x J_m*."""
    eye = np.eye(len(g), dtype=complex)
    return np.kron(g, eye) + np.kron(eye, g.conj()) + sum(
        (np.kron(j, j.conj()) for j in jumps), np.zeros((len(g) ** 2,) * 2))


def _gaussian(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _terms_scale(g, jumps):
    """A bound on the Frobenius norms of the generator's Kronecker terms,
    the scale of its rounding (at d = 1 the Liouvillian is exactly 0)."""
    return 2 * np.sqrt(len(g)) * frob(g) + sum(frob(j) ** 2 for j in jumps)


@given(dim=st.integers(1, 4), njumps=st.integers(0, 4),
       seed=st.integers(0, 2 ** 32 - 1))
def test_liouville_matrix_matches_kronecker_formula(dim, njumps, seed):
    rng = np.random.default_rng(seed)
    h = _gaussian(rng, dim, dim)
    rep = Representation(h + dag(h), [_gaussian(rng, dim, dim) for _ in range(njumps)])
    scale = _terms_scale(rep.effective_hamiltonian, rep.jumps)
    assert frob(liouville_matrix(rep) - _kron_liouville(rep)) <= 1e-14 * scale


@given(dim=st.integers(1, 4), njumps=st.integers(0, 4),
       seed=st.integers(0, 2 ** 32 - 1))
def test_generator_matrix_matches_kronecker_formula(dim, njumps, seed):
    # G is not anti-Hermitian here, as -i H_eff x 1 in the joint generator
    rng = np.random.default_rng(seed)
    g = _gaussian(rng, dim, dim)
    jumps = [_gaussian(rng, dim, dim) for _ in range(njumps)]
    scale = _terms_scale(g, jumps)
    assert frob(generator_matrix(g, jumps) - _kron_generator(g, jumps)) <= 1e-14 * scale


@given(dim=st.integers(1, 4), unitary=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_superoperator_basis_change_matches_explicit_product(dim, unitary, seed):
    rng = np.random.default_rng(seed)
    s = _gaussian(rng, dim * dim, dim * dim)
    v = random_unitary(rng, dim) if unitary else _gaussian(rng, dim, dim)
    w = np.kron(v, v.conj())
    ref = dag(w) @ s @ w
    assert frob(change_superoperator_basis(s, v) - ref) <= 1e-14 * frob(ref)


@given(dim=st.integers(1, 4), njumps=st.integers(1, 4),
       seed=st.integers(0, 2 ** 32 - 1))
def test_jump_part_choi_matches_reshuffled_kronecker_sum(dim, njumps, seed):
    rng = np.random.default_rng(seed)
    jumps = [_gaussian(rng, dim, dim) for _ in range(njumps)]
    ref = liouville_to_choi(sum(np.kron(j, j.conj()) for j in jumps))
    assert frob(jump_part_choi(jumps) - ref) <= 1e-14 * frob(ref)


def test_traceless_noop_for_traceless_jumps():
    rep = qubit_weak()
    out = Representation(*rep.traceless, rep.labels)
    assert frob(out.hamiltonian - rep.hamiltonian) < 1e-14
    for a, b in zip(out.jumps, rep.jumps):
        assert frob(a - b) < 1e-14


def test_traceless_projector_jump():
    h = 0.4 * SZ
    rep = Representation(h, (np.array([[1, 0], [0, 0]], dtype=complex),))
    out = Representation(*rep.traceless, rep.labels)
    assert np.allclose(out.jumps[0], np.diag([0.5, -0.5]))
    assert np.allclose(out.hamiltonian, h)
    assert representations_equal(rep, out, 1e-10)


def test_traceless_idempotent(rng):
    h = random_hermitian(rng, 3)
    jumps = tuple(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
                  for _ in range(2))
    rep = Representation(h, jumps)
    t1 = Representation(*rep.traceless, rep.labels)
    t2 = Representation(*t1.traceless, t1.labels)
    assert frob(t1.hamiltonian - t2.hamiltonian) < 1e-12
    for a, b in zip(t1.jumps, t2.jumps):
        assert frob(a - b) < 1e-12
        assert abs(np.trace(a)) < 1e-12
    assert representations_equal(rep, t1, 1e-10)


def test_derived_operators_are_cached_and_read_only():
    rep = Representation(0.4 * SZ, (SM, np.eye(2, dtype=complex)))
    hp, jumps = rep.traceless
    assert rep.traceless is rep.traceless
    assert rep.effective_hamiltonian is rep.effective_hamiltonian
    for m in (hp, *jumps, rep.effective_hamiltonian):
        with pytest.raises(ValueError):
            m[0, 0] = 7.0
    with pytest.raises(AttributeError):
        rep.traceless = (hp, ())
    with pytest.raises(AttributeError):
        rep.effective_hamiltonian = hp


def test_traceless_jumps_share_memory_and_keep_the_formula():
    # a jump of trace 0 is a read-only view of itself, and the caller's
    # array stays writeable; every other one is J - tr(J)/d on the diagonal
    chain = models.qutrit_chain(3, thetas=np.random.default_rng(7).uniform(
        0.0, 2 * np.pi, 3))
    reps = [b().rep for b in models.BUILDERS.values()] + [chain.rep]
    reps.append(Representation(0.4 * SZ, (SM, np.eye(2, dtype=complex),
                                          np.diag([1.0, 0.25]) + SM)))
    for rep in reps:
        d = rep.dim
        shift = sum((j * np.conj(np.trace(j)) - dag(j) * np.trace(j)
                     for j in map(linalg.dense, rep.jumps)), np.zeros((d, d), dtype=complex))
        hp, jumps = rep.traceless
        assert np.array_equal(linalg.dense(hp),
                              linalg.dense(rep.hamiltonian) + (1j / (2.0 * d)) * shift)
        for j, t in zip(rep.jumps, jumps, strict=True):
            assert np.array_equal(linalg.dense(t), linalg.dense(j) - (j.trace() / d) * np.eye(d))
            if scipy.sparse.issparse(j):     # the chain's CSR jumps: one object
                assert (t is j) == (j.trace() == 0)
                continue
            assert np.shares_memory(t, j) == (np.trace(j) == 0)
            assert j.flags.writeable and not t.flags.writeable
    assert any(j.trace() == 0 for j in chain.rep.jumps)
    assert not any(np.trace(j) == 0 for j in reps[-1].jumps[1:])


def _csr(a):
    """a as a CSR array that stores its entries with a nonzero bit
    (linalg.stored), so that it keeps every bit of a."""
    rows, cols = np.nonzero(linalg.stored(a))
    return scipy.sparse.csr_array((a[rows, cols], (rows, cols)), shape=a.shape)


def _embedded(model, form):
    """The model with every operator A made A ⊗ 1, of dim above
    linalg.SMALL_DIM, in form (np.asarray or _csr)."""
    m = linalg.SMALL_DIM // model.rep.dim + 1

    def op(a):
        return form(np.kron(linalg.dense(a), np.eye(m)))
    rep = Representation(op(model.rep.hamiltonian), tuple(map(op, model.rep.jumps)),
                         model.rep.labels)
    return models.Model(model.name, rep, {k: op(u) for k, u in model.symmetries.items()},
                        model.sjed_groups, model.expect)


def test_csr_operators_give_the_dense_forms_results():
    # the same representation of dim above linalg.SMALL_DIM with every
    # operator an array and a CSR matrix: its frame, nonzeros, H_eff and
    # fingerprint, and the check of every built-in
    from weaksym.cli import analyze, run_check
    traced = models.Model("traced", Representation(
        0.4 * SZ, (SM, np.eye(2, dtype=complex), np.diag([1.0, 0.25]) + SM)), {})
    for model in [traced] + [b() for n, b in models.BUILDERS.items() if n != "qutrit-chain"]:
        dense, csr = _embedded(model, np.asarray), _embedded(model, _csr)
        rep = dense.rep
        assert not any(map(scipy.sparse.issparse, (rep.hamiltonian, *rep.jumps)))
        hp, jumps = csr.rep.traceless
        assert np.allclose(linalg.dense(hp), rep.traceless[0], atol=1e-15)
        for t, u in zip(jumps, rep.traceless[1], strict=True):
            assert scipy.sparse.issparse(t) and np.allclose(linalg.dense(t), u)
        assert np.allclose(csr.rep.effective_hamiltonian, rep.effective_hamiltonian, atol=1e-15)
        assert csr.rep.fingerprint() == rep.fingerprint()
        k, rows, cols, values = csr.rep.nonzeros
        ref = rep.nonzeros
        assert all(np.array_equal(x, y) for x, y in zip((k, rows, cols), ref[:3]))
        assert np.allclose(values, ref[3], atol=1e-15)
        a, b = run_check(analyze(dense))[0], run_check(analyze(csr))[0]
        for sym in a["symmetries"]:
            for key in ("order", "condition_I", "condition_II", "condition_III", "pi_c", "pi"):
                assert a["symmetries"][sym][key] == b["symmetries"][sym][key], \
                    (model.name, sym, key)
            assert np.allclose(a["symmetries"][sym]["phases"] or [],
                               b["symmetries"][sym]["phases"] or [], atol=1e-12)
        assert a["sjeds"] == b["sjeds"]


def test_model_matrix_norm_is_capped():
    # larger entries overflow the squared norms the checks sum; the
    # message names the matrix and its norm, computed without overflow
    with pytest.raises(ValueError, match=r"jump 0 has Frobenius norm 1e\+160"):
        Representation(SZ, (np.diag([1e160, 0.0]),))
    with pytest.raises(ValueError, match="hamiltonian has Frobenius norm"):
        Representation(1e50 * SZ, ())
    Representation(1e49 * SZ, (1e49 * SM,))


def test_effective_hamiltonian():
    rep = Representation(np.zeros((2, 2)), (SM,))
    heff = rep.effective_hamiltonian
    assert np.allclose(heff, -0.5j * np.diag([1.0, 0.0]))
    w, _ = hermitian_eigendecomposition((heff - dag(heff)) / 2j)
    assert np.max(w) <= 1e-14


def test_evolve_density_t0():
    rep = qubit_weak()
    assert np.allclose(evolve_density(rep, PLUS, 0.0), PLUS)
    with pytest.raises(NegativeTimeError):
        evolve_density(rep, PLUS, -1.0)


def test_evolve_density_refuses_superoperators_above_the_size_limit():
    # at d = 81 the Liouville matrix would hold 6561^2 complex entries (657 MiB)
    rep = models.qutrit_chain(4).rep
    assert rep.dim > lindblad.MAX_SUPEROP_DIM
    rho0 = pure_state(np.ones(rep.dim))
    tracemalloc.start()
    try:
        with pytest.raises(linalg.ShapeError):
            evolve_density(rep, rho0, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    # the limit itself is allowed
    d = lindblad.MAX_SUPEROP_DIM
    rep = Representation(np.zeros((d, d)), (np.diag(np.arange(d) / d),))
    rho = evolve_density(rep, pure_state(np.ones(d)), 0.5)
    assert abs(np.trace(rho) - 1.0) < 1e-12


def test_evolve_density_dephasing():
    gamma, t = 0.8, 0.9
    rho = evolve_density(dephasing_qubit(gamma), PLUS, t)
    assert abs(rho[0, 1] - PLUS[0, 1] * np.exp(-2 * gamma * t)) < 1e-12
    assert abs(np.trace(rho) - 1) < 1e-10


def test_evolve_density_relaxes_to_mixed():
    rho = evolve_density(qubit_weak(), pure_state([1, 0]), 50.0)
    assert frob(rho - np.eye(2) / 2) < 1e-8


def test_evolve_semigroup(rng):
    rep = qubit_weak(0.5, 0.4, 1.2)
    rho0 = random_pure_state(rng, 2)
    a = evolve_density(rep, rho0, 1.7)
    b = evolve_density(rep, evolve_density(rep, rho0, 0.9), 0.8)
    assert frob(a - b) < 1e-9


def test_representations_equal_traceless():
    rep = Representation(0.3 * SZ, (np.array([[1, 0], [0, 0]], dtype=complex), SX))
    assert representations_equal(rep, Representation(*rep.traceless, rep.labels), 1e-9)


def test_representations_equal_identity_jump():
    rep = Representation(0.3 * SZ, (np.eye(2), SX))
    assert representations_equal(rep, Representation(0.3 * SZ, (SX,)), 1e-9)
    v, unique = relate_representations(rep, rep)
    assert not unique
    assert frob(dag(v) @ v - np.eye(2)) < 1e-12


def test_representations_equal_rejects_scaled():
    a = qubit_weak(1.0, 1.0, 1.0)
    b = qubit_weak(1.0, 1.0, 2.0)
    assert not representations_equal(a, b, 1e-9)


def test_relate_identity():
    rep = qubit_weak()
    v, unique = relate_representations(rep, rep)
    assert np.allclose(v, np.eye(2), atol=1e-12)
    assert unique


def test_relate_jump_free_representations():
    rep = Representation(np.diag([1.0, -1.0]), ())
    v, unique = relate_representations(rep, rep)
    assert v.shape == (0, 0) and unique


def test_relate_qubit_weak_to_mixed():
    gz, gx = 1.0, 1.0
    rep1 = qubit_weak(1.0, gz, gx)
    j1 = (np.sqrt(gz) * SZ + np.sqrt(gx) * SX) / np.sqrt(2)
    j2 = (np.sqrt(gz) * SZ - np.sqrt(gx) * SX) / np.sqrt(2)
    rep2 = Representation(rep1.hamiltonian, (j1, j2))
    v, unique = relate_representations(rep1, rep2)
    assert unique
    expected = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    assert frob(v - expected) < 1e-9
    for jt, row in zip(rep2.jumps, v):
        mix = sum(row[k] * rep1.jumps[k] for k in range(2))
        assert frob(jt - mix) < 1e-9


def test_relate_duplicated_jump():
    rep_a = Representation(np.zeros((2, 2)), (SX,))
    rep_b = Representation(np.zeros((2, 2)), (SX / np.sqrt(2), SX / np.sqrt(2)))
    v, _ = relate_representations(rep_a, rep_b)
    assert v.shape == (2, 1)
    assert frob(dag(v) @ v - np.eye(1)) < 1e-12
    assert frob(v - np.array([[1], [1]]) / np.sqrt(2)) < 1e-9


@pytest.mark.parametrize("d", [4, 13])
def test_identity_shift_is_same_master_operator(d):
    rng = np.random.default_rng(d)
    jumps = tuple(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                  for _ in range(3))
    rep = Representation(random_hermitian(rng, d), jumps)
    shifted = Representation(rep.hamiltonian + 0.7 * np.eye(d), jumps)
    assert representations_equal(rep, shifted)
    v, unique = relate_representations(rep, shifted)
    assert unique
    assert frob(v - np.eye(3)) < 1e-9
    # a large common shift must not loosen the traceless comparison
    delta = random_hermitian(rng, d)
    delta -= (np.trace(delta) / d) * np.eye(d)
    delta *= 1e-6 * frob(rep.hamiltonian) / frob(delta)
    nudged = Representation(rep.hamiltonian + 1e4 * np.eye(d) + delta, jumps)
    assert not representations_equal(rep, nudged)


def test_relate_rejects_different_operator():
    with pytest.raises(NotSameMasterOperator):
        relate_representations(qubit_weak(1, 1, 1), qubit_weak(1, 1, 2))


def test_apply_master_operator_shape_check():
    from weaksym.linalg import ShapeError
    rep = qubit_weak()
    with pytest.raises(ShapeError):
        apply_master_operator(rep, np.eye(3))
