import itertools
import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from weaksym import dilation, linalg, models, symmetry
from weaksym.lindblad import (
    Representation,
    apply_master_operator,
    pure_state,
    relate_representations,
)
from weaksym.linalg import dag, frob, matrix_exponential
from weaksym.sjed import build_sjeds
from weaksym.symmetry import (
    CompletionFailed,
    SymmetryOperator,
    build_symmetry_report,
    check_condition_II,
    check_condition_III,
    permutation_unitary,
)
from weaksym.dilation import (
    TimeBin,
    change_of_basis_symmetry,
    coarse_grained_generator_step,
    dephased_generator_step,
    displacement_step,
    environment_certificates,
    environment_trace_slope,
    joint_symmetry_residual,
    minimum_symmetry_residual,
    partial_trace_environment,
    partially_dephased_generator_step,
    rotating_frame_convergence,
    rotating_frame_step,
    stochastic_hamiltonian_step,
)

from conftest import SX, SZ, environment_symmetry, random_pure_state, random_unitary

PLUS = pure_state([1, 1])
DTS = (1e-2, 3e-3, 1e-3, 3e-4, 1e-4)


def parity_sym():
    return SymmetryOperator.from_matrix(SZ)


# ---------------------------------------------------------------- bin algebra

def test_bin_increment_table():
    bin_ = TimeBin(3)
    vac = bin_.vacuum_projector()
    for j in range(3):
        for k in range(3):
            db_j = dag(bin_.creation(j))       # annihilation, unit-normalized
            db_k_dag = bin_.creation(k)
            prod = db_j @ db_k_dag
            expected = vac if j == k else np.zeros_like(vac)
            assert frob(prod - expected) < 1e-15
            assert frob(db_k_dag @ db_j @ vac) < 1e-15  # normal order kills vac
            assert frob(dag(bin_.creation(j)) @ dag(bin_.creation(k)) @ vac) < 1e-15


def test_stochastic_hamiltonian_no_jumps():
    rep = Representation(0.7 * SZ, ())
    step = stochastic_hamiltonian_step(rep)
    assert frob(step.hamiltonian(0.3) - 0.3 * np.kron(0.7 * SZ, np.eye(1))) < 1e-14


def test_stochastic_hamiltonian_hermitian(rng):
    for _ in range(20):
        h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        h = (h + h.conj().T) / 2
        jumps = tuple(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                      for _ in range(2))
        step = stochastic_hamiltonian_step(Representation(h, jumps))
        m = step.hamiltonian(0.05)
        assert frob(m - dag(m)) < 1e-12


def test_unitary_step_trace_recovery_slope():
    rep = models.qubit_weak().rep
    slope = environment_trace_slope(stochastic_hamiltonian_step(rep), rep, PLUS, DTS)
    assert slope >= 1.9


def test_generator_steps_trace_recovery_slopes():
    m = models.qubit_ii()
    p = build_sjeds(m.rep)
    steps = {
        "dephased": dephased_generator_step(m.rep),
        "partial": partially_dephased_generator_step(m.rep, p),
        "coarse": coarse_grained_generator_step(m.rep, p),
    }
    for name, step in steps.items():
        slope = environment_trace_slope(step, m.rep, PLUS, DTS)
        assert slope >= 1.9, name


def test_partial_equals_dephased_for_singletons():
    rep = models.qubit_weak().rep
    p = build_sjeds(rep)
    a = dephased_generator_step(rep)
    b = partially_dephased_generator_step(rep, p)
    assert frob(a.generator() - b.generator()) < 1e-13


def test_coarse_bin_dimension():
    m = models.qubit_ii()
    p = build_sjeds(m.rep)
    step = coarse_grained_generator_step(m.rep, p)
    assert step.bin_dim == p.nsets + 1


# ---------------------------------------------------------------- displacement

def test_displacement_identity_for_traceless():
    rep = models.qubit_weak().rep
    assert frob(displacement_step(rep, 0.01) - np.eye(3)) < 1e-14


def test_displacement_rotation_angle():
    rep = Representation(np.zeros((2, 2)),
                         (np.array([[1, 0], [0, 0]], dtype=complex),))
    dt = 0.04
    d = displacement_step(rep, dt)
    angle = np.sqrt(dt) / 2
    expected = np.array([[np.cos(angle), np.sin(angle)],
                         [-np.sin(angle), np.cos(angle)]], dtype=complex)
    assert frob(d - expected) < 1e-10
    assert frob(dag(d) @ d - np.eye(2)) < 1e-12


def test_rotating_frame_equals_bare_for_traceless():
    rep = models.qubit_weak().rep
    a = stochastic_hamiltonian_step(rep)
    b = rotating_frame_step(rep)
    assert frob(a.hamiltonian(0.02) - b.hamiltonian(0.02)) < 1e-13


def test_rotating_frame_traceful_substitution():
    h = 0.3 * SZ
    rep = Representation(h, (np.array([[1, 0], [0, 0]], dtype=complex),))
    step = rotating_frame_step(rep)
    jp = np.diag([0.5, -0.5]).astype(complex)
    bin_ = TimeBin(1)
    expected_sqrt = 1j * (np.kron(jp, bin_.creation(0))
                          - np.kron(dag(jp), dag(bin_.creation(0))))
    assert frob(step.ham_sqrt - expected_sqrt) < 1e-13


def test_rotating_frame_convergence_traceless_is_exact():
    rep = models.qubit_weak().rep
    bare = stochastic_hamiltonian_step(rep)
    frame = rotating_frame_step(rep)
    for dt in DTS:
        u1 = matrix_exponential(-1j * bare.hamiltonian(dt))
        u2 = matrix_exponential(-1j * frame.hamiltonian(dt))
        d = np.kron(np.eye(2), displacement_step(rep, dt))
        assert frob(d @ u1 - u2) < 1e-14


def test_rotating_frame_convergence_slope():
    # traceful, non-Hermitian jump (Hermitian ones commute with the
    # displacement exactly and leave nothing to measure)
    rep = Representation(0.4 * SZ,
                         (np.array([[0.5, 0], [1.0, 0.5]], dtype=complex),))
    slope = rotating_frame_convergence(rep, DTS)
    assert 1.4 <= slope <= 1.6


# ---------------------------------------------------------------- environment

def test_environment_symmetry_identity():
    assert frob(environment_symmetry(np.eye(3)) - np.eye(4)) < 1e-14


def test_environment_symmetry_action_on_creation(rng):
    d = 3
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(a)
    u = q * (np.diag(r) / np.abs(np.diag(r)))
    ue = environment_symmetry(u)
    assert frob(dag(ue) @ ue - np.eye(d + 1)) < 1e-12
    bin_ = TimeBin(d)
    for j in range(d):
        lhs = ue @ dag(bin_.creation(j)) @ dag(ue)  # annihilation conjugated
        rhs = sum(u[j, k] * dag(bin_.creation(k)) for k in range(d))
        # equality holds on the vacuum sector (and here exactly)
        assert frob(lhs - rhs) < 1e-12


def test_environment_symmetry_permutation_phases():
    u = permutation_unitary((1, 0), (0.0, np.pi / 3))
    ue = environment_symmetry(u)
    assert frob(dag(ue) @ ue - np.eye(3)) < 1e-13


# ---------------------------------------------------------------- residual table

def certificates(model, name="parity"):
    """(sym, partition, c1, c2, c3, the report's environment certificates)."""
    sym = SymmetryOperator.from_matrix(model.symmetries[name])
    p = build_sjeds(model.rep)
    report = build_symmetry_report(model.rep, sym, partition=p)
    return (sym, p, report.condition_I, report.condition_II, report.condition_III,
            environment_certificates(report))


def steps(rep, p):
    return {"rotating_frame": rotating_frame_step(rep),
            "dephased": dephased_generator_step(rep),
            "partial": partially_dephased_generator_step(rep, p),
            "coarse": coarse_grained_generator_step(rep, p)}


def test_residuals_weakly_symmetric_model():
    m = models.qubit_weak()
    sym, p, c1, c2, c3, certs = certificates(m)
    images = sym.images(m.rep)
    assert list(certs) == ["dephased", "partial", "coarse", "rotating_frame"]
    for kind, step in steps(m.rep, p).items():
        assert joint_symmetry_residual(step, images, certs[kind]) < 1e-10
    # condition III's relabelling certifies the rotating and partial steps too
    assert frob(certs["dephased"] - permutation_unitary(c3.permutation, c3.phases)) == 0
    for step in (rotating_frame_step(m.rep), partially_dephased_generator_step(m.rep, p)):
        assert joint_symmetry_residual(step, images, certs["dephased"]) < 1e-10


def test_residuals_qubit_ii_partial_passes_full_fails():
    m = models.qubit_ii()
    sym, p, c1, c2, c3, certs = certificates(m)
    assert c2.holds and not c3.holds
    images = sym.images(m.rep)
    # rotating-frame, partially dephased and coarse generators are symmetric
    assert set(certs) == {"rotating_frame", "partial", "coarse"}
    assert certs["partial"] is certs["rotating_frame"] is c2.unitary
    for kind, step in steps(m.rep, p).items():
        if kind in certs:
            assert joint_symmetry_residual(step, images, certs[kind]) < 1e-10
    # the fully dephased generator resists every structured or random choice
    best = minimum_symmetry_residual(dephased_generator_step(m.rep),
                                     images, partition=p)
    assert best > 1e-3


def test_residuals_qubit_i_only_unitary_level():
    m = models.qubit_i()
    sym, p, c1, c2, c3, certs = certificates(m)
    assert c1.holds and not c2.holds
    images = sym.images(m.rep)
    assert list(certs) == ["rotating_frame"] and certs["rotating_frame"] is c1.unitary
    assert joint_symmetry_residual(rotating_frame_step(m.rep), images,
                                   certs["rotating_frame"]) < 1e-10
    for step in (dephased_generator_step(m.rep),
                 partially_dephased_generator_step(m.rep, p)):
        assert minimum_symmetry_residual(step, images, partition=p) > 1e-3
    coarse = coarse_grained_generator_step(m.rep, p)
    assert minimum_symmetry_residual(coarse, images, partition=p) > 1e-3


def test_certificates_skip_a_failed_block_completion(monkeypatch):
    def failed(*args):
        raise CompletionFailed("x")

    monkeypatch.setattr(symmetry, "blockwise_unitary_completion", failed)
    sym, p, c1, c2, c3, certs = certificates(models.qubit_ii())
    assert c2.holds and c2.unitary is None and c2.reason == "x"
    assert list(certs) == ["coarse", "rotating_frame"]
    assert certs["rotating_frame"] is c1.unitary


@pytest.mark.parametrize("name", [*models.BUILDERS])
def test_certificates_are_the_kinds_verify_joint_prints(name, capsys):
    # the nine built-ins and qutrit-chain
    from weaksym import cli

    assert cli.main(["verify-joint", name]) == 0
    doc = json.loads(capsys.readouterr().out)["symmetries"]
    analysis = cli.analyze(models.get_model(name))
    for sym_name, (sym, report) in analysis.symmetries.items():
        certs = environment_certificates(report)
        assert list(doc[sym_name]["residuals"]) == list(certs)
        c1, c2, c3 = report.verdicts()
        block = c2 and report.condition_II.unitary is not None
        assert set(certs) == ({"dephased"} if c3 else set()) | \
            ({"partial"} if block else set()) | ({"coarse"} if c2 else set()) | \
            ({"rotating_frame"} if block or c1 else set())
        assert all(r < 1e-9 for r in doc[sym_name]["residuals"].values())


@pytest.mark.parametrize("dim, seed", [(2, 0), (2, 1), (4, 2)])
def test_scan_minimum_is_exact(dim, seed, monkeypatch):
    # jumps: A and noisy images of A under a symmetry of order 3, so the
    # best relabelling is a 3-cycle; on the qubit also two rank-one jumps
    # with a shared destination (one SJED of size 2)
    rng = np.random.default_rng(seed)
    v = random_unitary(rng, dim)
    u = v @ np.diag(np.exp(2j * np.pi * np.arange(dim) / 3)) @ dag(v)

    def gaussian(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    a = gaussian(dim, dim)
    jumps = [a, u @ a @ dag(u) + 0.3 * gaussian(dim, dim),
             u @ u @ a @ dag(u @ u) + 0.3 * gaussian(dim, dim)]
    if dim == 2:
        dest = gaussian(dim)
        jumps += [np.outer(dest, gaussian(dim).conj()) for _ in range(2)]
    h = gaussian(dim, dim)
    rep = Representation(h + dag(h), tuple(jumps))
    p = build_sjeds(rep)
    images = SymmetryOperator.from_matrix(u).images(rep)
    calls = []

    def counted(*args):
        calls.append(args)
        return joint_symmetry_residual(*args)

    # dephased and coarse minima are exact; the partial one is a bound that
    # still beats every relabelling and every random unitary
    for step in (dephased_generator_step(rep), coarse_grained_generator_step(rep, p),
                 partially_dephased_generator_step(rep, p)):
        calls.clear()
        with monkeypatch.context() as mp:
            mp.setattr(dilation, "joint_symmetry_residual", counted)
            best = minimum_symmetry_residual(step, images, p)
        assert len(calls) == 1
        nq = step.bin_dim - 1
        envs = [permutation_unitary(pi) for pi in itertools.permutations(range(nq))]
        envs += [random_unitary(rng, nq) for _ in range(50)]
        for env in envs:
            r = joint_symmetry_residual(step, images, env)
            assert best <= r + 1e-12


def dense_residual(step, u_system, u_env):
    """The joint residual read off the joint operators themselves."""
    w = np.kron(u_system, u_env)
    if step.kind == "unitary":
        lam, m = step.hamiltonian(1.0), w
    else:
        lam, m = step.generator(), np.kron(w, w.conj())
    return frob(m @ lam @ dag(m) - lam) / max(frob(lam), 1e-300)


@given(dim=st.integers(2, 3), n_full=st.integers(0, 2), n_reset=st.integers(0, 2),
       identity=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_residual_matches_dense_oracle(dim, n_full, n_reset, identity, seed):
    # traceful jumps, rank-one jumps sharing a destination (one SJED), and
    # optionally the identity, whose traceless part is zero
    rng = np.random.default_rng(seed)

    def gaussian(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    dest = gaussian(dim)
    jumps = [gaussian(dim, dim) for _ in range(n_full)]
    jumps += [np.outer(dest, gaussian(dim).conj()) for _ in range(n_reset)]
    jumps += [np.eye(dim, dtype=complex)] * identity
    h = gaussian(dim, dim)
    rep = Representation(h + dag(h), tuple(jumps))
    p = build_sjeds(rep)
    u = random_unitary(rng, dim)
    images = SymmetryOperator.from_matrix(u).images(rep)
    for step in (stochastic_hamiltonian_step(rep), rotating_frame_step(rep),
                 dephased_generator_step(rep),
                 partially_dephased_generator_step(rep, p),
                 coarse_grained_generator_step(rep, p)):
        env = random_unitary(rng, step.bin_dim - 1)
        assert abs(joint_symmetry_residual(step, images, env)
                   - dense_residual(step, u, environment_symmetry(env))) <= 1e-12


def _condition_ii_model(seed):
    """Qutrit model symmetric at the SJED level only: an SJED of two reset
    jumps, its image under an involution U remixed by a random 2x2 unitary,
    and three resets to a U-fixed destination whose sources have a
    U-invariant Gram matrix (so U remixes that SJED within itself)."""
    rng = np.random.default_rng(seed)

    def gaussian(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    v = random_unitary(rng, 3)
    u = v @ np.diag([1, 1, -1]) @ dag(v)
    dest = gaussian(3)
    pair = [np.outer(dest, gaussian(3).conj()) for _ in range(2)]
    w = random_unitary(rng, 2)
    image = [sum(w[i, k] * u @ pair[k] @ dag(u) for k in range(2)) for i in range(2)]
    fixed = v[:, :2] @ gaussian(2)
    sources = np.hstack([v[:, :2] @ gaussian(2, 2), v[:, 2:] @ gaussian(1, 1)])
    sources = sources @ random_unitary(rng, 3)
    trio = [np.outer(fixed, sources[:, i].conj()) for i in range(3)]
    h = gaussian(3, 3)
    h = h + dag(h)
    rep = Representation(h + u @ h @ dag(u), tuple(pair + image + trio))
    return rep, SymmetryOperator.from_matrix(u)


@pytest.mark.parametrize("case", ["qubit-II", "twoqubit-II", "seeded"])
def test_partial_minimum_vanishes_under_condition_II(case):
    if case == "seeded":
        rep, sym = _condition_ii_model(0)
    else:
        m = models.get_model(case)
        rep = m.rep
        sym = SymmetryOperator.from_matrix(next(iter(m.symmetries.values())))
    p = build_sjeds(rep)
    c2, c3 = check_condition_II(rep, sym, partition=p), check_condition_III(rep, sym)
    assert c2.holds and not c3.holds
    if case == "seeded":
        assert sorted(s.size for s in p.sets) == [2, 2, 3]
    step = partially_dephased_generator_step(rep, p)
    assert minimum_symmetry_residual(step, sym.images(rep), p) <= 1e-10


def test_minimum_rejects_unitary_steps():
    m = models.qubit_i()
    with pytest.raises(ValueError):
        minimum_symmetry_residual(rotating_frame_step(m.rep),
                                  parity_sym().images(m.rep), build_sjeds(m.rep))


def test_stationarity_of_trajectory_certificates():
    # trajectory-level certificates leave the displacement generator alone:
    # the transported jump traces match, so no time dependence is needed
    for m in (models.qubit_ii(), models.twoqubit_ii()):
        u = certificates(m, next(iter(m.symmetries)))[-1]["partial"]
        traces = np.array([np.trace(j) for j in m.rep.jumps])
        assert np.linalg.norm(u @ traces - traces) < 1e-9


# ---------------------------------------------------------------- basis change

def test_change_of_basis_square():
    m1 = models.qubit_weak()
    m3 = models.qubit_iii()
    sym, _, c1, _, _, _ = certificates(m1)
    v, _ = relate_representations(m1.rep, m3.rep)
    u_b, resid = change_of_basis_symmetry(m3.rep, v, c1.unitary, sym)
    assert resid < 1e-10
    # the transported certificate is the record-level swap of the target
    expected = np.array([[0, 1], [1, 0]], dtype=complex)
    assert min(frob(u_b - expected), frob(u_b + expected)) < 1e-9


def test_change_of_basis_identity():
    m = models.qubit_weak()
    sym, _, c1, _, _, _ = certificates(m)
    u_b, resid = change_of_basis_symmetry(m.rep, np.eye(2), c1.unitary, sym)
    assert resid < 1e-10
    assert frob(u_b - c1.unitary) < 1e-12


def test_change_of_basis_tall():
    m = models.qubit_weak()
    sym, _, c1, _, _, _ = certificates(m)
    rep_b = Representation(m.rep.hamiltonian,
                           (m.rep.jumps[0] / np.sqrt(2),
                            m.rep.jumps[0] / np.sqrt(2),
                            m.rep.jumps[1]))
    v, _ = relate_representations(m.rep, rep_b)
    u_b, resid = change_of_basis_symmetry(rep_b, v, c1.unitary, sym)
    assert resid < 1e-9
    assert frob(dag(u_b) @ u_b - np.eye(3)) < 1e-10


def test_change_of_basis_refuses_a_wrong_candidate_at_any_scale():
    # the transported matrix must reproduce each image within tau of its
    # own norm, however small the jumps are
    m = models.qubit_weak()
    sym = SymmetryOperator.from_matrix(m.symmetries["parity"])
    rep_a = Representation(m.rep.hamiltonian, tuple(1e-10 * j for j in m.rep.jumps))
    j1, j2 = rep_a.jumps
    rep_b = Representation(rep_a.hamiltonian, (j1 / np.sqrt(2), j1 / np.sqrt(2), j2))
    v, _ = relate_representations(rep_a, rep_b)
    with pytest.raises(CompletionFailed):
        change_of_basis_symmetry(rep_b, v, np.array([[0, 1], [1, 0]]), sym)


def test_symmetry_images_are_read_for_their_own_representation():
    # generator steps read the jump coordinates of the symmetry's images,
    # which must be of the step's own representation
    model = models.qubit_ii()
    rep = model.rep
    sym = SymmetryOperator.from_matrix(next(iter(model.symmetries.values())))
    p = build_sjeds(rep)
    other = Representation(rep.hamiltonian, [2 * j for j in rep.jumps])
    env = random_unitary(np.random.default_rng(3), rep.njumps)
    with pytest.raises(ValueError):
        joint_symmetry_residual(dephased_generator_step(other), sym.images(rep), env)
    with pytest.raises(ValueError):
        minimum_symmetry_residual(dephased_generator_step(other), sym.images(rep), p)


def test_unitary_steps_of_another_representation_raise():
    # a bare or rotating-frame step must hold the images' own operators
    model = models.qubit_ii()
    images = SymmetryOperator.from_matrix(model.symmetries["parity"]).images(model.rep)
    other = Representation(model.rep.hamiltonian, [2 * j for j in model.rep.jumps])
    env = np.eye(model.rep.njumps)
    for step in (stochastic_hamiltonian_step(other), rotating_frame_step(other)):
        with pytest.raises(ValueError):
            joint_symmetry_residual(step, images, env)
    # the same representation passes, through either frame
    for step in (stochastic_hamiltonian_step(model.rep), rotating_frame_step(model.rep)):
        assert joint_symmetry_residual(step, images, env) >= 0.0


def test_residual_rejects_mismatched_shapes():
    # u must act on the step's bin modes, and the symmetry on its system
    model = models.qubit_ii()
    rep = model.rep
    sym = SymmetryOperator.from_matrix(next(iter(model.symmetries.values())))
    p = build_sjeds(rep)
    images = sym.images(rep)
    wide_rep = Representation(np.kron(rep.hamiltonian, np.eye(2)),
                              tuple(np.kron(j, np.eye(2)) for j in rep.jumps))
    wide = SymmetryOperator.from_matrix(np.kron(sym.matrix, SZ)).images(wide_rep)
    for step in (rotating_frame_step(rep), dephased_generator_step(rep),
                 partially_dephased_generator_step(rep, p),
                 coarse_grained_generator_step(rep, p)):
        n_modes = step.bin_dim - 1
        for size in (n_modes - 1, n_modes + 1):
            with pytest.raises(linalg.ShapeError):
                joint_symmetry_residual(step, images, np.eye(size))
        with pytest.raises(linalg.ShapeError):
            joint_symmetry_residual(step, wide, np.eye(n_modes))
