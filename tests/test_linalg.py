import ast
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
import scipy.sparse
from hypothesis import given, settings, strategies as st

from weaksym import linalg, models
from weaksym.lindblad import Representation
from weaksym.linalg import (
    dag,
    frob,
    hermitian_eigendecomposition,
    matrix_exponential,
    unitary_eigendecomposition,
)

from conftest import SX, SZ, random_hermitian, random_unitary


def test_eigh_diagonal():
    w, v = hermitian_eigendecomposition(np.diag([1.0, 2.0]))
    assert np.allclose(w, [1.0, 2.0])
    assert np.allclose(v, np.eye(2))


def test_eigh_pauli_x():
    w, v = hermitian_eigendecomposition(SX)
    assert np.allclose(w, [-1.0, 1.0])
    assert np.allclose(np.abs(v[:, 0]), [1 / np.sqrt(2)] * 2)
    assert np.allclose(SX @ v, v @ np.diag(w), atol=1e-13)


def hermitian_case(case):
    if case == "repeated":  # eigenvalue multiplicities 1, 3, 2
        v = random_unitary(np.random.default_rng(5), 6)
        return (v * np.array([-1.0, 0.5, 0.5, 0.5, 2.0, 2.0])) @ dag(v)
    return random_hermitian(np.random.default_rng(case), 5)


def unitary_case(case):
    if case == "degenerate":  # eigenphase multiplicities 3, 2, 1
        v = random_unitary(np.random.default_rng(11), 6)
        return (v * np.exp(1j * np.repeat([0.4, 2.7, 5.0], [3, 2, 1]))) @ dag(v)
    if case == "chain-translation":
        return linalg.dense(models.qutrit_chain(3).symmetries["translation"])
    return random_unitary(np.random.default_rng(case), 5)


@pytest.mark.parametrize("case", [*range(100), "repeated"])
def test_eigh_reconstruction(case):
    a = hermitian_case(case)
    n = a.shape[0]
    w, v = hermitian_eigendecomposition(a)
    assert frob(a @ v - v @ np.diag(w)) <= 1e-12 * max(1.0, frob(a))
    assert frob(dag(v) @ v - np.eye(n)) <= 1e-12
    assert frob(v @ np.diag(w) @ dag(v) - a) <= 1e-12 * max(1.0, frob(a))
    assert np.all(np.diff(w) >= -1e-14)


def test_eigh_rejects_non_hermitian():
    with pytest.raises(linalg.NotHermitianError):
        hermitian_eigendecomposition(np.array([[0, 1], [0, 0]], dtype=complex))


def test_eigh_deterministic():
    rng = np.random.default_rng(7)
    a = random_hermitian(rng, 6)
    w1, v1 = hermitian_eigendecomposition(a)
    w2, v2 = hermitian_eigendecomposition(a.copy())
    assert np.array_equal(w1, w2)
    assert np.array_equal(v1, v2)


def test_unitary_eig_identity():
    phases, _ = unitary_eigendecomposition(np.eye(3))
    assert np.allclose(phases, 0.0)


def test_unitary_eig_pauli_z():
    phases, v = unitary_eigendecomposition(SZ)
    assert np.allclose(phases, [0.0, np.pi])
    assert np.allclose(np.abs(v), np.eye(2))


def test_unitary_eig_cycle():
    u = np.zeros((4, 4), dtype=complex)
    for k in range(4):
        u[(k + 1) % 4, k] = 1.0
    phases, v = unitary_eigendecomposition(u)
    assert np.allclose(sorted(phases), [0.0, np.pi / 2, np.pi, 3 * np.pi / 2], atol=1e-12)
    assert frob(u @ v - v @ np.diag(np.exp(1j * phases))) < 1e-12


@pytest.mark.parametrize("case", [*range(30), "degenerate", "chain-translation"])
def test_unitary_eig_reconstruction(case):
    u = unitary_case(case)
    n = u.shape[0]
    phases, v = unitary_eigendecomposition(u)
    assert frob(u @ v - v @ np.diag(np.exp(1j * phases))) < 1e-12
    assert frob(dag(v) @ v - np.eye(n)) < 1e-12
    assert np.all(phases >= 0) and np.all(phases < 2 * np.pi)


def test_unitary_eig_rejects_non_unitary():
    # a NaN unitarity gap (nan entries, or U†U overflowing) fails the gate too
    with np.errstate(over="ignore", invalid="ignore"):
        for u in (2.0 * np.eye(2), np.diag([1.0, np.nan]), np.diag([1.0, 1e200])):
            with pytest.raises(linalg.NotUnitaryError):
                unitary_eigendecomposition(u)


def test_phase_classes_have_an_exact_zero_class_and_do_not_chain():
    tau = 1e-9
    x = np.array([0.7, 0.7 + 0.6 * tau, 0.7 + 1.2 * tau, 2 * np.pi - 0.5 * tau,
                  0.9 * tau, 4.0, 4.0 + 2 * np.pi])
    assert linalg.phase_classes(x, tau).tolist() == \
        [0.7, 0.7, 0.7 + 1.2 * tau, 0.0, 0.0, 4.0, 4.0]
    # eigenphases sort by class, the zero class reading 0.0
    u = np.diag(np.exp(1j * np.array([2.0, -0.5 * tau, 0.3 * tau])))
    phases, v = unitary_eigendecomposition(u, tau)
    assert phases[:2].tolist() == [0.0, 0.0] and abs(phases[2] - 2.0) < 1e-15
    assert np.allclose(np.abs(v), np.eye(3)[:, [1, 2, 0]])


@pytest.mark.parametrize("seed", range(5))
def test_fix_column_phases_sets_the_first_entry_to_its_modulus(seed):
    # random complex columns, an all-zero one, and one whose first entry is
    # under the tol cut, so that its second entry is made real positive
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((4, 60)) + 1j * rng.standard_normal((4, 60))
    v[:, 0] = 0.0
    v[0, 1] *= 1e-13
    got, phases = linalg.fix_column_phases(v), linalg.column_phases(v)
    rows = np.zeros(v.shape[1], dtype=int)
    rows[1] = 1
    for j, i in enumerate(rows):
        assert got[i, j].imag == 0.0 and not np.signbit(got[i, j].imag)
        assert got[i, j].real == np.abs(v)[i, j]
        others = np.arange(4) != i
        assert got[others, j].tobytes() == (v[others, j] * phases[j]).tobytes()


def test_expm_zero():
    assert np.allclose(matrix_exponential(np.zeros((3, 3))), np.eye(3))


def test_expm_diagonal():
    r = matrix_exponential(np.diag([1.0, -1.0]))
    assert np.allclose(r, np.diag([np.e, 1.0 / np.e]), rtol=1e-12)


@pytest.mark.parametrize("seed", range(20))
def test_expm_inverse_product(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    r = matrix_exponential(a) @ matrix_exponential(-a)
    assert frob(r - np.eye(6)) < 1e-10


def test_expm_large_norm_accuracy():
    rng = np.random.default_rng(3)
    h = random_hermitian(rng, 5)
    h *= 50.0 / frob(h)
    w, v = np.linalg.eigh(h)
    exact = (v * np.exp(-1j * w)) @ v.conj().T
    assert frob(matrix_exponential(-1j * h) - exact) < 1e-11 * frob(exact)


def test_span_map_least_norm_solve():
    # three jumps of rank 2: the third is twice the first
    rng = np.random.default_rng(5)
    a = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    a = np.column_stack([a, 2 * a[:, 0]])
    b = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    span = linalg.SpanMap(a, b, 1e-9)
    assert span.svd[3] == 2
    x, resid = span.mixing
    assert frob(x - (np.linalg.pinv(a, rcond=1e-9) @ b).T) < 1e-12
    assert abs(resid - frob(b - a @ x.T) / frob(b)) < 1e-12
    # the targets leave the span, so nothing certifies them
    assert resid > 0.1 and span.certificate() is None


def test_span_map_certificate_is_identity_on_the_kernel():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
    a = np.column_stack([a, a[:, 0] - a[:, 1]])
    kernel = np.array([1.0, -1.0, -1.0]) / np.sqrt(3)
    # targets mixed by a unitary that fixes the jump kernel, as the images
    # of a jump family under a unitary conjugation are
    q, _ = np.linalg.qr(np.column_stack([kernel, rng.standard_normal((3, 2))]))
    u = q @ np.block([[np.eye(1), np.zeros((1, 2))],
                      [np.zeros((2, 1)), random_unitary(rng, 2)]]) @ dag(q)
    span = linalg.SpanMap(a, a @ u.T, 1e-9)
    assert frob(span.certificate() - u) < 1e-12
    assert frob(span.certificate() @ kernel - kernel) < 1e-12
    # the mixing is the certificate on the span
    assert frob(span.mixing[0] @ kernel) < 1e-12
    assert frob(span.mixing[0] - u @ (np.eye(3) - np.outer(kernel, kernel))) < 1e-12


def test_span_map_rejects_a_different_frame():
    a = np.eye(2, dtype=complex)
    span = linalg.SpanMap(a, np.diag([1.0, 2.0]).astype(complex), 1e-9)
    assert span.mixing[1] < 1e-15
    assert span.certificate() is None


def test_span_map_keeps_a_zero_jump_in_the_kernel_exactly():
    # a zero column (the traceless part of a jump proportional to 1) is its
    # own kernel vector, so its zero target is reproduced with no rounding
    rng = np.random.default_rng(8)
    for zero in [0, 1, 2] * 20:
        a = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        a[:, zero] = 0.0
        live = [k for k in range(3) if k != zero]
        u = np.eye(3, dtype=complex)
        u[np.ix_(live, live)] = random_unitary(rng, 2)
        span = linalg.SpanMap(a, a @ u.T, 1e-12)
        assert span.svd[3] == 2
        assert np.all(span.svd[2][:2, zero] == 0)
        cert = span.certificate()
        assert cert is not None and frob(cert - u) < 1e-12


def test_span_map_accepts_by_each_target_s_own_norm():
    # a tiny target reproduced within tau of the largest jump but not of
    # its own norm is refused, at every scale of the whole family
    a = np.diag([1.0, 1e-12]).astype(complex)
    flip = np.diag([1.0, -1.0]).astype(complex)
    for c in (1e-8, 1.0, 1e8):
        span = linalg.SpanMap(c * a, c * a, 1e-9)
        assert span.accept(np.eye(2)) is not None
        assert span.accept(flip) is None
    # so is a matrix that reproduces every target but is not unitary
    a = np.diag([1.0, 0.0]).astype(complex)
    span = linalg.SpanMap(a, a, 1e-9)
    assert span.accept(np.eye(2)) is not None
    assert span.accept(np.diag([1.0, 1.0 + 1e-8])) is None


@pytest.mark.parametrize("tol", [0.0, -1e-9, 1.0, 1.7e308, np.inf, np.nan])
def test_threshold_refuses_a_tol_outside_the_unit_interval(tol):
    with pytest.raises(ValueError, match="tol must lie in"):
        linalg.threshold(tol)


def test_every_small_or_large_float_literal_is_a_named_module_constant():
    # a tolerance that decides reads tau(tol) or a named module constant
    # whose comment gives its reason: a float literal below 1e-3 or above
    # 1e3 in magnitude may stand only in a module-level assignment, save
    # the 1e-300 guards against a division by zero
    found = []
    for path in sorted(Path(linalg.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        named = {id(node) for top in tree.body
                 if isinstance(top, (ast.Assign, ast.AnnAssign)) for node in ast.walk(top)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and type(node.value) is float \
                    and id(node) not in named and node.value != 1e-300 \
                    and (0 < abs(node.value) < 1e-3 or abs(node.value) > 1e3):
                found.append(f"{path.name}:{node.lineno}: {node.value!r}")
    assert not found, found


@pytest.mark.parametrize("cost, tol, expected", [
    (np.zeros((0, 0)), 1.0, ()),
    ([[2.0]], 1.0, None),
    ([[0.0, 0.0], [5.0, 5.0]], 1.0, None),           # row 1 has no allowed entry
    ([[0.0, 0.0], [0.0, 5.0]], 1.0, (1, 0)),         # the bijection avoiding 5
    ([[0.1, 0.0], [0.0, 0.1]], 1.0, (1, 0)),         # least total among allowed
    ([[0.0, np.inf], [np.inf, 0.0]], 1.0, (0, 1)),
    ([[-1.0, -3.0], [-2.0, -1.0]], np.inf, (1, 0)),  # negative costs
])
def test_assign(cost, tol, expected):
    assert linalg.assign(cost, tol) == expected


def _assign_shape(cost, tol):
    """The matrix assign hands its solver, and the entries it allows."""
    allowed = np.isfinite(cost) & (cost <= tol)
    low = np.min(cost, where=allowed, initial=0.0)
    shifted = np.where(allowed, cost - low, 0.0)
    return np.where(allowed, shifted, len(cost) * np.max(shifted) + 1.0), allowed


@st.composite
def assignment_costs(draw):
    """Square cost matrices, n = 1..12, rich in the ties where solvers
    differ: small integers, one constant, assign's shifted matrices with
    the forbidden constant and -|P|^2 of rounded complex normals; tenths,
    whose path costs tie or not by the order of the float additions; and
    Gaussian costs, which have none."""
    n = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(["integers", "constant", "forbidden", "rounded",
                                 "tenths", "gaussian"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "integers":
        return rng.integers(0, 3, (n, n)).astype(float)
    if kind == "constant":
        return np.full((n, n), float(rng.integers(-2, 3)))
    if kind == "forbidden":
        return _assign_shape(rng.integers(0, 4, (n, n)).astype(float), 1.5)[0]
    if kind == "tenths":
        return rng.integers(0, 10, (n, n)) / 10
    if kind == "gaussian":
        return rng.standard_normal((n, n))
    p = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return -np.abs(np.round(p, 1)) ** 2


@settings(max_examples=400)
@given(assignment_costs())
def test_shortest_augmenting_path_is_scipys(cost):
    expected = scipy.optimize.linear_sum_assignment(cost)[1].tolist()
    assert linalg._shortest_augmenting_path(cost.tolist()) == expected


@pytest.mark.parametrize("n", [64, 256])
@pytest.mark.parametrize("shape", ["dense", "permutation"])
def test_shortest_augmenting_path_is_scipys_at_scale(n, shape):
    rng = np.random.default_rng(n)
    if shape == "dense":
        cost = rng.standard_normal((n, n))
    else:
        cost = _assign_shape(np.where(np.eye(n)[rng.permutation(n)] > 0,
                                      rng.random((n, n)), 2.0), 1.0)[0]
    expected = scipy.optimize.linear_sum_assignment(cost)[1].tolist()
    assert linalg._shortest_augmenting_path(cost.tolist()) == expected


@settings(max_examples=200)
@given(st.integers(1, 8), st.integers(0, 2 ** 32 - 1))
def test_assign_agrees_with_scipy_on_allowed_entries(n, seed):
    cost = np.random.default_rng(seed).integers(0, 4, (n, n)).astype(float)
    shaped, allowed = _assign_shape(cost, 1.5)
    rows, cols = scipy.optimize.linear_sum_assignment(shaped)
    expected = tuple(cols.tolist()) if allowed[rows, cols].all() else None
    assert linalg.assign(cost, 1.5) == expected


def test_operator_coordinates_split_families_and_take_sparse_entries():
    rng = np.random.default_rng(8)
    ops = [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for _ in range(3)]
    sparse = scipy.sparse.csr_array(ops[2])
    a, empty, b = linalg.operator_coordinates(ops[:2], [], [ops[2], sparse])
    assert a.shape[1] == 2 and empty.shape == (len(a), 0) and b.shape[1] == 2
    assert frob(b[:, 0] - b[:, 1]) < 1e-14
    gram = dag(np.hstack([a, b])) @ np.hstack([a, b])
    flat = np.array([o.reshape(-1) for o in [*ops, ops[2]]]).T
    assert frob(gram - dag(flat) @ flat) < 1e-12 * frob(gram)
    # no operators, or only zero ones, have coordinates with no rows
    assert [x.shape for x in linalg.operator_coordinates([], [])] == [(0, 0), (0, 0)]
    zero, = linalg.operator_coordinates([np.zeros(4), scipy.sparse.csr_array((2, 2))])
    assert zero.shape == (0, 2)
    with pytest.raises(linalg.ShapeError):
        linalg.operator_coordinates([np.zeros((2, 2))], [np.zeros((3, 3))])


@pytest.fixture(scope="module")
def chain_and_remix():
    """The seeded L=5 qutrit chain (d = 243, ten rank-one jumps with one
    destination, so one SJED) and a unitary remix q of its jumps."""
    rep = models.qutrit_chain(5, thetas=np.random.default_rng(7).uniform(
        0.0, 2 * np.pi, 5)).rep
    q = random_unitary(np.random.default_rng(3), rep.njumps)
    mixed = tuple(np.tensordot(q, np.array(rep.jumps), axes=1))
    return rep, Representation(rep.hamiltonian, mixed), q


def test_operator_coordinate_paths_form_no_dense_rows(chain_and_remix):
    # the d^2-long rows of both families would take 20 x 0.9 MiB; the
    # Hamiltonians' difference (one 0.9 MiB array) is the largest array left
    from weaksym.lindblad import relate_representations, representations_equal
    from weaksym.sjed import build_sjeds, same_unravelled_generator

    rep, remix, q = chain_and_remix
    parts = build_sjeds(rep), build_sjeds(remix)
    calls = {
        "representations_equal": lambda: representations_equal(rep, remix),
        "relate_representations": lambda: relate_representations(rep, remix),
        "same_unravelled_generator": lambda: same_unravelled_generator(
            rep, remix, partition_a=parts[0], partition_b=parts[1]),
        "mixing": lambda: linalg.SpanMap(
            *linalg.operator_coordinates(rep.jumps, remix.jumps)).mixing,
    }
    results = {}
    for name, call in calls.items():
        tracemalloc.start()
        try:
            results[name] = call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20, name
    assert results["representations_equal"]
    v, unique = results["relate_representations"]
    assert unique and frob(v - q) < 1e-12 * rep.njumps
    assert results["same_unravelled_generator"] == (True, (0,), 0.0)
    x, resid = results["mixing"]
    assert frob(x - q) < 1e-12 * rep.njumps and resid < 1e-14
