import numpy as np
import pytest

from weaksym import linalg, models
from weaksym.linalg import (
    dag,
    frob,
    hermitian_eigendecomposition,
    matrix_exponential,
    unitary_eigendecomposition,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def random_hermitian(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (a + a.conj().T) / 2


def random_unitary(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


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
        return models.qutrit_chain(3).symmetries["translation"]
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
    with pytest.raises(linalg.NotUnitaryError):
        unitary_eigendecomposition(2.0 * np.eye(2))


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
    span = linalg.SpanMap(a, b)
    assert span.rank(1e-9) == 2
    x, resid = span.solve(1e-9)
    assert frob(x - (np.linalg.pinv(a, rcond=1e-9) @ b).T) < 1e-12
    assert abs(resid - frob(b - a @ x.T) / frob(b)) < 1e-12
    assert span.escape(1e-9) > 0.1


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
    span = linalg.SpanMap(a, a @ u.T)
    assert span.escape(1e-9) < 1e-12
    assert frob(span.certificate(1e-9) - u) < 1e-12
    assert frob(span.certificate(1e-9) @ kernel - kernel) < 1e-12


def test_span_map_rejects_a_different_frame():
    a = np.eye(2, dtype=complex)
    span = linalg.SpanMap(a, np.diag([1.0, 2.0]).astype(complex))
    assert span.isometry(1e-9) is None and span.certificate(1e-9) is None
    assert span.escape(1e-9) < 1e-15


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
