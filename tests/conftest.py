import numpy as np
import pytest
from hypothesis import settings

from weaksym import linalg
from weaksym.linalg import DEFAULT_TOL, dag
from weaksym.trajectories import sample_ensembles

# property tests draw the same examples on every run and take no deadline,
# so a loaded machine changes neither the outcome nor the examples
settings.register_profile("deterministic", derandomize=True, deadline=None,
                          max_examples=30, database=None)
settings.load_profile("deterministic")

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
SP = np.array([[0, 1], [0, 0]], dtype=complex)   # |1><0| in (|1>,|0>) basis order
SM = np.array([[0, 0], [1, 0]], dtype=complex)


def random_pure_state(rng, dim):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


def random_hermitian(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (a + a.conj().T) / 2


def random_unitary(rng, n: int) -> np.ndarray:
    """Haar-random n x n unitary from QR of a complex Gaussian matrix."""
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def remix_within_sets(partition, rng) -> tuple:
    """Jumps with each SJED's members mixed by a random unitary.

    The composite actions are untouched, so the unravelled dynamics is
    preserved; useful for gauge-invariance tests.
    """
    jumps = list(partition.jumps)
    for s in partition.sets:
        if s.size > 1:
            old = [jumps[j] for j in s.indices]
            for row, j in zip(random_unitary(rng, s.size), s.indices):
                jumps[j] = sum(c * o for c, o in zip(row, old))
    return tuple(jumps)


def composite_action(partition, alpha: int, psi) -> np.ndarray:
    """sum_{j in S_alpha} J_j psi J_j†."""
    if not 0 <= alpha < partition.nsets:
        raise IndexError(f"SJED index {alpha} out of range")
    psi = np.asarray(psi, dtype=complex)
    return sum(partition.jumps[j] @ psi @ dag(partition.jumps[j])
               for j in partition.sets[alpha].indices)


def environment_symmetry(u_matrix, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Bin unitary mixing emitted quanta per a d x d unitary matrix.

    Fixes the vacuum and maps |j> -> sum_k conj(U[j, k]) |k>, so that
    conjugation sends dB_j to sum_k U[j, k] dB_k on the vacuum sector:
    the Gamma(u) that dilation.joint_symmetry_residual applies without
    forming it.
    """
    u = linalg.square(u_matrix)
    linalg.check_unitary(dag(u) @ u, tol)
    d = len(u)
    out = np.zeros((d + 1, d + 1), dtype=complex)
    out[0, 0] = 1.0
    out[1:, 1:] = u.conj().T
    return out


def superoperator_matrix(op, dim):
    """Row-stacking matrix of the superoperator rho -> op(rho) on dim x dim
    matrices, a column per matrix unit: the oracle for lindblad's."""
    units = np.eye(dim * dim, dtype=complex).reshape(-1, dim, dim)
    return np.array([np.asarray(op(e), dtype=complex).reshape(-1) for e in units]).T


def evaluate_monomial(sym, indices, psi) -> complex:
    """The monomial of 1-based (row, col) index pairs on psi: the product
    of those matrix elements of psi in the symmetry's adapted basis."""
    psi_adapted = sym.eigenbasis.conj().T @ np.asarray(psi, dtype=complex) @ sym.eigenbasis
    rows, cols = np.array(indices, dtype=int).reshape(-1, 2).T - 1
    return complex(np.prod(psi_adapted[rows, cols]))


def sample_one(rep, psi0, horizon, n, seed=0, checkpoint_times=(), first_index=0):
    """The ensemble of n trajectories from the one start (psi0, seed)."""
    return sample_ensembles(rep, [(psi0, seed)], horizon, n, checkpoint_times,
                            first_index)[0]


def event_lists(ensemble):
    """Each trajectory's events [(t, label), ...], rebuilt from the
    ensemble's times, labels and offsets columns."""
    times, labels = ensemble.times.tolist(), ensemble.labels.tolist()
    bounds = ensemble.offsets.tolist()
    return [list(zip(times[a:b], labels[a:b])) for a, b in zip(bounds, bounds[1:])]


def symmetry_ensembles(rep, sym, psi0, horizon, n, seed):
    """The pair ensemble_symmetry_test compares, from one sampler pass as
    `simulate` samples it: A from psi0 at seed and B from U psi0 U† at
    seed + 1, each with the horizon as a checkpoint."""
    return tuple(sample_ensembles(rep, [(psi0, seed), (sym.conjugate(psi0), seed + 1)],
                                  horizon, n, (horizon,)))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
