import numpy as np
import pytest
from hypothesis import settings

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
