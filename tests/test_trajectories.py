import json
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg
import scipy.stats
from hypothesis import given, strategies as st

from weaksym import models
from weaksym.lindblad import (
    Representation,
    evolve_density,
    pure_state,
)
from weaksym.linalg import (
    DEFAULT_TOL,
    NotHermitianError,
    dag,
    frob,
    matrix_exponential,
    threshold,
)
from weaksym.sjed import build_sjeds
from weaksym.symmetry import SymmetryOperator, check_condition_II, check_condition_III
import weaksym.trajectories as traj
from weaksym.trajectories import (
    TIME_TOL_FACTOR,
    MissingPermutation,
    SizeMismatch,
    StiffnessError,
    TrajectoryEnsemble,
    coarse_record_weight,
    ensemble_average,
    ensemble_symmetry_test,
    export_records,
    record_weight,
    sample_ensembles,
    state_vector,
    two_sample_chi2,
)
from weaksym.trajectories import (
    _crossing_times,
    _grid,
    _jump,
    _MomentPropagator,
    _philox_uniforms,
    _histogram,
    _state_keys,
    _Streams,
)

from conftest import (
    SM,
    SX,
    SZ,
    event_lists,
    random_pure_state,
    sample_one,
    symmetry_ensembles,
)

PLUS = pure_state([1, 1])


def coarse_labels(labels, partition):
    """Full jump labels mapped to SJED labels."""
    return [int(partition.coarse_labels()[j]) for j in labels]


def dephasing(gamma=1.0):
    return Representation(np.zeros((2, 2)), (np.sqrt(gamma) * SZ,))


# ---------------------------------------------------------------- local pieces

def drift(rep, psi):
    """Deterministic flow of the conditional state between jumps:
    B(psi) = -i H_eff psi + i psi H_eff† - psi Tr(...), traceless by
    construction."""
    psi = np.asarray(psi, dtype=complex)
    heff = rep.effective_hamiltonian
    raw = -1j * (heff @ psi) + 1j * (psi @ dag(heff))
    return raw - psi * np.trace(raw)


def jump_rates(rep, psi, tol=1e-12):
    """Per-jump rates Tr[J psi J†] with normalized destinations, omitted
    for rates below tol."""
    psi = np.asarray(psi, dtype=complex)
    out = []
    for j in rep.jumps:
        jpj = j @ psi @ dag(j)
        rate = float(np.trace(jpj).real)
        out.append((rate, jpj / rate if rate > tol else None))
    return out


def test_drift_closed_system(rng):
    rep = Representation(0.8 * SZ, ())
    psi = random_pure_state(rng, 2)
    expected = -1j * (rep.hamiltonian @ psi - psi @ rep.hamiltonian)
    assert frob(drift(rep, psi) - expected) < 1e-13


def test_drift_dark_state():
    rep = Representation(np.diag([1.0, -1.0]).astype(complex),
                         (np.array([[0, 0], [1, 0]], dtype=complex),))
    dark = pure_state([0, 1])
    assert frob(drift(rep, dark)) < 1e-13


def test_drift_traceless(rng):
    rep = models.qubit_ii().rep
    for _ in range(100):
        psi = random_pure_state(rng, 2)
        assert abs(np.trace(drift(rep, psi))) < 1e-12


def test_jump_rates():
    gamma = 1.7
    rep = Representation(np.zeros((2, 2)), (np.sqrt(gamma) * SX,))
    rates = jump_rates(rep, pure_state([1, 0]))
    assert abs(rates[0][0] - gamma) < 1e-12
    assert frob(rates[0][1] - pure_state([0, 1])) < 1e-12


def test_jump_rates_dark():
    rep = Representation(np.zeros((2, 2)), (np.array([[0, 0], [1, 0]],
                                                     dtype=complex),))
    rates = jump_rates(rep, pure_state([0, 1]))
    assert rates[0][0] < 1e-12 and rates[0][1] is None


def test_jump_rates_sum(rng):
    rep = models.qubit_ii().rep
    psi = random_pure_state(rng, 2)
    total = sum(r for r, _ in jump_rates(rep, psi))
    direct = sum(np.trace(j @ psi @ dag(j)).real for j in rep.jumps)
    assert abs(total - direct) < 1e-12


# ---------------------------------------------------------------- record weights

def test_record_weight_empty_unitary():
    rep = Representation(0.6 * SZ, ())
    _, density = record_weight(rep, PLUS, [], [], 2.0)
    assert abs(density - 1.0) < 1e-12


def test_record_weight_empty_dephasing():
    gamma, horizon = 0.9, 1.3
    _, density = record_weight(dephasing(gamma), PLUS, [], [], horizon)
    assert abs(density - np.exp(-gamma * horizon)) < 1e-12


def test_record_weight_density_normalization():
    # survival plus integrated first-jump densities reproduce unit trace:
    # Tr G_T(psi) + sum_j int_0^T Tr[J_j G_t(psi) J_j†] dt = 1
    rep = models.qubit_ii().rep
    horizon = 0.8
    psi0 = PLUS
    _, p0 = record_weight(rep, psi0, [], [], horizon)
    nodes, weights = np.polynomial.legendre.leggauss(64)
    ts = 0.5 * horizon * (nodes + 1.0)
    ws = 0.5 * horizon * weights
    total = p0
    heff = rep.effective_hamiltonian
    for t, w in zip(ts, ws):
        g = matrix_exponential(-1j * t * heff)
        phi = g @ psi0 @ dag(g)
        for j in rep.jumps:
            total += w * np.trace(j @ phi @ dag(j)).real
    # the first jump happens before T with probability 1 - p0
    assert abs(total - 1.0) < 1e-10


def test_coarse_weight_matches_full_for_singletons(rng):
    rep = models.qubit_weak().rep
    p = build_sjeds(rep)
    times, labels = [0.3, 0.7], [0, 1]
    full, dflt = record_weight(rep, PLUS, times, labels, 1.0)
    coarse, dc = coarse_record_weight(rep, p, PLUS, times, coarse_labels(labels, p), 1.0)
    assert frob(full - coarse) < 1e-12
    assert abs(dflt - dc) < 1e-12


def test_coarse_weight_sums_refinements():
    m = models.qubit_ii()
    p = build_sjeds(m.rep)
    horizon = 1.0
    _, coarse_density = coarse_record_weight(m.rep, p, PLUS, [0.4], [0], horizon)
    full_total = sum(record_weight(m.rep, PLUS, [0.4], [j], horizon)[1]
                     for j in p.sets[0].indices)
    assert abs(coarse_density - full_total) < 1e-12
    # two-event coarse record
    _, cd2 = coarse_record_weight(m.rep, p, PLUS, [0.2, 0.6], [0, 1], horizon)
    ft2 = sum(record_weight(m.rep, PLUS, [0.2, 0.6], [j, k], horizon)[1]
              for j in p.sets[0].indices for k in p.sets[1].indices)
    assert abs(cd2 - ft2) < 1e-12


def test_coarse_conditional_state_pure():
    m = models.twoqubit_ii()
    p = build_sjeds(m.rep)
    psi0 = pure_state(np.array([0.0, 1.0, 0.0, 0.0]))
    phi, density = coarse_record_weight(m.rep, p, psi0, [0.5], [0], 1.0)
    w = np.linalg.eigvalsh(phi / density)
    assert w[-1] > 1 - 1e-10


@pytest.mark.parametrize("times", [[0.7, 0.3], [-0.1], [1.0], [0.2, 1.5], [np.nan]])
def test_record_weights_refuse_times_out_of_order_or_range(times):
    m = models.qubit_ii()
    p = build_sjeds(m.rep)
    labels = [0] * len(times)
    with pytest.raises(ValueError, match="ordered"):
        record_weight(m.rep, PLUS, times, labels, 1.0)
    with pytest.raises(ValueError, match="ordered"):
        coarse_record_weight(m.rep, p, PLUS, times, labels, 1.0)
    # equal times and a first jump at 0 are a record
    assert record_weight(m.rep, PLUS, [0.0, 0.5, 0.5], [0, 1, 0], 1.0)[1] > 0


def test_record_weights_refuse_unpaired_columns_and_unknown_labels():
    m = models.qubit_ii()
    p = build_sjeds(m.rep)
    with pytest.raises(ValueError, match="labels"):
        record_weight(m.rep, PLUS, [0.2, 0.4], [0], 1.0)
    # -1 would index the last jump
    for label in (-1, m.rep.njumps):
        with pytest.raises(ValueError, match="labels must lie"):
            record_weight(m.rep, PLUS, [0.2], [label], 1.0)
    for label in (-1, p.nsets):
        with pytest.raises(ValueError, match="labels must lie"):
            coarse_record_weight(m.rep, p, PLUS, [0.2], [label], 1.0)


# ---------------------------------------------------------------- sampling

def test_no_jump_trajectory_is_unitary():
    rep = Representation(0.9 * SZ, ())
    ens = traj.sample_ensembles(rep, [(PLUS, 3)], 1.0, 1, (1.0,))[0]
    assert event_lists(ens) == [[]]
    u = matrix_exponential(-1j * 1.0 * rep.hamiltonian)
    expected = u @ PLUS @ dag(u)
    v = ens.states[1.0][0]
    assert frob(np.outer(v, v.conj()) - expected) < 1e-10


def test_sampler_reproducible():
    rep = models.qubit_weak().rep
    a = sample_one(rep, PLUS, 1.0, 50, seed=5, checkpoint_times=(1.0,))
    b = sample_one(rep, PLUS, 1.0, 50, seed=5, checkpoint_times=(1.0,))
    assert event_lists(a) == event_lists(b)
    assert np.array_equal(a.states[1.0], b.states[1.0])


def test_single_trajectory_matches_ensemble_slot():
    rep = models.qubit_weak().rep
    ens = sample_one(rep, PLUS, 1.0, 4, seed=9, checkpoint_times=(1.0,))
    for i in range(4):
        one = traj.sample_ensembles(rep, [(PLUS, 9)], 1.0, 1, (1.0,), first_index=i)[0]
        assert event_lists(one) == [event_lists(ens)[i]]


def _decaying_heff(rng, d):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    b = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (a + dag(a)) / 2 - 0.5j * (b @ dag(b))     # decaying, non-Hermitian


@pytest.mark.parametrize("d", [2, 3, 27])
def test_moment_table_matches_expm(d):
    rng = np.random.default_rng(40 + d)
    heff = _decaying_heff(rng, d)
    smax = 0.45 / frob(heff)                           # the sampler's step bound
    phis = rng.standard_normal((6, d)) + 1j * rng.standard_normal((6, d))
    ss = np.concatenate([[0.0, smax], rng.uniform(0.0, smax, 4)])
    moments = _MomentPropagator(heff)
    got = moments.evaluate(moments.table(phis), ss)
    for phi, s, g in zip(phis, ss, got):
        want = scipy.linalg.expm(-1j * s * heff) @ phi
        assert np.linalg.norm(g - want) <= 1e-13 * np.linalg.norm(want)


def _decaying_diagonal_heff(rng, d):
    return np.diag(rng.standard_normal(d) - 0.5j * rng.exponential(1.0, d))


@pytest.mark.parametrize("d", [1, 2, 5, 27])
def test_diagonal_propagator_matches_expm(d):
    # an exactly diagonal H_eff is applied as a vector, in closed form:
    # checked against scipy's expm, independently of the sampler
    rng = np.random.default_rng(70 + d)
    heff = _decaying_diagonal_heff(rng, d)
    moments = _MomentPropagator(heff)
    assert moments.diagonal is not None
    dt = 0.45 / frob(heff)
    phis = rng.standard_normal((6, d)) + 1j * rng.standard_normal((6, d))
    ss = np.concatenate([[0.0, dt], rng.uniform(0.0, 3.0 * dt, 4)])
    step = moments.step(phis, dt)
    table = moments.table(phis)
    got, (value, slope) = moments.evaluate(table, ss), moments.norms(table, ss)
    for k, (phi, s) in enumerate(zip(phis, ss)):
        want = scipy.linalg.expm(-1j * dt * heff) @ phi
        assert np.linalg.norm(step[k] - want) <= 1e-14 * np.linalg.norm(want)
        want = scipy.linalg.expm(-1j * s * heff) @ phi
        assert np.linalg.norm(got[k] - want) <= 1e-14 * np.linalg.norm(want)
        norm2 = np.linalg.norm(want) ** 2
        assert abs(value[k] - norm2) <= 1e-14 * norm2
        # d||phi(s)||^2/ds = 2 Re <phi(s), -i H_eff phi(s)>
        want_slope = 2.0 * np.vdot(want, -1j * heff @ want).real
        assert abs(slope[k] - want_slope) <= 1e-14 * abs(want_slope)
    # the top jump rate: the largest eigenvalue of i (H_eff - H_eff†)
    top = np.linalg.eigvalsh(1j * (heff - dag(heff)))[-1]
    assert abs(moments.top_rate() - top) <= 1e-14 * top


def test_diagonal_path_takes_exact_zeros_only():
    heff = _decaying_diagonal_heff(np.random.default_rng(3), 4)
    heff[1, 0] = -0.0
    assert _MomentPropagator(heff).diagonal is not None
    heff[2, 3] = -1.2e-17j      # the rounding qubit-II's sum of J†J leaves
    assert _MomentPropagator(heff).diagonal is None
    assert _MomentPropagator(models.qubit_ii().rep.effective_hamiltonian).diagonal is None


PINNED = json.loads((Path(__file__).parent / "data" / "sampler_records.json").read_text())


def _pinned_case(name):
    if name == "qubit-I":
        return models.qubit_i().rep, pure_state([1, 1]), 2.0
    chain = models.qutrit_chain(
        3, thetas=np.random.default_rng(7).uniform(0.0, 2 * np.pi, 3))
    return chain.rep, pure_state(np.ones(27)), 1.0


def _waiting_times(records):
    """Each event's time less the time of its trajectory's previous event
    (or 0), all trajectories in one array."""
    return np.concatenate([np.diff([t for t, _ in rec], prepend=0.0)
                           for rec in records] + [np.empty(0)])


def _assert_same_records_within_time_tol(got, want, horizon):
    # the same labels, trajectory by trajectory, and each waiting time
    # within time_tol: a crossing's cells cut from a longer grid step move
    # it within its cell, and that move carries into its later event times
    assert [[label for _, label in rec] for rec in got] == \
        [[label for _, label in rec] for rec in want]
    assert np.all(np.abs(_waiting_times(got) - _waiting_times(want))
                  <= TIME_TOL_FACTOR * horizon)


@pytest.mark.parametrize("name", ["qubit-I", "qutrit-chain-3"])
def test_sampler_records_pinned(name):
    # recorded by the sampler that re-expanded the Taylor series at every
    # bisection step on a grid of steps min(0.05 T, 0.45 / ||H_eff||): the
    # checkpoint-to-checkpoint steps of a diagonal H_eff keep every label
    # and every waiting time to the bisection tolerance
    rep, psi0, horizon = _pinned_case(name)
    ens = sample_one(rep, psi0, horizon, 200, seed=3)
    _assert_same_records_within_time_tol(event_lists(ens), PINNED[name], horizon)


def _exact_norm(heff, phi, s):
    return np.linalg.norm(scipy.linalg.expm(-1j * s * heff) @ phi) ** 2


def _crossing_batch(seed, d, m):
    """A decaying H_eff, its step bound dt and m rows (start state, offset,
    threshold between the end norm and the start norm, end norm)."""
    rng = np.random.default_rng(seed)
    heff = _decaying_heff(rng, d)
    dt = 0.45 / frob(heff)
    phis = rng.standard_normal((m, d)) + 1j * rng.standard_normal((m, d))
    phis /= np.linalg.norm(phis, axis=1)[:, None]
    offsets = rng.uniform(0.0, 0.5 * dt, m) * (rng.random(m) < 0.5)
    ends = np.array([_exact_norm(heff, phi, dt - o) for phi, o in zip(phis, offsets)])
    thresholds = ends + rng.uniform(0.01, 0.99, m) * (1.0 - ends)
    return heff, dt, phis, offsets, thresholds, ends


@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([2, 3, 5]))
def test_crossing_time_matches_bisection(seed, d):
    heff, dt, phis, offsets, thresholds, ends = _crossing_batch(seed, d, 4)
    time_tol = 1e-9
    moments = _MomentPropagator(heff)
    times, _ = _crossing_times(moments, moments.table(phis), thresholds, offsets,
                               ends, dt, time_tol)
    for phi, off, thr, t in zip(phis, offsets, thresholds, times):
        lo, hi = off, dt
        for _ in range(60):
            mid = (lo + hi) / 2.0
            if _exact_norm(heff, phi, mid - off) >= thr:
                lo = mid
            else:
                hi = mid
        assert abs(t - (lo + hi) / 2.0) <= time_tol


@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([2, 3, 5]))
def test_crossing_time_independent_of_batch(seed, d):
    heff, dt, phis, offsets, thresholds, ends = _crossing_batch(seed, d, 7)
    # rows 4-6 come from a shorter grid step, as after an off-grid checkpoint
    dts = np.where(np.arange(7) < 4, dt, 0.6 * dt)
    offsets[4:] *= 0.6
    ends[4:] = [_exact_norm(heff, phi, 0.6 * dt - o)
                for phi, o in zip(phis[4:], offsets[4:])]
    thresholds[4:] = ends[4:] + 0.5 * (1.0 - ends[4:])
    moments = _MomentPropagator(heff)
    batch, _ = _crossing_times(moments, moments.table(phis), thresholds, offsets,
                               ends, dts, 1e-9)
    for i in range(7):
        one = slice(i, i + 1)
        alone, _ = _crossing_times(moments, moments.table(phis[one]), thresholds[one],
                                   offsets[one], ends[one], dts[i], 1e-9)
        assert alone[0] == batch[i]
        assert offsets[i] <= batch[i] <= dts[i]


def test_crossing_cells_match_the_scalar_formula(rng):
    # a row's 2^nbits cells, nbits = ceil(log2(max(2, dt / time_tol))), on
    # step lengths at, one ulp either side of and between exact power-of-two
    # multiples of time_tol, and below 2 time_tol: each time is the middle
    # of a cell of width (dt - offset) / 2^nbits
    time_tol = 2.0 ** -30
    dts = [time_tol / 2, time_tol]
    for k in (1, 2, 5, 17, 29):
        x = 2.0 ** k * time_tol
        dts += [x, np.nextafter(x, 0.0), np.nextafter(x, np.inf), 1.5 * x]
    dts = np.array(dts)
    moments = _MomentPropagator(np.diag([-0.5j, -0.25j]))
    phis = rng.standard_normal((len(dts), 2)) + 1j * rng.standard_normal((len(dts), 2))
    offsets = dts * rng.uniform(0.0, 0.5, len(dts)) * (rng.random(len(dts)) < 0.5)
    table = moments.table(phis / np.linalg.norm(phis, axis=1)[:, None])
    ends = moments.norms(table, dts - offsets)[0]
    times, _ = _crossing_times(moments, table, ends + 0.5 * (1.0 - ends), offsets,
                               ends, dts, time_tol)
    cells = np.array([2.0 ** int(np.ceil(np.log2(max(2.0, x / time_tol))))
                      for x in dts.tolist()])
    width = (dts - offsets) / cells
    found = np.rint((times - offsets) / width - 0.5)
    assert np.array_equal(offsets + (found + 0.5) * width, times)


@given(st.floats(0.01, 0.39), st.floats(0.01, 0.2))
def test_crossing_with_vanishing_slope_ends_within_twice_the_bisection_trials(r, gamma):
    # a Rabi drive carries the state through |1> at s = r, where the norm
    # slope -gamma |phi_0|^2 vanishes; the threshold is the norm there
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    heff = sx - 0.5j * gamma * np.diag([1.0, 0.0])
    dt, time_tol = 0.4, 1e-9
    phi = scipy.linalg.expm(1j * r * heff) @ np.array([0.0, 1.0], dtype=complex)
    phi /= np.linalg.norm(phi)
    thr = _exact_norm(heff, phi, r)
    moments = _MomentPropagator(heff)
    table = moments.table(phi[None])
    assert abs(moments.norms(table, np.array([r]))[1][0]) < 1e-14
    times, trials = _crossing_times(moments, table, np.array([thr]), np.zeros(1),
                                    np.array([_exact_norm(heff, phi, dt)]), dt, time_tol)
    nbits = int(np.ceil(np.log2(dt / time_tol)))
    assert trials <= 2 * nbits
    # so flat a crossing is defined only to the rounding of the norm
    assert abs(_exact_norm(heff, phi, times[0]) - thr) <= 1e-13


class _AtanNorm:
    """Stands in for _MomentPropagator: ||phi(s)||^2 = c - atan(k (s - r)),
    on which Newton iterates settle into a 2-cycle at |k (s - r)| = 1.3917."""

    def __init__(self, c, k, r):
        self.c, self.k, self.r = c, k, r

    def norms(self, table, ss):
        z = self.k * (ss - self.r)
        return self.c - np.arctan(z), -self.k / (1.0 + z * z)


@given(st.floats(1.3, 1.3917))
def test_newton_cycle_broken_by_bisection(a):
    k, r, dt, thr, time_tol = 10.0, 0.5, 1.0, 2.0, 1e-9
    end = thr - np.arctan(k * (dt - r))
    # a start norm n0 that puts the log-norm secant start,
    # ln(n0 / thr) / ln(n0 / end) of the step, at r + a / k
    frac = (r + a / k) / dt
    n0 = np.exp((np.log(thr) - frac * np.log(end)) / (1.0 - frac))
    times, trials = _crossing_times(
        _AtanNorm(thr, k, r), np.full((1, 1, 1), np.sqrt(n0), dtype=complex),
        np.array([thr]), np.zeros(1), np.array([end]), dt, time_tol)
    assert abs(times[0] - r) <= time_tol
    # without the step-halving rule the cycle decays slowly: up to 15 trials
    assert trials <= 6


def test_norm_slope_is_minus_total_jump_rate(rng):
    # d||phi||^2/ds = -sum_j ||J_j phi||^2 (Dalibard, Castin & Molmer)
    rep = models.qutrit_chain(2).rep
    heff = rep.effective_hamiltonian
    moments = _MomentPropagator(heff)
    phis = rng.standard_normal((5, rep.dim)) + 1j * rng.standard_normal((5, rep.dim))
    ss = rng.uniform(0.0, 0.45 / frob(heff), 5)
    value, slope = moments.norms(moments.table(phis), ss)
    for phi, s, v, ds in zip(phis, ss, value, slope):
        phi_s = scipy.linalg.expm(-1j * s * heff) @ phi
        assert np.isclose(v, np.linalg.norm(phi_s) ** 2, rtol=1e-12)
        want = -sum(np.linalg.norm(j @ phi_s) ** 2 for j in rep.jumps)
        assert np.isclose(ds, want, rtol=1e-10)


def test_sampler_stats_count_few_trials_per_batch():
    ens = sample_one(models.qubit_iii().rep, PLUS, 1.0, 2000, seed=1)
    stats = ens.stats
    assert stats["jumps"] == sum(len(rec) for rec in event_lists(ens))
    assert stats["crossing_batches"] > 0
    # bisection to the time tolerance took 26 trials per batch
    assert stats["trials"] <= 6 * stats["crossing_batches"]
    # on the Taylor grid a batch resolves the rows parked over many steps
    stats = sample_one(models.qubit_ii().rep, PLUS, 1.0, 2000, seed=1).stats
    assert stats["grid_steps"] == 20
    assert 0 < stats["crossing_batches"] <= stats["grid_steps"]


@pytest.mark.parametrize("horizon", [1.0, 2.0, 20.0])
@pytest.mark.parametrize("name, diagonal", [
    ("qubit-III", True), ("qubit-I", True), ("qutrit-chain-3", True),
    ("qubit-II", False), ("twoqubit-I", False)])
def test_grid_steps_are_checkpoint_segments_on_a_diagonal_heff(name, diagonal, horizon):
    # a diagonal H_eff steps from checkpoint to checkpoint, [0, 0.37] and
    # [0.37, T]; any other takes the Taylor table's grid of steps
    # min(0.05 T, 0.45 / ||H_eff||), the checkpoints among its points
    rep, psi0 = _model_case(name)
    times = (0.37, horizon)
    stats = sample_one(rep, psi0, horizon, 40, seed=2, checkpoint_times=times).stats
    if diagonal:
        assert stats["grid_steps"] == 2
    else:
        step = min(0.05 * horizon, 0.45 / frob(rep.effective_hamiltonian))
        assert stats["grid_steps"] == len(_grid(horizon, step, times)) - 1 > 20


def test_stiff_diagonal_heff_samples_in_one_grid_step():
    # ||H_eff|| = 1.4e4 asks 31,427 Taylor steps to T = 1, under the cap;
    # the closed-form path takes one, and its label means keep the law
    rep = Representation(np.diag([1e4, -1e4]).astype(complex), (SM,))
    psi0 = np.ones(2, dtype=complex) / np.sqrt(2.0)
    ens = sample_ensembles(rep, [(psi0, 3)], 1.0, 20000)[0]
    assert ens.stats["grid_steps"] == 1 and ens.stats["jumps"] > 0
    exact, _ = _exact_label_moments(rep, psi0, 1.0)
    counts = ens.count_vectors(rep.njumps)
    se = np.sqrt(counts.var(axis=0, ddof=1) / len(counts))
    assert np.all(np.abs(counts.mean(axis=0) - exact) <= 4.0 * se)


@pytest.mark.parametrize("horizon", [1.0, 2.0, 20.0])
@pytest.mark.parametrize("name", ["qubit-weak", "qubit-III", "qubit-II", "qubit-I",
                                  "qubit-nonunique"])
def test_constant_rate_crossings_take_one_trial(name, horizon):
    rep = models.get_model(name).rep
    # sum_j J_j† J_j = 2 * 1, so every norm decays as n0 e^{-2 s} and the
    # log-norm secant start of each crossing is its root
    assert np.allclose(sum(dag(j) @ j for j in rep.jumps), 2.0 * np.eye(2), atol=1e-12)
    stats = sample_one(rep, PLUS, horizon, 200, seed=4).stats
    assert stats["crossing_batches"] > 0
    assert stats["trials"] == stats["crossing_batches"]


def _stepwise_ensemble(rep, psi0, horizon, n, seed=0, checkpoint_times=(),
                       first_index=0):
    """The sampler's reference form: one grid step at a time for every
    row, the rows crossing within the step resolved as one batch, then the
    rows crossing again within it as the next.  Returns (records, states,
    re-crossings)."""
    heff = rep.effective_hamiltonian
    moments = _MomentPropagator(heff)
    # the sampler's one step rule: the horizon for a diagonal H_eff
    step = (min(0.05 * max(horizon, 1e-12), 0.45 / max(frob(heff), 1e-12))
            if moments.diagonal is None else horizon)
    grid = _grid(horizon, step, checkpoint_times)
    phis = np.tile(state_vector(psi0), (n, 1))
    jump_mats = np.stack(rep.jumps)
    gamma = float(np.linalg.eigh(sum(dag(j) @ j for j in rep.jumps))[0][-1])
    jumps = gamma * horizon + 4.0 * np.sqrt(gamma * horizon) + 4.0
    streams = _Streams(np.full(n, seed & _MASK, dtype=np.uint64),
                       np.uint64(first_index) + np.arange(n, dtype=np.uint64),
                       int(min(np.ceil((1.0 + 2.0 * jumps) / 4.0), traj._FILL_CAP // n)))
    thresholds = streams.take(np.arange(n), 1)[:, 0]
    records = [[] for _ in range(n)]
    states = {}
    want = {round(float(t), 12) for t in checkpoint_times}
    time_tol = TIME_TOL_FACTOR * horizon
    again_total = 0
    if 0.0 in want:
        states[0.0] = phis.copy()
    for k in range(len(grid) - 1):
        t0, t1 = grid[k], grid[k + 1]
        dt = t1 - t0
        start = phis.copy()
        phis = phis @ matrix_exponential(-1j * dt * heff).T
        norms = np.einsum("ij,ij->i", phis.conj(), phis).real
        idxs = np.where(norms < thresholds)[0]
        offsets, seg_start, end_norms = np.zeros(idxs.size), start[idxs], norms[idxs]
        while idxs.size:
            table = moments.table(seg_start)
            tstar, _ = _crossing_times(moments, table, thresholds[idxs], offsets,
                                       end_norms, dt, time_tol)
            phi_star = moments.evaluate(table, tstar - offsets)
            draws = streams.take(idxs, 2)
            labels, new_states = _jump(
                np.einsum("jab,ib->ija", jump_mats, phi_star), draws[:, 0])
            for i, t, label in zip(idxs, (t0 + tstar).tolist(), labels.tolist()):
                records[i].append((t, label))
            thresholds[idxs] = draws[:, 1]
            rest = moments.apply(new_states, dt - tstar)
            nr = np.einsum("ij,ij->i", rest.conj(), rest).real
            phis[idxs] = rest
            again = nr < thresholds[idxs]
            again_total += int(again.sum())
            idxs, seg_start, offsets, end_norms = \
                idxs[again], new_states[again], tstar[again], nr[again]
        if round(float(t1), 12) in want:
            nrm = np.sqrt(np.einsum("ij,ij->i", phis.conj(), phis).real)
            states[float(t1)] = phis / nrm[:, None]
    return records, states, again_total


def _assert_matches_stepwise(ens, want_records, want_states):
    # the same crossings, labels and draws: records equal bit for bit;
    # states differ only where the reference multiplied a lone row by gemv
    assert event_lists(ens) == want_records
    assert list(ens.states) == list(want_states)
    for t, v in want_states.items():
        assert np.max(np.abs(ens.states[t] - v)) <= 1e-15


BUILTIN_NAMES = ["qubit-weak", "qubit-III", "qubit-II", "qubit-I", "qubit-nonunique",
                 "twoqubit-weak", "twoqubit-III", "twoqubit-II", "twoqubit-I"]


def _model_case(name):
    if name == "qutrit-chain-3":
        m = models.qutrit_chain(
            3, thetas=np.random.default_rng(7).uniform(0.0, 2 * np.pi, 3))
    else:
        m = models.get_model(name)
    return m.rep, pure_state(np.ones(m.rep.dim))


@pytest.mark.parametrize("name", BUILTIN_NAMES + ["qutrit-chain-3"])
@pytest.mark.parametrize("seed", [0, 3, 11])
def test_sampler_matches_stepwise_oracle(name, seed):
    rep, psi0 = _model_case(name)
    # an off-grid checkpoint splits a step: batches mix two step lengths
    for horizon, times in ((2.0, (2.0,)), (1.0, (0.0, 0.37, 1.0))):
        ens = sample_one(rep, psi0, horizon, 120, seed=seed,
                         checkpoint_times=times, first_index=seed)
        _assert_matches_stepwise(ens, *_stepwise_ensemble(
            rep, psi0, horizon, 120, seed=seed, checkpoint_times=times,
            first_index=seed)[:2])


def test_sampler_matches_stepwise_oracle_with_refills_and_recrossings(monkeypatch):
    # qubit-III over T = 4 with a 2n-block fill cap: rows outrun their
    # first fill, and many jump twice within one grid step
    rep, n = models.qubit_iii().rep, 60
    monkeypatch.setattr(traj, "_FILL_CAP", 2 * n)
    for seed in (1, 2):
        ens = sample_one(rep, PLUS, 4.0, n, seed=seed, checkpoint_times=(1.5, 4.0))
        records, states, recrossings = _stepwise_ensemble(
            rep, PLUS, 4.0, n, seed=seed, checkpoint_times=(1.5, 4.0))
        assert ens.stats["philox_calls"] > 5 and recrossings > 0
        _assert_matches_stepwise(ens, records, states)


@pytest.mark.parametrize("name", ["qubit-III", "qutrit-chain-3"])
def test_diagonal_path_samples_as_the_taylor_path(name):
    # a Hermitian off-diagonal of 1e-200 added to H sends the same model
    # down the Taylor table and its grid: the same labels and offsets, each
    # waiting time within time_tol, and so states within 100 time_tol
    # (4.5e-9 at most over these cases)
    rep, psi0 = _model_case(name)
    tiny = np.zeros((rep.dim, rep.dim), dtype=complex)
    tiny[0, 1] = tiny[1, 0] = 1e-200
    taylor = Representation(rep.hamiltonian + tiny, rep.jumps, rep.labels)
    assert _MomentPropagator(rep.effective_hamiltonian).diagonal is not None
    assert _MomentPropagator(taylor.effective_hamiltonian).diagonal is None
    for seed in (0, 3):
        for horizon, times in ((2.0, (2.0,)), (1.0, (0.0, 0.37, 1.0))):
            want, got = (sample_one(r, psi0, horizon, 150, seed=seed,
                                    checkpoint_times=times) for r in (taylor, rep))
            assert np.array_equal(got.offsets, want.offsets)
            _assert_same_records_within_time_tol(event_lists(got), event_lists(want),
                                                 horizon)
            assert list(got.states) == list(want.states)
            for t in want.states:
                assert np.max(np.abs(got.states[t] - want.states[t])) <= \
                    100.0 * TIME_TOL_FACTOR * horizon


@pytest.mark.parametrize("name", ["twoqubit-I", "qutrit-chain-3"])
def test_sampler_states_independent_of_chunking(name):
    # the same bits serial or in chunks, a one-row chunk included: no
    # lone row goes to gemv
    rep, psi0 = _model_case(name)
    for seed in range(10):
        serial = sample_one(rep, psi0, 2.0, 80, seed=seed, checkpoint_times=(1.0, 2.0))
        for cuts in ((0, 40, 80), (0, 1, 2, 80)):
            joined = TrajectoryEnsemble.join(
                sample_one(rep, psi0, 2.0, b - a, seed=seed,
                           checkpoint_times=(1.0, 2.0), first_index=a)
                for a, b in zip(cuts, cuts[1:]))
            assert event_lists(joined) == event_lists(serial)
            for t in serial.states:
                assert np.array_equal(joined.states[t], serial.states[t])


@pytest.mark.parametrize("name", BUILTIN_NAMES + ["qutrit-chain-3"])
@pytest.mark.parametrize("seed", [0, 3, 11])
def test_stacked_starts_match_single_start_sampling(name, seed):
    # starts of two states and three master seeds (one negative), one of
    # them twice, in one pass and in chunks (0, 1, 2, n): each start's
    # ensemble is its one-start ensemble, bit for bit
    rep, psi0 = _model_case(name)
    other = random_pure_state(np.random.default_rng(seed), rep.dim)
    starts = [(psi0, seed), (other, seed + 1), (psi0, seed), (other, -seed - 5)]
    n, times = 60, (0.37, 2.0)
    single = [sample_one(rep, psi, 2.0, n, seed=s, checkpoint_times=times)
              for psi, s in starts]
    for cuts in ((0, n), (0, 1, 2, n)):
        parts = [traj.sample_ensembles(rep, starts, 2.0, b - a, times, first_index=a)
                 for a, b in zip(cuts, cuts[1:])]
        for s, want in enumerate(single):
            got = TrajectoryEnsemble.join(p[s] for p in parts)
            assert event_lists(got) == event_lists(want)
            assert (got.seed, got.horizon, list(got.states)) == \
                (want.seed, want.horizon, list(want.states))
            for t in want.states:
                assert np.array_equal(got.states[t], want.states[t])
            assert got.stats["jumps"] == want.stats["jumps"]
            assert got.stats["draws"] == want.stats["draws"] == \
                n + 2 * got.stats["jumps"]
    # the pass-level counts are the pass's, shared by its ensembles
    stacked = traj.sample_ensembles(rep, starts, 2.0, n, times)
    shared = ("grid_steps", "crossing_batches", "trials", "philox_calls")
    assert len({tuple(e.stats[k] for k in shared) for e in stacked}) == 1
    assert stacked[0].stats["grid_steps"] == single[0].stats["grid_steps"]
    assert stacked[0].stats["crossing_batches"] <= \
        sum(e.stats["crossing_batches"] for e in single)


def test_sampler_draws_every_stream_in_one_philox_evaluation():
    n = 2000
    ens = sample_one(models.qubit_iii().rep, PLUS, 1.0, n, seed=1)
    # one threshold per trajectory and a (label, threshold) pair per jump,
    # all from the first fill: no evaluation per row or per crossing batch
    assert ens.stats["draws"] == n + 2 * ens.stats["jumps"]
    assert ens.stats["philox_calls"] == 1


_MASK = 2 ** 64 - 1


def _numpy_stream(seed, index):
    key = np.array([seed & _MASK, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@given(st.one_of(st.just(0), st.integers(-2 ** 63, -1), st.integers(2 ** 63, _MASK)),
       st.integers(2 ** 63 - 4, 2 ** 63 + 4),
       st.lists(st.integers(1, 3), min_size=1, max_size=12))
def test_streams_match_numpy_philox(seed, first_index, sizes):
    # three rows with 2-block (8-draw) buffers: takes of 1-3 draws cross
    # block boundaries and run past the first fill, so rows are refilled;
    # each row has its own key, the middle one another master seed
    seeds = [seed & _MASK, (seed + 1) & _MASK, seed & _MASK]
    streams = _Streams(np.array(seeds, dtype=np.uint64),
                       np.uint64(first_index) + np.arange(3, dtype=np.uint64), 2)
    want = [_numpy_stream(s, first_index + i) for i, s in enumerate(seeds)]
    for step, k in enumerate(sizes):
        rows = np.array([0, 2]) if step % 2 else np.arange(3)
        got = streams.take(rows, k)
        for row, i in zip(got, rows):
            assert np.array_equal(row, want[i].random(k))
    assert streams.calls > 1 or sum(sizes) <= 8
    assert np.array_equal(_philox_uniforms(np.full(3, seed & _MASK, dtype=np.uint64),
                                           np.full(3, first_index, dtype=np.uint64),
                                           np.arange(1, 4, dtype=np.uint64)).ravel(),
                          _numpy_stream(seed, first_index).random(12))
    # blocks of two keys in one evaluation
    mixed = _philox_uniforms(np.array(seeds[:2] * 2, dtype=np.uint64),
                             np.full(4, first_index, dtype=np.uint64),
                             np.array([1, 1, 2, 2], dtype=np.uint64))
    for i, s in enumerate(seeds[:2]):
        assert np.array_equal(mixed[i::2].ravel(), _numpy_stream(s, first_index).random(8))


class _GeneratorStreams:
    """Stands in for _Streams with one numpy Philox Generator per row,
    keyed by the row's own (seed, index) words."""

    def __init__(self, seeds, keys, blocks):
        self.gens = [_numpy_stream(int(s), int(k)) for s, k in zip(seeds, keys)]
        self.used = np.zeros(len(self.gens), dtype=int)
        self.calls = 0

    def take(self, rows, k):
        self.used[rows] += k
        return np.array([self.gens[i].random(k) for i in rows])


def test_sampler_rows_outrunning_first_fill_match_generator_streams(monkeypatch):
    # qubit-III jumps at rate 2: over T = 4 a 2-block fill (room for 3
    # jumps) is outrun by most rows, so many batches refill their rows
    rep, n = models.qubit_iii().rep, 60
    monkeypatch.setattr(traj, "_FILL_CAP", 2 * n)
    # and a stacked pass: the rows of two master seeds refilled together
    starts = [(PLUS, -7), (pure_state([1, 1j]), 2 ** 64 + 3)]
    got = [sample_one(rep, PLUS, 4.0, n, seed=-7, first_index=5,
                      checkpoint_times=(4.0,))]
    got += traj.sample_ensembles(rep, starts, 4.0, n, (4.0,), first_index=5)
    for ens in got:
        assert ens.stats["philox_calls"] > 5
        assert ens.stats["draws"] == n + 2 * ens.stats["jumps"]
    monkeypatch.setattr(traj, "_Streams", _GeneratorStreams)
    want = [sample_one(rep, PLUS, 4.0, n, seed=-7, first_index=5,
                       checkpoint_times=(4.0,))]
    want += traj.sample_ensembles(rep, starts, 4.0, n, (4.0,), first_index=5)
    for a, b in zip(got, want, strict=True):
        assert event_lists(a) == event_lists(b)
        assert np.array_equal(a.states[4.0], b.states[4.0])


def test_count_vectors_tally_event_labels():
    rep = models.twoqubit_iii().rep
    ens = sample_one(rep, pure_state(np.ones(4)), 1.0, 300, seed=2)
    full = ens.count_vectors(rep.njumps)
    partition = build_sjeds(rep)
    coarse = ens.coarse_count_vectors(partition)
    for rec, row, crow in zip(event_lists(ens), full, coarse, strict=True):
        assert row.tolist() == [sum(j == k for _, j in rec) for k in range(len(row))]
        assert crow.tolist() == [sum(partition.coarse_labels()[j] == k for _, j in rec)
                                 for k in range(len(crow))]
    assert full.dtype == coarse.dtype == np.dtype(int)


def test_jump_labels_match_searchsorted(rng):
    amp = rng.standard_normal((40, 5, 3)) + 1j * rng.standard_normal((40, 5, 3))
    draws = rng.random(40)
    labels, states = _jump(amp, draws)
    for i in range(40):
        rates = np.linalg.norm(amp[i], axis=1) ** 2
        k = int(np.searchsorted(np.cumsum(rates) / rates.sum(), draws[i]))
        assert labels[i] == k
        assert np.allclose(states[i], amp[i, k] / np.linalg.norm(amp[i, k]))


def test_jump_label_clamped_when_last_share_rounds_low():
    # eight jumps: the total sums pairwise to 1 + 2^-52 while the running
    # sum stays at 1, so the last cumulative share is 1 - 2^-52, below the
    # largest draw 1 - 2^-53; the row must take the last label
    amp = np.full((1, 8, 1), 2.0 ** -27, dtype=complex)
    amp[0, 0, 0] = 1.0
    draw = np.nextafter(1.0, 0.0)
    rates = np.abs(amp[:, :, 0]) ** 2
    assert (np.cumsum(rates, axis=1) / rates.sum(axis=1))[0, -1] < draw
    labels, states = _jump(amp, np.array([draw]))
    assert labels.tolist() == [7]
    assert np.allclose(states, [[1.0]])


def test_jump_rejects_vanishing_rates():
    with pytest.raises(StiffnessError):
        _jump(np.zeros((2, 3, 2), dtype=complex), np.array([0.5, 0.5]))


def test_dephasing_jump_counts_poisson():
    gamma, horizon, n = 1.0, 1.0, 20000
    ens = sample_one(dephasing(gamma), PLUS, horizon, n, seed=11)
    counts = np.array([len(r) for r in event_lists(ens)])
    mean = counts.mean()
    sigma = np.sqrt(gamma * horizon / n)
    assert abs(mean - gamma * horizon) < 3 * sigma
    var = counts.var()
    assert abs(var - gamma * horizon) < 5 * np.sqrt(2.0 / n)


def test_purity_along_trajectories():
    rep = models.qubit_ii().rep
    ens = sample_one(rep, PLUS, 1.0, 200, seed=2, checkpoint_times=(0.5, 1.0))
    for t, vecs in ens.states.items():
        norms = np.linalg.norm(vecs, axis=1)
        assert np.all(np.abs(norms - 1.0) < 1e-8)


def test_checkpoints_reproduce_record_weights():
    rep = models.qubit_ii().rep
    times = (0.25, 0.5, 0.75, 1.0)
    ens = sample_one(rep, PLUS, 1.0, 20, seed=21, checkpoint_times=times)
    for i in range(20):
        for t in times:
            events = [(tt, j) for tt, j in event_lists(ens)[i] if tt < t]
            phi, density = record_weight(rep, PLUS, [tt for tt, _ in events],
                                         [j for _, j in events], t)
            v = ens.states[t][i]
            assert frob(phi / density - np.outer(v, v.conj())) < 1e-6


def _exact_label_moments(rep, psi0, horizon):
    """(mu, S): mu_j = E[N_j(T)] = int_0^T tr(J_j rho J_j†) dt and S_jk =
    E[N_j N_k] - delta_jk mu_j = int_0^T [tr(J_k X_j J_k†) + tr(J_j X_k
    J_j†)] dt, X_j' = L X_j + J_j rho J_j†, X_j(0) = 0, rho(0) =
    |psi0><psi0|: the last rows of exp(T M) [vec rho(0); 0] for the
    row-stacking Liouville matrix L augmented by one block row per label
    for X_j, the rows vec((J_j† J_j)^T) that integrate the rates of rho,
    and those rows on each X_j (Van Loan, IEEE TAC 23, 395, 1978; counting
    statistics as in Landi et al., PRX Quantum 5, 020201, 2024).  L is
    built here from Kronecker products, as sparse matrices, and exp(T M)
    acts through expm_multiply, so the d = 81 chain costs little."""
    d, m = rep.dim, rep.njumps
    ops = [scipy.sparse.csr_array(a) for a in (rep.hamiltonian, *rep.jumps)]
    h, jumps, one = ops[0], ops[1:], scipy.sparse.eye_array(d, format="csr")
    lam = -1j * (scipy.sparse.kron(h, one) - scipy.sparse.kron(one, h.T))
    rates = []
    for j in jumps:
        jdj = j.conj().T @ j
        lam = lam + scipy.sparse.kron(j, j.conj()) - 0.5 * (
            scipy.sparse.kron(jdj, one) + scipy.sparse.kron(one, jdj.T))
        rates.append(scipy.sparse.csr_array(jdj.T.reshape((1, d * d))))
    rates, each = scipy.sparse.vstack(rates), scipy.sparse.eye_array(m)
    emit = scipy.sparse.vstack([scipy.sparse.kron(j, j.conj()) for j in jumps])
    zeros = scipy.sparse.csr_array((d * d, m + m * m))
    aug = scipy.sparse.block_array([
        [lam, None, zeros],
        [emit, scipy.sparse.kron(each, lam), None],
        [rates, None, None],
        [None, scipy.sparse.kron(each, rates), None],
    ]).tocsc()
    start = np.zeros(aug.shape[0], dtype=complex)
    start[:d * d] = np.outer(psi0, psi0.conj()).reshape(-1)
    tail = scipy.sparse.linalg.expm_multiply(horizon * aug, start)[(m + 1) * d * d:].real
    c = tail[m:].reshape(m, m)      # c[j, k] = int_0^T tr(J_k X_j J_k†) dt
    return tail[:m], c + c.T


def _label_oracle_model(name):
    if name == "seeded-chain-3":
        return models.qutrit_chain(3, thetas=np.random.default_rng(7).uniform(0, 2 * np.pi, 3))
    return models.get_model(name)


@pytest.mark.parametrize("name", [*models.BUILDERS, "seeded-chain-3"])
def test_label_means_match_the_exact_counting_law(name):
    # each label's mean count over one sampler pass from simulate's uniform
    # start, T = 1, n = 20000, seed 3, within 4 standard errors of E[N_j(T)],
    # and each pair's count covariance within 4 standard errors of
    # Cov(N_j, N_k) = S_jk + delta_jk E[N_j] - E[N_j] E[N_k]
    rep = _label_oracle_model(name).rep
    psi0 = np.ones(rep.dim, dtype=complex) / np.sqrt(rep.dim)
    exact, pairs = _exact_label_moments(rep, psi0, 1.0)
    counts = sample_ensembles(rep, [(psi0, 3)], 1.0, 20000)[0].count_vectors(rep.njumps)
    n = len(counts)
    # a count N >= 0 of integers has N^2 >= N, so Var N >= E N (1 - E N):
    # the floor stands in for a sample variance of 0 on a label too rare to
    # be drawn (one chain label has E N = 1.7e-8)
    var = np.maximum(counts.var(axis=0, ddof=1), exact * (1.0 - exact))
    assert np.all(np.abs(counts.mean(axis=0) - exact) <= 4.0 * np.sqrt(var / n))
    cov = pairs + np.diag(exact) - np.outer(exact, exact)
    deviations = counts - counts.mean(axis=0)
    products = deviations[:, :, None] * deviations[:, None, :]
    # the standard error of each covariance is the spread of its products
    # over sqrt(n).  A label too rare to be drawn makes its products all 0,
    # so a floor stands in for their variance: on the diagonal, for a mean
    # mu <= 1, Var (N - mu)^2 >= mu (1 - mu)^4 - Var(N)^2, as a count N of
    # integers has (N - mu)^4 >= N (1 - mu)^4; off it, Var N_j Var N_k, the
    # variance of the product for independent counts (exact moments each)
    sigma2 = np.diag(cov)
    floor = np.where(np.eye(rep.njumps, dtype=bool),
                     np.where(exact <= 1.0, exact * (1.0 - exact) ** 4 - sigma2 ** 2, 0.0),
                     np.outer(sigma2, sigma2))
    spread = np.maximum(products.var(axis=0, ddof=1), floor)
    assert np.all(np.abs(np.cov(counts, rowvar=False).reshape(cov.shape) - cov)
                  <= 4.0 * np.sqrt(spread / n))


def test_ensemble_average_t0():
    rep = models.qubit_weak().rep
    ens = sample_one(rep, PLUS, 0.5, 10, seed=1, checkpoint_times=(0.0,))
    mean, _ = ensemble_average(ens, 0.0)
    assert frob(mean - PLUS) < 1e-12


def test_ensemble_average_matches_master_evolution():
    rep = models.qubit_weak().rep
    n = 20000
    times = (0.5, 1.0, 2.0)
    ens = sample_one(rep, PLUS, 2.0, n, seed=42, checkpoint_times=times)
    for t in times:
        mean, err = ensemble_average(ens, t)
        exact = evolve_density(rep, PLUS, t)
        assert np.all(np.abs(mean - exact) <= 3 * err + 1e-12)


def _complex_std_average(ensemble, t, n_bootstrap=200, seed=1):
    """ensemble_average's reference form: the int64-by-complex bootstrap
    product and the complex standard deviation of its entries."""
    vecs = ensemble.states[float(t)]
    n, d = vecs.shape
    mats = np.einsum("ia,ib->iab", vecs, vecs.conj()).reshape(n, d * d)
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(n, np.full(n, 1.0 / n), size=n_bootstrap)
    boots = (counts @ mats) / n
    return (mats.mean(axis=0).reshape(d, d),
            np.abs(boots.std(axis=0, ddof=1).reshape(d, d)))


def _seeded_case(name):
    """(rep, psi0, horizon, symmetries) of a d = 2 or d = 27 model."""
    if name == "qubit-weak":
        m, psi0 = models.qubit_weak(), PLUS
    else:
        m = models.qutrit_chain(
            3, thetas=np.random.default_rng(7).uniform(0.0, 2 * np.pi, 3))
        psi0 = pure_state(np.ones(27))
    syms = {k: SymmetryOperator.from_matrix(u) for k, u in m.symmetries.items()}
    return m.rep, psi0, 1.0, syms


@pytest.mark.parametrize("name, n", [("qubit-weak", 2000), ("qutrit-chain-3", 300)])
@pytest.mark.parametrize("seed", [1, 5])
def test_ensemble_average_matches_complex_std_oracle(name, n, seed):
    rep, psi0, horizon, _ = _seeded_case(name)
    ens = sample_one(rep, psi0, horizon, n, seed=seed, checkpoint_times=(horizon,))
    mean, err = ensemble_average(ens, horizon)
    want_mean, want_err = _complex_std_average(ens, horizon)
    assert np.array_equal(mean, want_mean)
    # the real GEMM sums in another order: rounding level, relative to the
    # largest entry
    assert np.max(np.abs(err - want_err)) <= 1e-15 * np.max(want_err)


def _full_outer_average(vecs, n_bootstrap=200, seed=1):
    """ensemble_average as one n x d^2 array of outer products: the mean
    of all of it, the bootstrap on the real view of its upper triangle."""
    n, d = vecs.shape
    mats = np.einsum("ia,ib->iab", vecs, vecs.conj()).reshape(n, d * d)
    counts = np.random.default_rng(seed).multinomial(n, np.full(n, 1.0 / n),
                                                     size=n_bootstrap)
    rows, cols = np.triu_indices(d)
    boots = (counts.astype(float) @ mats.take(rows * d + cols, axis=1).view(float)) / n
    err = np.empty((d, d))
    err[rows, cols] = err[cols, rows] = \
        np.sqrt(boots.var(axis=0, ddof=1).reshape(-1, 2).sum(axis=1))
    return mats.mean(axis=0).reshape(d, d), err


def _ensemble_of(vecs):
    return TrajectoryEnsemble(np.empty(0), np.empty(0, dtype=int),
                              np.zeros(len(vecs) + 1, dtype=int), {1.0: vecs}, 1.0, 0, "")


@pytest.mark.parametrize("d, n, chunk", [
    (2, 2000, traj._AVERAGE_CHUNK),  # one chunk
    (27, 300, 300 * 7),              # 54 chunks, the last of 7 columns
    (27, 300, 300 * 29),             # a last chunk of one column joins the one before
    (5, 40, 1),                      # two columns a chunk, never one
    # the weights' covariance: n (200 + d(d+1)) < 200 d(d+1)
    (27, 80, traj._AVERAGE_CHUNK),   # one chunk
    (27, 80, 200 * 7),               # 54 chunks
    (81, 100, traj._AVERAGE_CHUNK),
    (4, 10, traj._AVERAGE_CHUNK),
    (27, 158, traj._AVERAGE_CHUNK),  # the last n on the covariance side at d = 27
    (27, 159, traj._AVERAGE_CHUNK),  # the first n past it
])
def test_ensemble_average_chunks_match_the_full_outer_products(monkeypatch, d, n, chunk):
    rng = np.random.default_rng(d + n)
    vecs = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
    vecs /= np.linalg.norm(vecs, axis=1)[:, None]
    ens = _ensemble_of(vecs)
    monkeypatch.setattr(traj, "_AVERAGE_CHUNK", chunk)
    widths = []
    quadratic_forms = []
    einsum = np.einsum

    def spy(subscripts, *operands, **kwargs):
        if subscripts == "ia,ia->ia":
            widths.append(operands[0].shape[1])
        if subscripts == "ij,ij->j":
            quadratic_forms.append(operands[0].shape)
        return einsum(subscripts, *operands, **kwargs)

    monkeypatch.setattr(np, "einsum", spy)
    mean, err = ensemble_average(ens, 1.0)
    monkeypatch.undo()
    want_mean, want_err = _full_outer_average(vecs)
    assert sum(widths) == d * (d + 1) // 2 and min(widths) >= 2
    assert max(widths) < 2 * max(2, chunk // max(n, 200))
    # one quadratic form per chunk on the covariance side, none on the other
    covariance = n * (200 + d * (d + 1)) < 200 * d * (d + 1)
    assert len(quadratic_forms) == (len(widths) if covariance else 0)
    assert np.array_equal(mean, want_mean)
    # the bootstrap GEMMs sum in chunks, or in the other product order:
    # rounding level
    assert np.max(np.abs(err - want_err)) <= 1e-14 * np.max(want_err)


@pytest.mark.parametrize("d", [1, 2, 27])
def test_ensemble_average_of_one_trajectory_has_no_spread(d):
    vecs = np.random.default_rng(d).standard_normal((1, d)) + 0j
    vecs /= np.linalg.norm(vecs)
    mean, err = ensemble_average(_ensemble_of(vecs), 1.0)
    assert np.array_equal(mean, np.outer(vecs[0], vecs[0].conj()))
    assert np.all(err == 0.0)


@pytest.mark.parametrize("d, n", [(2, 2000), (2, 5), (27, 80), (27, 300)])
def test_ensemble_average_of_identical_states_has_a_valid_stderr(d, n):
    rng = np.random.default_rng(n)
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    vecs = np.tile(v / np.linalg.norm(v), (n, 1))
    mean, err = ensemble_average(_ensemble_of(vecs), 1.0)
    assert np.all(np.isfinite(err)) and np.all(err >= 0.0)
    # no spread to resample: the error is the mean's rounding
    assert np.max(err) <= 1e-14 * np.max(np.abs(mean))


def _traced_peak(fn):
    import tracemalloc

    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_ensemble_average_of_a_large_ensemble_forms_no_full_outer_products():
    # the n x d^2 array of outer products alone would take 200 MiB here
    n, d = 2000, 81
    vecs = np.random.default_rng(1).standard_normal((n, d)).astype(complex)
    vecs /= np.linalg.norm(vecs, axis=1)[:, None]
    ens = _ensemble_of(vecs)
    (mean, _), peak = _traced_peak(lambda: ensemble_average(ens, 1.0))
    assert peak < 32 * 2 ** 20
    assert abs(np.trace(mean) - 1.0) < 1e-12


def test_ensemble_average_on_the_covariance_side_forms_no_resampled_means():
    # 200 resampled means of the 756 real upper-triangle columns take 1.2 MB,
    # and their variance pass as much again; G and G X take 50 kB and 0.5 MB
    n, d = 80, 27
    rng = np.random.default_rng(2)
    vecs = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
    vecs /= np.linalg.norm(vecs, axis=1)[:, None]
    ens = _ensemble_of(vecs)
    (mean, _), peak = _traced_peak(lambda: ensemble_average(ens, 1.0))
    assert peak < 2 * 2 ** 20
    assert abs(np.trace(mean) - 1.0) < 1e-12


def _einsum_state_keys(vecs, nbins=6):
    """_state_keys' reference form: per-column digits zipped into tuples,
    with the two observables' expectations from an unoptimised einsum."""
    def digit(c):
        return np.clip(((c + 1.0) / 2.0 * nbins).astype(int), 0, nbins - 1)

    n, d = vecs.shape
    if d == 2:
        x = 2 * (vecs[:, 0].conj() * vecs[:, 1]).real
        y = 2 * (vecs[:, 0].conj() * vecs[:, 1]).imag
        z = np.abs(vecs[:, 0]) ** 2 - np.abs(vecs[:, 1]) ** 2
        return list(zip(digit(x), digit(y), digit(z)))
    pops = np.abs(vecs) ** 2
    rng = np.random.default_rng(777)
    obs = []
    for _ in range(2):
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        obs.append((a + a.conj().T) / 2)
    extra = [np.einsum("ia,ab,ib->i", vecs.conj(), o, vecs).real / max(frob(o), 1.0)
             for o in obs]
    cols = [np.clip((pops[:, k] * nbins).astype(int), 0, nbins - 1)
            for k in range(d)]
    return list(zip(*cols, *(digit(e) for e in extra)))


def _oracle_symmetry_p(rep, sym, level, a, b, perm):
    """ensemble_symmetry_test's p-value from the reference keys, tallied
    as key + count-row tuples by a Counter."""
    va = a.states[a.horizon] @ sym.matrix.T
    vb = b.states[b.horizon]
    if level == "unlabelled":
        return two_sample_chi2(Counter(_einsum_state_keys(va)),
                               Counter(_einsum_state_keys(vb)))[0]
    if level == "full":
        counts_a, counts_b = a.count_vectors(rep.njumps), b.count_vectors(rep.njumps)
    else:
        partition = build_sjeds(rep)
        counts_a = a.coarse_count_vectors(partition)
        counts_b = b.coarse_count_vectors(partition)
    mapped = counts_a[:, np.argsort(np.asarray(perm))]
    ha = Counter(k + tuple(row) for k, row in zip(_einsum_state_keys(va, 4), mapped))
    hb = Counter(k + tuple(row) for k, row in zip(_einsum_state_keys(vb, 4), counts_b))
    return two_sample_chi2(ha, hb)[0]


@pytest.mark.parametrize("name, n", [("qubit-weak", 2000), ("qutrit-chain-3", 300)])
def test_state_keys_match_einsum_oracle(name, n):
    rep, psi0, horizon, syms = _seeded_case(name)
    for sym_name, sym in syms.items():
        a, b = symmetry_ensembles(rep, sym, psi0, horizon, n, seed=11)
        for vecs in (a.states[horizon], b.states[horizon] @ sym.matrix.T):
            for nbins in (4, 6):
                keys = _state_keys(vecs, nbins)
                assert keys.shape == (n, 3 if rep.dim == 2 else rep.dim + 2)
                assert list(map(tuple, keys.tolist())) == \
                    _einsum_state_keys(vecs, nbins)
        # the permutations `simulate` passes: the condition's when it holds
        full, coarse = check_condition_III(rep, sym), check_condition_II(rep, sym)
        perms = {"full": full.permutation if full.holds else tuple(range(rep.njumps)),
                 "coarse": coarse.permutation if coarse.holds
                 else tuple(range(build_sjeds(rep).nsets)),
                 "unlabelled": None}
        for level, perm in perms.items():
            pval, _ = ensemble_symmetry_test(rep, sym, level, a, b, permutation=perm)
            want = _oracle_symmetry_p(rep, sym, level, a, b, perm)
            assert repr(pval) == repr(want), (sym_name, level)


# ---------------------------------------------------------------- symmetry tests

def test_symmetry_test_full_level_weak_model():
    m = models.qubit_iii()
    sym = SymmetryOperator.from_matrix(m.symmetries["parity"])
    res = check_condition_III(m.rep, sym)
    a, b = symmetry_ensembles(m.rep, sym, PLUS, 1.0, 4000, seed=7)
    pval, passed = ensemble_symmetry_test(m.rep, sym, "full", a, b,
                                          permutation=res.permutation)
    assert passed, pval


def test_symmetry_test_requires_permutation():
    m = models.qubit_iii()
    sym = SymmetryOperator.from_matrix(m.symmetries["parity"])
    a, b = symmetry_ensembles(m.rep, sym, PLUS, 1.0, 100, seed=7)
    with pytest.raises(MissingPermutation):
        ensemble_symmetry_test(m.rep, sym, "full", a, b)


def test_symmetry_test_rejects_malformed_permutations():
    # a permutation that is not a bijection of the level's labels relabels
    # no record: too short, repeated, or too long
    m = models.qubit_iii()
    sym = SymmetryOperator.from_matrix(m.symmetries["parity"])
    a, b = symmetry_ensembles(m.rep, sym, PLUS, 1.0, 300, seed=7)
    for level in ("full", "coarse"):
        for perm in ((0,), (0, 0), (0, 1, 2), (1, 2)):
            with pytest.raises(SizeMismatch):
                ensemble_symmetry_test(m.rep, sym, level, a, b, permutation=perm)


def test_symmetry_test_rejects_qubit_ii_full_level():
    m = models.qubit_ii(c1=0.5, c2=0.5)
    sym = SymmetryOperator.from_matrix(m.symmetries["parity"])
    a, b = symmetry_ensembles(m.rep, sym, PLUS, 1.0, 8000, seed=13)
    pval, passed = ensemble_symmetry_test(m.rep, sym, "full", a, b,
                                          permutation="best")
    assert not passed and pval < 1e-4


def test_symmetry_test_coarse_level_qubit_ii():
    m = models.qubit_ii(c1=0.5, c2=0.5)
    sym = SymmetryOperator.from_matrix(m.symmetries["parity"])
    a, b = symmetry_ensembles(m.rep, sym, PLUS, 1.0, 8000, seed=13)
    pval, passed = ensemble_symmetry_test(m.rep, sym, "coarse", a, b,
                                          permutation=(1, 0))
    assert passed, pval


def test_symmetry_test_unlabelled_level():
    m = models.qubit_ii(c1=0.5, c2=0.5)
    sym = SymmetryOperator.from_matrix(m.symmetries["parity"])
    a, b = symmetry_ensembles(m.rep, sym, PLUS, 1.0, 8000, seed=17)
    pval, passed = ensemble_symmetry_test(m.rep, sym, "unlabelled", a, b)
    assert passed, pval


def test_transformed_representation_generates_transformed_paths():
    # ensembles of the conjugated representation from the transformed state
    # are statistically indistinguishable from transformed ensembles
    m = models.qubit_ii()
    sym = SymmetryOperator.from_matrix(m.symmetries["parity"])
    rep_t = Representation(sym.conjugate(m.rep.hamiltonian),
                           tuple(sym.conjugate(j) for j in m.rep.jumps))
    n, horizon = 8000, 1.0
    ens_a = sample_one(m.rep, PLUS, horizon, n, seed=31)
    ens_b = sample_one(rep_t, sym.conjugate(PLUS), horizon, n, seed=32)
    ha = _histogram([tuple(row) for row in ens_a.count_vectors(3)])
    hb = _histogram([tuple(row) for row in ens_b.count_vectors(3)])
    pval, _, _ = two_sample_chi2(ha, hb)
    assert pval > 0.01


@st.composite
def count_tables(draw):
    """(dof, table_a, table_b): two count tables over shared keys and the
    dof their test must have; every bin too small (dof 0, the early
    return), one large bin and small ones (merged down to 2 bins, dof 1), or
    100-400 bins of at least 5 expected counts each (no merging)."""
    shape = draw(st.sampled_from(["small", "two", "many"]))
    if shape == "many":
        k = draw(st.integers(100, 400))
        counts = st.integers(30, 60)
    else:
        k = draw(st.integers(1, 6))
        counts = st.integers(0, 2)
    a = dict(enumerate(draw(st.lists(counts, min_size=k, max_size=k))))
    b = dict(enumerate(draw(st.lists(counts, min_size=k, max_size=k))))
    if shape == "many":
        return None, a, b
    a[0] = b[0] = 1
    if shape == "two":
        a[k], b[k] = draw(st.integers(20, 100)), draw(st.integers(20, 100))
    return {"small": 0, "two": 1}[shape], a, b


@given(count_tables())
def test_two_sample_chi2_p_value_is_scipy_chi2_sf(tables):
    want_dof, table_a, table_b = tables
    pval, chi2, dof = two_sample_chi2(table_a, table_b)
    if want_dof is None:
        assert dof == len(table_a) - 1 >= 99
    else:
        assert dof == want_dof
    if dof:
        assert repr(pval) == repr(float(scipy.stats.chi2.sf(chi2, dof)))
    else:
        assert (pval, chi2) == (1.0, 0.0)


@given(st.dictionaries(st.integers(0, 8), st.integers(0, 60), max_size=8),
       st.dictionaries(st.integers(0, 8), st.integers(0, 60), max_size=8))
def test_two_sample_chi2_is_warning_free_and_symmetric(table_a, table_b):
    # empty and all-zero tables included: p = 1 without dividing 0 by 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pval, _, _ = two_sample_chi2(table_a, table_b)
        swapped, _, _ = two_sample_chi2(table_b, table_a)
    assert 0.0 <= pval <= 1.0
    assert swapped == pval


def test_state_vector_roundtrip(rng):
    psi = random_pure_state(rng, 3)
    v = state_vector(psi)
    assert frob(np.outer(v, v.conj()) - psi) < 1e-10
    with pytest.raises(ValueError):
        state_vector(np.eye(2) / 2)
    # both checks decide at tau(DEFAULT_TOL): a Hermiticity defect
    # ||psi - psi^dag|| and a shortfall 1 - w_max of the top eigenvalue
    # (bound tau + tau max(1, w_max)) are accepted below and refused above
    tau = threshold(DEFAULT_TOL)
    skew = np.zeros((3, 3), dtype=complex)
    skew[0, 1], skew[1, 0] = 1.0, -1.0       # ||psi - psi^dag|| = 2 sqrt(2) eps
    for eps in (0.3 * tau / np.sqrt(8.0), 0.9 * tau / np.sqrt(8.0)):
        v = state_vector(psi + eps * skew)
        assert frob(np.outer(v, v.conj()) - psi) < 1e-8
    with pytest.raises(NotHermitianError):
        state_vector(psi + 1.5 * tau / np.sqrt(8.0) * skew)
    for shortfall in (0.5 * tau, 1.9 * tau):
        v = state_vector((1.0 - shortfall) * psi)
        assert frob(np.outer(v, v.conj()) - psi) < 1e-10
    with pytest.raises(ValueError, match="not pure"):
        state_vector((1.0 - 2.1 * tau) * psi)


def test_symmetry_test_two_qubit_full_level():
    # exercises the higher-dimensional state binning (populations plus two
    # fixed observables) on a record-symmetric four-jump model
    m = models.twoqubit_iii()
    sym = SymmetryOperator.from_matrix(m.symmetries["flip"])
    res = check_condition_III(m.rep, sym)
    assert res.holds
    psi0 = pure_state(np.ones(4) / 2.0)
    a, b = symmetry_ensembles(m.rep, sym, psi0, 1.0, 4000, seed=23)
    pval, passed = ensemble_symmetry_test(m.rep, sym, "full", a, b,
                                          permutation=res.permutation)
    assert passed, pval
    a, b = symmetry_ensembles(m.rep, sym, psi0, 1.0, 4000, seed=29)
    pval, passed = ensemble_symmetry_test(m.rep, sym, "unlabelled", a, b)
    assert passed, pval


def test_join_refuses_parts_of_different_ensembles():
    rep = Representation(SZ, (SM,))
    part = sample_one(rep, PLUS, 0.5, 4, seed=3, checkpoint_times=(0.5,))
    for other in (sample_one(rep, PLUS, 0.5, 4, seed=4, checkpoint_times=(0.5,),
                             first_index=4),
                  sample_one(rep, PLUS, 0.5, 4, seed=3, first_index=4),
                  sample_one(Representation(rep.hamiltonian, (2 * SM,)), PLUS, 0.5, 4,
                             seed=3, checkpoint_times=(0.5,), first_index=4)):
        with pytest.raises(ValueError):
            TrajectoryEnsemble.join([part, other])
    assert event_lists(TrajectoryEnsemble.join([part])) == event_lists(part)


def test_join_of_chunks_without_events():
    # chunks of jump-free rows and chunks holding no event at all join to
    # the ensemble sampled at once, offsets included
    rep = dephasing(0.2)
    serial = sample_one(rep, PLUS, 0.5, 12, seed=3, checkpoint_times=(0.5,))
    chunks = [sample_one(rep, PLUS, 0.5, b - a, seed=3, checkpoint_times=(0.5,),
                         first_index=a)
              for a, b in ((0, 1), (1, 2), (2, 4), (4, 5), (5, 12))]
    assert [len(c.times) for c in chunks] == [1, 0, 0, 1, 2]
    joined = TrajectoryEnsemble.join(chunks)
    assert event_lists(joined) == event_lists(serial)
    assert np.array_equal(joined.offsets, serial.offsets)
    assert joined.offsets.tolist() == [0, 1, 1, 1, 1, 2, 2, 3, 3, 3, 3, 3, 4]
    assert joined.size == 12
    assert np.array_equal(joined.states[0.5], serial.states[0.5])
    # a model without jumps: every chunk empty
    quiet = Representation(SZ, ())
    joined = TrajectoryEnsemble.join(
        sample_one(quiet, PLUS, 0.5, b - a, seed=3, first_index=a)
        for a, b in ((0, 2), (2, 3)))
    assert joined.offsets.tolist() == [0, 0, 0, 0]
    assert (joined.times.dtype, joined.labels.dtype) == (np.dtype(float), np.dtype(int))
    assert event_lists(joined) == [[], [], []]


def _json_export(ensemble, path):
    """export_records as one json.dumps per line: the JSON encoder's own
    bytes, which export_records must write."""
    finals = None
    if ensemble.states:
        v = ensemble.states[max(ensemble.states)]
        finals = np.stack([v.real, v.imag], -1).tolist()
    with open(path, "w") as fh:
        for i, rec in enumerate(event_lists(ensemble)):
            entry = {"trajId": i, "events": [[t, int(j)] for t, j in rec]}
            if finals is not None:
                entry["finalState"] = finals[i]
            fh.write(json.dumps(entry) + "\n")


def _assert_exports_match(ensemble, tmp_path):
    export_records(ensemble, tmp_path / "new.jsonl")
    _json_export(ensemble, tmp_path / "json.jsonl")
    assert (tmp_path / "new.jsonl").read_bytes() == (tmp_path / "json.jsonl").read_bytes()


def test_export_records_matches_json_encoder(tmp_path):
    ens = sample_one(models.qubit_iii().rep, PLUS, 2.0, 150, seed=2,
                     checkpoint_times=(2.0,))
    assert ens.stats["jumps"] > 0
    _assert_exports_match(ens, tmp_path)


def test_export_records_without_checkpoint_states(tmp_path):
    ens = sample_one(models.qubit_iii().rep, PLUS, 2.0, 20, seed=2)
    assert not ens.states
    _assert_exports_match(ens, tmp_path)
    assert "finalState" not in (tmp_path / "new.jsonl").read_text()


def test_export_records_without_events(tmp_path):
    states = {1.0: np.array([[1.0, 0.0], [0.6, 0.8j]])}
    ens = TrajectoryEnsemble(np.empty(0), np.empty(0, dtype=int), np.zeros(3, dtype=int),
                             states, 1.0, 0, "fp")
    _assert_exports_match(ens, tmp_path)


def test_export_records_final_state_floats_as_json_writes_them(tmp_path):
    # (real, imag) pairs: a complex literal would add away the sign of -0.0
    parts = np.array([[[-0.0, 1e-05], [5e-324, 1e16]], [[1e16, -0.0], [0.1, 0.2]]])
    states = {1.0: parts.view(complex)[..., 0]}
    ens = TrajectoryEnsemble(np.array([0.25, 0.5, 0.75]), np.array([1, 0, 1]),
                             np.array([0, 1, 3]), states, 1.0, 0, "fp")
    _assert_exports_match(ens, tmp_path)
    text = (tmp_path / "new.jsonl").read_text()
    for spelled in ("-0.0", "1e-05", "5e-324", "1e+16"):
        assert spelled in text


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_export_records_refuses_non_finite_final_state(tmp_path, bad):
    states = {1.0: np.array([[1.0, 0.0], [bad, 0.0]])}
    with pytest.raises(ValueError, match="non-finite"):
        export_records(TrajectoryEnsemble(np.empty(0), np.empty(0, dtype=int),
                                          np.zeros(3, dtype=int), states, 1.0, 0, "fp"),
                       tmp_path / "out.jsonl")
    assert not (tmp_path / "out.jsonl").exists()
