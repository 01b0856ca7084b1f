import json
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.stats
from hypothesis import given, strategies as st

from weaksym import models
from weaksym.lindblad import (
    Representation,
    evolve_density,
    pure_state,
)
from weaksym.linalg import dag, frob, matrix_exponential
from weaksym.sjed import build_sjeds
from weaksym.symmetry import SymmetryOperator, check_condition_III
from weaksym.trajectories import (
    TIME_TOL_FACTOR,
    MeasurementRecord,
    MissingPermutation,
    SizeMismatch,
    StiffnessError,
    coarse_record,
    coarse_record_weight,
    drift,
    ensemble_average,
    ensemble_symmetry_test,
    jump_rates,
    record_weight,
    sample_ensemble,
    sample_trajectory,
    state_vector,
    transform_record,
    two_sample_chi2,
)
from weaksym.trajectories import (
    _crossing_times,
    _jump,
    _MomentPropagator,
    _philox_uniforms,
    _Streams,
)

from conftest import SX, SZ, random_pure_state, symmetry_ensembles

PLUS = pure_state([1, 1])


def dephasing(gamma=1.0):
    return Representation(np.zeros((2, 2)), (np.sqrt(gamma) * SZ,))


# ---------------------------------------------------------------- local pieces

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
    _, density = record_weight(rep, PLUS, MeasurementRecord((), 2.0))
    assert abs(density - 1.0) < 1e-12


def test_record_weight_empty_dephasing():
    gamma, horizon = 0.9, 1.3
    _, density = record_weight(dephasing(gamma), PLUS,
                               MeasurementRecord((), horizon))
    assert abs(density - np.exp(-gamma * horizon)) < 1e-12


def test_record_weight_density_normalization():
    # survival plus integrated first-jump densities reproduce unit trace:
    # Tr G_T(psi) + sum_j int_0^T Tr[J_j G_t(psi) J_j†] dt = 1
    rep = models.qubit_ii().rep
    horizon = 0.8
    psi0 = PLUS
    _, p0 = record_weight(rep, psi0, MeasurementRecord((), horizon))
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
    rec = MeasurementRecord(((0.3, 0), (0.7, 1)), 1.0)
    full, dflt = record_weight(rep, PLUS, rec)
    crec = coarse_record(rec, p)
    coarse, dc = coarse_record_weight(rep, p, PLUS, crec)
    assert frob(full - coarse) < 1e-12
    assert abs(dflt - dc) < 1e-12


def test_coarse_weight_sums_refinements():
    m = models.qubit_ii()
    p = build_sjeds(m.rep)
    horizon = 1.0
    crec = MeasurementRecord(((0.4, 0),), horizon, "coarse")
    _, coarse_density = coarse_record_weight(m.rep, p, PLUS, crec)
    full_total = sum(
        record_weight(m.rep, PLUS, MeasurementRecord(((0.4, j),), horizon))[1]
        for j in p.sets[0].indices)
    assert abs(coarse_density - full_total) < 1e-12
    # two-event coarse record
    crec2 = MeasurementRecord(((0.2, 0), (0.6, 1)), horizon, "coarse")
    _, cd2 = coarse_record_weight(m.rep, p, PLUS, crec2)
    ft2 = sum(
        record_weight(m.rep, PLUS,
                      MeasurementRecord(((0.2, j), (0.6, k)), horizon))[1]
        for j in p.sets[0].indices for k in p.sets[1].indices)
    assert abs(cd2 - ft2) < 1e-12


def test_coarse_conditional_state_pure():
    m = models.twoqubit_ii()
    p = build_sjeds(m.rep)
    crec = MeasurementRecord(((0.5, 0),), 1.0, "coarse")
    psi0 = pure_state(np.array([0.0, 1.0, 0.0, 0.0]))
    phi, density = coarse_record_weight(m.rep, p, psi0, crec)
    w = np.linalg.eigvalsh(phi / density)
    assert w[-1] > 1 - 1e-10


def test_transform_record():
    rec = MeasurementRecord(((0.3, 0), (0.7, 1)), 1.0)
    swapped = transform_record(rec, (1, 0))
    assert swapped.events == ((0.3, 1), (0.7, 0))
    assert transform_record(swapped, (1, 0)).events == rec.events
    assert transform_record(rec, (0, 1)).events == rec.events
    with pytest.raises(SizeMismatch):
        transform_record(rec, (0,))


# ---------------------------------------------------------------- sampling

def test_no_jump_trajectory_is_unitary():
    rep = Representation(0.9 * SZ, ())
    traj = sample_trajectory(rep, PLUS, 1.0, seed=3, checkpoint_times=(1.0,))
    assert traj.record.events == ()
    u = matrix_exponential(-1j * 1.0 * rep.hamiltonian)
    expected = u @ PLUS @ dag(u)
    assert frob(traj.checkpoints[-1][1] - expected) < 1e-10


def test_sampler_reproducible():
    rep = models.qubit_weak().rep
    a = sample_ensemble(rep, PLUS, 1.0, 50, seed=5, checkpoint_times=(1.0,))
    b = sample_ensemble(rep, PLUS, 1.0, 50, seed=5, checkpoint_times=(1.0,))
    assert a.records == b.records
    assert np.array_equal(a.states[1.0], b.states[1.0])


def test_single_trajectory_matches_ensemble_slot():
    rep = models.qubit_weak().rep
    ens = sample_ensemble(rep, PLUS, 1.0, 4, seed=9, checkpoint_times=(1.0,))
    for i in range(4):
        traj = sample_trajectory(rep, PLUS, 1.0, seed=9, trajectory_index=i,
                                 checkpoint_times=(1.0,))
        assert [tuple(e) for e in traj.record.events] == \
            [tuple(e) for e in ens.records[i]]


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


PINNED = json.loads((Path(__file__).parent / "data" / "sampler_records.json").read_text())


def _pinned_case(name):
    if name == "qubit-I":
        return models.qubit_i().rep, pure_state([1, 1]), 2.0
    chain = models.qutrit_chain(
        3, thetas=np.random.default_rng(7).uniform(0.0, 2 * np.pi, 3))
    return chain.rep, pure_state(np.ones(27)), 1.0


@pytest.mark.parametrize("name", ["qubit-I", "qutrit-chain-3"])
def test_sampler_records_pinned(name):
    # recorded by the sampler that re-expanded the Taylor series at every
    # bisection step: reading a per-batch table must keep every label and
    # every event time to the bisection tolerance
    rep, psi0, horizon = _pinned_case(name)
    ens = sample_ensemble(rep, psi0, horizon, 200, seed=3)
    want = PINNED[name]
    assert [[label for _, label in rec] for rec in ens.records] == \
        [[label for _, label in rec] for rec in want]
    got_t = np.array([t for rec in ens.records for t, _ in rec])
    want_t = np.array([t for rec in want for t, _ in rec])
    assert np.all(np.abs(got_t - want_t) <= TIME_TOL_FACTOR * horizon)


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
    moments = _MomentPropagator(heff)
    batch, _ = _crossing_times(moments, moments.table(phis), thresholds, offsets,
                               ends, dt, 1e-9)
    for i in range(7):
        one = slice(i, i + 1)
        alone, _ = _crossing_times(moments, moments.table(phis[one]), thresholds[one],
                                   offsets[one], ends[one], dt, 1e-9)
        assert alone[0] == batch[i]


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
    # a start norm n0 that puts the secant start at r + a / k
    frac = (r + a / k) / dt
    n0 = (thr - frac * end) / (1.0 - frac)
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
    ens = sample_ensemble(models.qubit_iii().rep, PLUS, 1.0, 2000, seed=1)
    stats = ens.stats
    assert stats["grid_steps"] == 20
    assert stats["jumps"] == sum(len(rec) for rec in ens.records)
    assert stats["crossing_batches"] > 0
    # bisection to the time tolerance took 26 trials per batch
    assert stats["trials"] <= 6 * stats["crossing_batches"]


def test_sampler_draws_every_stream_in_one_philox_evaluation():
    n = 2000
    ens = sample_ensemble(models.qubit_iii().rep, PLUS, 1.0, n, seed=1)
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
    # block boundaries and run past the first fill, so rows are refilled
    streams = _Streams(seed, first_index, 3, 2)
    want = [_numpy_stream(seed, first_index + i) for i in range(3)]
    for step, k in enumerate(sizes):
        rows = np.array([0, 2]) if step % 2 else np.arange(3)
        got = streams.take(rows, k)
        for row, i in zip(got, rows):
            assert np.array_equal(row, want[i].random(k))
    assert streams.calls > 1 or sum(sizes) <= 8
    assert np.array_equal(_philox_uniforms(seed, np.full(3, first_index, dtype=np.uint64),
                                           np.arange(1, 4, dtype=np.uint64)).ravel(),
                          _numpy_stream(seed, first_index).random(12))


class _GeneratorStreams:
    """Stands in for _Streams with one numpy Philox Generator per row."""

    def __init__(self, seed, first_index, n, blocks):
        self.gens = [_numpy_stream(seed, first_index + i) for i in range(n)]
        self.used = np.zeros(n, dtype=int)
        self.calls = 0

    def take(self, rows, k):
        self.used[rows] += k
        return np.array([self.gens[i].random(k) for i in rows])


def test_sampler_rows_outrunning_first_fill_match_generator_streams(monkeypatch):
    # qubit-III jumps at rate 2: over T = 4 a 2-block fill (room for 3
    # jumps) is outrun by most rows, so many batches refill their rows
    import weaksym.trajectories as traj
    rep, n = models.qubit_iii().rep, 60
    monkeypatch.setattr(traj, "_FILL_CAP", 2 * n)
    got = sample_ensemble(rep, PLUS, 4.0, n, seed=-7, first_index=5,
                          checkpoint_times=(4.0,))
    assert got.stats["philox_calls"] > 5
    assert got.stats["draws"] == n + 2 * got.stats["jumps"]
    monkeypatch.setattr(traj, "_Streams", _GeneratorStreams)
    want = sample_ensemble(rep, PLUS, 4.0, n, seed=-7, first_index=5,
                           checkpoint_times=(4.0,))
    assert got.records == want.records
    assert np.array_equal(got.states[4.0], want.states[4.0])


def test_count_vectors_tally_event_labels():
    rep = models.twoqubit_iii().rep
    ens = sample_ensemble(rep, pure_state(np.ones(4)), 1.0, 300, seed=2)
    full = ens.count_vectors(rep.njumps)
    coarse = ens.coarse_count_vectors(build_sjeds(rep).nsets)
    for rec, row, crow in zip(ens.records, full, coarse):
        assert row.tolist() == [sum(j == k for _, j in rec) for k in range(len(row))]
        assert crow.tolist() == [sum(ens.coarse_labels[j] == k for _, j in rec)
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
    ens = sample_ensemble(dephasing(gamma), PLUS, horizon, n, seed=11)
    counts = np.array([len(r) for r in ens.records])
    mean = counts.mean()
    sigma = np.sqrt(gamma * horizon / n)
    assert abs(mean - gamma * horizon) < 3 * sigma
    var = counts.var()
    assert abs(var - gamma * horizon) < 5 * np.sqrt(2.0 / n)


def test_purity_along_trajectories():
    rep = models.qubit_ii().rep
    ens = sample_ensemble(rep, PLUS, 1.0, 200, seed=2,
                          checkpoint_times=(0.5, 1.0))
    for t, vecs in ens.states.items():
        norms = np.linalg.norm(vecs, axis=1)
        assert np.all(np.abs(norms - 1.0) < 1e-8)


def test_checkpoints_reproduce_record_weights():
    rep = models.qubit_ii().rep
    times = (0.25, 0.5, 0.75, 1.0)
    ens = sample_ensemble(rep, PLUS, 1.0, 20, seed=21, checkpoint_times=times)
    for i in range(20):
        for t in times:
            events = tuple((tt, j) for tt, j in ens.records[i] if tt < t)
            phi, density = record_weight(rep, PLUS,
                                         MeasurementRecord(events, t))
            v = ens.states[t][i]
            assert frob(phi / density - np.outer(v, v.conj())) < 1e-6


def test_ensemble_average_t0():
    rep = models.qubit_weak().rep
    ens = sample_ensemble(rep, PLUS, 0.5, 10, seed=1, checkpoint_times=(0.0,))
    mean, _ = ensemble_average(ens, 0.0)
    assert frob(mean - PLUS) < 1e-12


def test_ensemble_average_matches_master_evolution():
    rep = models.qubit_weak().rep
    n = 20000
    times = (0.5, 1.0, 2.0)
    ens = sample_ensemble(rep, PLUS, 2.0, n, seed=42, checkpoint_times=times)
    for t in times:
        mean, err = ensemble_average(ens, t)
        exact = evolve_density(rep, PLUS, t)
        assert np.all(np.abs(mean - exact) <= 3 * err + 1e-12)


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
    ens_a = sample_ensemble(m.rep, PLUS, horizon, n, seed=31)
    ens_b = sample_ensemble(rep_t, sym.conjugate(PLUS), horizon, n, seed=32)
    from weaksym.trajectories import _histogram
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
