"""Acceptance suite.

Each test implements one numbered acceptance criterion at its stated
tolerance and prints a single PASS/FAIL line; run with ``pytest -s``
to see the lines as they complete.
"""

import time

import numpy as np
import pytest

from weaksym import models
from weaksym.lindblad import (
    Representation,
    apply_master_operator,
    change_superoperator_basis,
    evolve_density,
    liouville_matrix,
    pure_state,
    representations_equal,
)
from weaksym.linalg import dag, frob
from weaksym.sjed import build_sjeds, composite_choi, partition_from_groups
from weaksym.symmetry import (
    SymmetryOperator,
    blockwise_unitary_completion,
    build_symmetry_report,
    check_condition_II,
    check_condition_III,
    check_linear_eigenfunction,
    fourier_symmetrize,
    monomial_eigenfunctions,
    monomial_eigenvalue,
    off_block_mass,
    wave_operators,
)
from weaksym import dilation
from weaksym.trajectories import (
    ensemble_average,
    ensemble_symmetry_test,
)

from conftest import evaluate_monomial, sample_one, symmetry_ensembles

SZ = np.array([[1, 0], [0, -1]], dtype=complex)
PLUS = pure_state([1, 1])


def _report(num, ok, detail):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num}: {detail}"


def _verdicts(model, sym_name=None):
    if sym_name is None:
        sym_name = next(iter(model.symmetries))
    sym = SymmetryOperator.from_matrix(model.symmetries[sym_name])
    part = partition_from_groups(model.rep, model.sjed_groups) \
        if model.sjed_groups is not None else build_sjeds(model.rep)
    return sym, part, build_symmetry_report(model.rep, sym, partition=part)


def test_criterion_1_single_qubit_verdict_matrix():
    t0 = time.monotonic()
    expected = {
        "qubit-weak": ((True, True, True), (0, 1), (0, 1)),
        "qubit-III": ((True, True, True), (1, 0), (1, 0)),
        "qubit-II": ((True, True, False), None, (1, 0)),
        "qubit-I": ((True, False, False), None, None),
        "qubit-nonunique": ((True, True, True), (2, 3, 0, 1), (1, 0)),
    }
    ok = True
    details = []
    for name, (verdicts, pi, pi_c) in expected.items():
        model = models.get_model(name)
        _, _, report = _verdicts(model)
        good = report.verdicts() == verdicts
        if pi is not None:
            good = good and report.condition_III.permutation == pi
        if pi_c is not None:
            good = good and report.condition_II.permutation == pi_c
        good = good and report.condition_I.hamiltonian_residual <= 1e-9
        good = good and report.condition_I.mixing_residual <= 1e-9
        if report.condition_II.holds:
            good = good and report.condition_II.residual <= 1e-9
        ok = ok and good
        if not good:
            details.append(name)
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 1.0
    _report(1, ok, f"single-qubit verdict matrix ({elapsed:.2f}s)"
            + (f" mismatches: {details}" if details else ""))


def test_criterion_2_two_qubit_verdict_matrix():
    t0 = time.monotonic()
    ok = True
    m = models.twoqubit_weak()
    _, _, rep = _verdicts(m)
    ok &= rep.verdicts() == (True, True, True)
    ok &= rep.condition_III.permutation == (0, 1, 2, 3)

    m = models.twoqubit_iii()
    _, _, rep = _verdicts(m)
    ok &= rep.verdicts() == (True, True, True)
    ok &= rep.condition_III.permutation == (1, 0, 3, 2)

    m = models.twoqubit_ii()
    _, part, rep = _verdicts(m)
    ok &= rep.verdicts() == (True, True, False)
    ok &= rep.condition_II.permutation == (1, 0)
    ok &= all(s.kind == "reset" for s in part.sets)

    m = models.twoqubit_i()
    _, _, rep = _verdicts(m)
    ok &= rep.verdicts() == (True, False, False)
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 5.0
    _report(2, bool(ok), f"two-qubit verdict matrix ({elapsed:.2f}s)")


def test_criterion_3_qutrit_chain():
    t0 = time.monotonic()
    model = models.qutrit_chain(length=4)
    part = partition_from_groups(model.rep, model.sjed_groups)

    sym_t = SymmetryOperator.from_matrix(model.symmetries["translation"])
    c2 = check_condition_II(model.rep, sym_t, partition=part)
    ok = c2.holds
    pi = c2.permutation
    seen = {0}
    a = pi[0]
    while a != 0 and len(seen) <= 4:
        seen.add(a)
        a = pi[a]
    ok = ok and len(seen) == 4  # a single 4-cycle
    ok = ok and not check_condition_III(model.rep, sym_t).holds

    sym_c = SymmetryOperator.from_matrix(model.symmetries["combined"])
    c3 = check_condition_III(model.rep, sym_c)
    ok = ok and c3.holds
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 10.0
    _report(3, bool(ok), f"qutrit chain translation/combined ({elapsed:.2f}s)")


def test_criterion_4_certificate_reproduction():
    m = models.qubit_ii()
    c1v, c2v = m.parameters["c1"], m.parameters["c2"]
    sym, part, report = _verdicts(m)
    u = blockwise_unitary_completion(m.rep, sym, part,
                                     report.condition_II.permutation)
    printed = np.sqrt(2) * np.array([
        [np.sqrt(2) * abs(c2v) ** 2, -np.sqrt(2) * c1v * np.conj(c2v), c1v],
        [-np.sqrt(2) * np.conj(c1v) * c2v, np.sqrt(2) * abs(c1v) ** 2, c2v],
        [np.conj(c1v), np.conj(c2v), 0],
    ])
    ok = frob(u - printed) <= 1e-9
    # certified action and SJED block-sum property
    for j in range(3):
        mix = sum(u[j, k] * m.rep.jumps[k] for k in range(3))
        ok = ok and frob(sym.conjugate(m.rep.jumps[j]) - mix) <= 1e-9
    for a, s in enumerate(part.sets):
        image = part.sets[report.condition_II.permutation[a]].indices
        for k in range(3):
            acc = sum(np.conj(u[j, k]) * sym.conjugate(m.rep.jumps[j])
                      for j in s.indices)
            target = m.rep.jumps[k] if k in image else 0 * m.rep.jumps[k]
            ok = ok and frob(acc - target) <= 1e-9

    # both published certificates of the four-jump example act correctly
    theta = np.pi / 6
    m4 = models.qubit_nonunique(theta=theta)
    sym4 = SymmetryOperator.from_matrix(m4.symmetries["parity"])
    u_swap = np.array([[0, 0, 1, 0], [0, 0, 0, 1],
                       [1, 0, 0, 0], [0, 1, 0, 0]], dtype=complex)
    c2t, s2t = np.cos(2 * theta), np.sin(2 * theta)
    u_rot = np.array([[0, 0, c2t, s2t], [0, 0, s2t, -c2t],
                      [1, 0, 0, 0], [0, 1, 0, 0]], dtype=complex)
    for cand in (u_swap, u_rot):
        ok = ok and frob(dag(cand) @ cand - np.eye(4)) <= 1e-9
        for j in range(4):
            mix = sum(cand[j, k] * m4.rep.jumps[k] for k in range(4))
            ok = ok and frob(sym4.conjugate(m4.rep.jumps[j]) - mix) <= 1e-9
    _report(4, bool(ok), "mixing-certificate reproduction")


def test_criterion_5_trajectory_master_consistency():
    t0 = time.monotonic()
    rep = models.qubit_weak().rep
    times = (0.5, 1.0, 2.0)
    ens = sample_one(rep, PLUS, 2.0, 20000, seed=2024, checkpoint_times=times)
    ok = True
    worst = 0.0
    for t in times:
        mean, err = ensemble_average(ens, t)
        exact = evolve_density(rep, PLUS, t)
        dev = np.abs(mean - exact) / (3 * err + 1e-15)
        worst = max(worst, float(np.max(dev)))
        ok = ok and np.all(np.abs(mean - exact) <= 3 * err + 1e-12)
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 60.0
    _report(5, bool(ok),
            f"ensemble mean within 3 bootstrap sigma (max {worst:.2f}, {elapsed:.1f}s)")


def test_criterion_6_statistical_hierarchy():
    t0 = time.monotonic()
    n, alpha = 50000, 0.01
    sym = SymmetryOperator.from_matrix(SZ)
    results = {}

    m3 = models.qubit_iii()
    pi = check_condition_III(m3.rep, sym).permutation
    a, b = symmetry_ensembles(m3.rep, sym, PLUS, 1.0, n, seed=101)
    p, passed = ensemble_symmetry_test(m3.rep, sym, "full", a, b,
                                       alpha_sig=alpha, permutation=pi)
    results["III/full"] = (p, passed)
    ok = passed

    m2 = models.qubit_ii(c1=0.5, c2=0.5)
    a, b = symmetry_ensembles(m2.rep, sym, PLUS, 1.0, n, seed=103)
    p, passed = ensemble_symmetry_test(m2.rep, sym, "full", a, b,
                                       alpha_sig=alpha, permutation="best")
    results["II/full"] = (p, passed)
    ok = ok and (not passed) and p < 1e-4
    a, b = symmetry_ensembles(m2.rep, sym, PLUS, 1.0, n, seed=105)
    p, passed = ensemble_symmetry_test(m2.rep, sym, "coarse", a, b,
                                       alpha_sig=alpha, permutation=(1, 0))
    results["II/coarse"] = (p, passed)
    ok = ok and passed
    a, b = symmetry_ensembles(m2.rep, sym, PLUS, 1.0, n, seed=107)
    p, passed = ensemble_symmetry_test(m2.rep, sym, "unlabelled", a, b,
                                       alpha_sig=alpha)
    results["II/unlabelled"] = (p, passed)
    ok = ok and passed

    m1 = models.qubit_i()
    a, b = symmetry_ensembles(m1.rep, sym, PLUS, 1.0, n, seed=109)
    p, passed = ensemble_symmetry_test(m1.rep, sym, "coarse", a, b,
                                       alpha_sig=alpha, permutation="best")
    results["I/coarse"] = (p, passed)
    ok = ok and not passed
    a, b = symmetry_ensembles(m1.rep, sym, PLUS, 1.0, n, seed=111)
    p, passed = ensemble_symmetry_test(m1.rep, sym, "unlabelled", a, b,
                                       alpha_sig=alpha)
    results["I/unlabelled"] = (p, passed)
    ok = ok and not passed

    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 300.0
    summary = ", ".join(f"{k}: p={v[0]:.2g}" for k, v in results.items())
    _report(6, bool(ok), f"statistical hierarchy ({elapsed:.0f}s; {summary})")


def test_criterion_7_dilation_residual_table():
    sym = SymmetryOperator.from_matrix(SZ)
    corpus = ["qubit-weak", "qubit-III", "qubit-II", "qubit-I",
              "qubit-nonunique"]
    ok = True
    for name in corpus:
        model = models.get_model(name)
        rep = model.rep
        part = build_sjeds(rep)
        report = build_symmetry_report(rep, sym, partition=part)
        c1, c2, c3 = report.verdicts()
        steps = {
            "rotating_frame": dilation.rotating_frame_step(rep),
            "dephased": dilation.dephased_generator_step(rep),
            "partial": dilation.partially_dephased_generator_step(rep, part),
            "coarse": dilation.coarse_grained_generator_step(rep, part),
        }
        certs = dilation.environment_certificates(report)

        assert c1  # the whole corpus shares a symmetric master operator
        # the record level certifies the dephased step, the trajectory level
        # the partial and coarse ones, and every level the rotating frame
        ok = ok and set(certs) == {"rotating_frame"} | ({"dephased"} if c3 else set()) \
            | ({"partial", "coarse"} if c2 else set())
        images = sym.images(rep)
        for kind, step in steps.items():
            if kind in certs:
                r = dilation.joint_symmetry_residual(step, images, certs[kind])
                ok = ok and r <= 1e-10
            else:
                r = dilation.minimum_symmetry_residual(step, images, part)
                ok = ok and r > 1e-3
    _report(7, bool(ok), "joint residual table matches the condition pattern")


def test_criterion_8_environment_trace_and_frame_slopes():
    dts = (1e-2, 3e-3, 1e-3, 3e-4, 1e-4)
    m = models.qubit_ii()
    part = build_sjeds(m.rep)
    steps = {
        "unitary": dilation.stochastic_hamiltonian_step(m.rep),
        "dephased": dilation.dephased_generator_step(m.rep),
        "partial": dilation.partially_dephased_generator_step(m.rep, part),
        "coarse": dilation.coarse_grained_generator_step(m.rep, part),
    }
    ok = True
    slopes = {}
    for name, step in steps.items():
        s = dilation.environment_trace_slope(step, m.rep, PLUS, dts)
        slopes[name] = s
        ok = ok and s >= 1.9
    traceful = Representation(
        0.4 * SZ, (np.array([[0.5, 0], [1.0, 0.5]], dtype=complex),))
    s_frame = dilation.rotating_frame_convergence(traceful, dts)
    ok = ok and 1.4 <= s_frame <= 1.6
    detail = ", ".join(f"{k}={v:.2f}" for k, v in slopes.items())
    _report(8, bool(ok), f"trace slopes {detail}; frame slope {s_frame:.2f}")


def test_criterion_9_block_structure_and_waves():
    ok = True
    # off-block mass of the master generator in the adapted basis
    corpus = [models.qubit_weak(), models.qubit_iii(), models.qubit_ii(),
              models.qubit_i(), models.qubit_nonunique(),
              models.twoqubit_weak(), models.twoqubit_iii(),
              models.twoqubit_ii(), models.twoqubit_i(),
              models.qutrit_chain(length=2, thetas=np.deg2rad([0.0, 30.0]))]
    for model in corpus:
        for name, u in model.symmetries.items():
            if name == "rotation":
                continue
            sym, part, report = _verdicts(model, name)
            if not report.condition_I.holds:
                continue
            mass = off_block_mass(liouville_matrix(model.rep), sym)
            ok = ok and mass <= 1e-12

    # wave operators: eigen-relation and inverse reconstruction
    for model in (models.qubit_ii(), models.twoqubit_ii(),
                  models.qutrit_chain(length=2, thetas=np.deg2rad([0.0, 30.0]))):
        sym, part, report = _verdicts(model, next(iter(model.symmetries)))
        pi_c = report.condition_II.permutation
        waves = wave_operators(part, pi_c)
        d_c = part.nsets
        for k, w in enumerate(waves):
            resid = frob(change_superoperator_basis(w, dag(sym.matrix))
                         - np.exp(2j * np.pi * k / d_c) * w)
            ok = ok and resid <= 1e-10 * max(1.0, frob(w))
        order = [0]
        while len(order) < d_c:
            order.append(pi_c[order[-1]])
        for j, a in enumerate(order):
            rec = sum(np.exp(2j * np.pi * kk * j / d_c) * waves[kk]
                      for kk in range(d_c)) / d_c
            ok = ok and frob(rec - composite_choi(part, a)) <= 1e-12 \
                * max(1.0, frob(rec))
    _report(9, bool(ok), "block support and wave-operator identities")


def test_criterion_10_fourier_symmetrization():
    ok = True
    for model, sym_name, n in ((models.qubit_iii(), "parity", 2),
                               (models.qutrit_chain(length=4), "combined", 4)):
        sym = SymmetryOperator.from_matrix(model.symmetries[sym_name])
        out = fourier_symmetrize(model.rep, sym)
        ok = ok and representations_equal(model.rep, out, 1e-9)
        for j in out.jumps:
            t = sym.conjugate(j)
            hit = any(frob(t - np.exp(2j * np.pi * l / n) * j)
                      <= 1e-10 * frob(j) for l in range(n))
            ok = ok and hit
    _report(10, bool(ok), "wave jumps are symmetry eigenoperators")


def test_criterion_11_eigenfunction_checks():
    gamma = 1.3
    rep = Representation(np.zeros((2, 2)), (np.sqrt(gamma) * SZ,))
    rng = np.random.default_rng(99)
    ok = True
    for f, lam_expected in ((np.eye(2, dtype=complex), 0.0),
                            (np.array([[0, 1], [0, 0]], dtype=complex),
                             -2 * gamma),
                            (np.diag([1.0, -1.0]).astype(complex), 0.0)):
        is_eigen, lam = check_linear_eigenfunction(rep, f)
        ok = ok and is_eigen and abs(lam - lam_expected) <= 1e-10
        for _ in range(20):
            v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            v /= np.linalg.norm(v)
            psi = np.outer(v, v.conj())
            lhs = np.trace(f @ apply_master_operator(rep, psi))
            rhs = lam * np.trace(f @ psi)
            ok = ok and abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lam))

    sym = SymmetryOperator.from_matrix(SZ)
    for order in (1, 2):
        for lam in (1.0, -1.0):
            for tup in monomial_eigenfunctions(sym, order, lam):
                ok = ok and abs(monomial_eigenvalue(sym, tup) - lam) <= 1e-10
                for _ in range(5):
                    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
                    v /= np.linalg.norm(v)
                    psi = np.outer(v, v.conj())
                    lhs = evaluate_monomial(sym, tup, sym.conjugate(psi))
                    rhs = lam * evaluate_monomial(sym, tup, psi)
                    ok = ok and abs(lhs - rhs) <= 1e-10
    _report(11, bool(ok), "linear and monomial eigenfunction identities")
