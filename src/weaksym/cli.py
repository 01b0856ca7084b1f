"""Command-line front end.

Subcommands:

* ``examples``     list or materialize the built-in models
* ``check``        SJED partition, condition checks, certificates, block masses
* ``simulate``     trajectory ensembles, symmetry hypothesis tests, exports
* ``verify-joint`` joint-step symmetry residual table
* ``report``       everything above in one JSON document

Exit codes: 0 when all requested checks are consistent with the model's
expectations (if any), 1 on a mismatch, 2 on usage or parse errors.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__, models
from .lindblad import evolve_density, liouville_matrix, pure_state
from .linalg import DEFAULT_TOL, LinalgError
from .modelfile import ParseError, dump_model, load_model, model_to_doc
from .sjed import build_sjeds, partition_from_groups
from .symmetry import (
    CompletionFailed,
    SymmetryOperator,
    blockwise_unitary_completion,
    build_symmetry_report,
    off_block_mass,
    permutation_unitary,
)
from . import dilation, trajectories

MAX_SUPEROP_DIM = 12       # build d^2 x d^2 matrices only below this
MAX_JOINT_DIM = 32         # joint steps need (d (1+jumps))^2-sized matrices


def _matrix_json(m):
    if m is None:
        return None
    return [[[float(c.real), float(c.imag)] for c in row]
            for row in np.asarray(m, dtype=complex)]


def _perm_json(pi):
    return None if pi is None else [int(p) for p in pi]


def _load(path_or_name) -> models.Model:
    if os.path.exists(path_or_name):
        return load_model(path_or_name)
    if path_or_name in models.BUILDERS:
        return models.get_model(path_or_name)
    raise ParseError(f"no such file or built-in model: {path_or_name!r}")


def _partition(model):
    if model.sjed_groups is None:
        return build_sjeds(model.rep)
    try:
        return partition_from_groups(model.rep, model.sjed_groups)
    except ValueError as exc:
        raise ParseError(f"sjeds: {exc}") from exc


def _selected_symmetries(model, name, tol):
    """Symmetry operators of the model by name, or only the one named."""
    if name is not None and name not in model.symmetries:
        raise ParseError(f"model has no symmetry named {name!r}; "
                         f"known: {sorted(model.symmetries)}")
    out = {}
    for key in (model.symmetries if name is None else [name]):
        try:
            out[key] = SymmetryOperator.from_matrix(model.symmetries[key], tol)
        except LinalgError as exc:
            raise ParseError(f"symmetry {key!r}: {exc}") from exc
    return out


def _sjed_summary(partition):
    out = []
    for s in partition.sets:
        entry = {"indices": [int(i) for i in s.indices], "kind": s.kind}
        if s.kind == "reset":
            entry["destination"] = [[float(c.real), float(c.imag)]
                                    for c in s.destination]
        out.append(entry)
    return out


def run_check(model, sym_name=None, tol=DEFAULT_TOL):
    partition = _partition(model)
    result = {
        "model": model.name,
        "sjeds": _sjed_summary(partition),
        "symmetries": {},
    }
    ok = True
    for name, sym in _selected_symmetries(model, sym_name, tol).items():
        report = build_symmetry_report(model.rep, sym, tol, partition)
        entry = {
            "order": report.symmetry_order,
            "condition_I": bool(report.condition_I.holds),
            "condition_II": bool(report.condition_II.holds),
            "condition_III": bool(report.condition_III.holds),
            "hierarchy_consistent": bool(report.consistent),
            "mixing_matrix": _matrix_json(report.condition_I.mixing),
            "unitary_matrix": _matrix_json(report.condition_I.unitary),
            "pi_c": _perm_json(report.condition_II.permutation),
            "pi": _perm_json(report.condition_III.permutation),
            "phases": None if report.condition_III.phases is None
            else [float(p) for p in report.condition_III.phases],
            "residuals": {
                "condition_I_hamiltonian": report.condition_I.hamiltonian_residual,
                "condition_I_mixing": report.condition_I.mixing_residual,
                "condition_II": report.condition_II.residual,
            },
        }
        if report.condition_II.holds:
            try:
                u54 = blockwise_unitary_completion(
                    model.rep, sym, partition, report.condition_II.permutation, tol)
                entry["sjed_block_unitary"] = _matrix_json(u54)
            except CompletionFailed as exc:
                entry["sjed_block_unitary"] = None
                entry["sjed_block_unitary_error"] = str(exc)
        if model.rep.dim <= MAX_SUPEROP_DIM:
            entry["off_block_mass"] = off_block_mass(
                liouville_matrix(model.rep), sym)
        if name in model.expect:
            expected = tuple(model.expect[name])
            got = report.verdicts()
            entry["expected"] = list(expected)
            entry["matches_expectation"] = got == expected
            ok = ok and got == expected
        result["symmetries"][name] = entry
    return result, ok


def run_verify_joint(model, sym_name=None, tol=DEFAULT_TOL):
    joint_dim = model.rep.dim * (model.rep.njumps + 1)
    if joint_dim > MAX_JOINT_DIM:
        raise ParseError(
            f"joint dimension {joint_dim} exceeds the desk-scale cap "
            f"{MAX_JOINT_DIM}; joint verification is meant for small models")
    partition = _partition(model)
    rep = model.rep
    steps = {
        "rotating_frame": dilation.rotating_frame_step(rep),
        "dephased": dilation.dephased_generator_step(rep),
        "partial": dilation.partially_dephased_generator_step(rep, partition),
        "coarse": dilation.coarse_grained_generator_step(rep, partition),
    }
    result = {"model": model.name, "symmetries": {}}
    for name, sym in _selected_symmetries(model, sym_name, tol).items():
        report = build_symmetry_report(rep, sym, tol, partition)
        entry = {"residuals": {}, "scan_minima": {}}
        c1, c2, c3 = (report.condition_I, report.condition_II,
                      report.condition_III)
        if c3.holds:
            u_rec = permutation_unitary(c3.permutation, c3.phases)
            ue = dilation.environment_symmetry(u_rec)
            entry["residuals"]["dephased"] = dilation.joint_symmetry_residual(
                steps["dephased"], sym.matrix, ue)
        else:
            entry["scan_minima"]["dephased"] = dilation.minimum_symmetry_residual(
                steps["dephased"], sym.matrix, partition)
        if c2.holds:
            u54 = blockwise_unitary_completion(rep, sym, partition,
                                               c2.permutation, tol)
            ue = dilation.environment_symmetry(u54)
            entry["residuals"]["partial"] = dilation.joint_symmetry_residual(
                steps["partial"], sym.matrix, ue)
            uc = dilation.environment_symmetry(
                permutation_unitary(c2.permutation))
            entry["residuals"]["coarse"] = dilation.joint_symmetry_residual(
                steps["coarse"], sym.matrix, uc)
            entry["residuals"]["rotating_frame"] = dilation.joint_symmetry_residual(
                steps["rotating_frame"], sym.matrix,
                dilation.environment_symmetry(u54))
        else:
            for kind in ("partial", "coarse"):
                entry["scan_minima"][kind] = dilation.minimum_symmetry_residual(
                    steps[kind], sym.matrix, partition)
        if c1.holds and "rotating_frame" not in entry["residuals"]:
            ue = dilation.environment_symmetry(c1.unitary)
            entry["residuals"]["rotating_frame"] = dilation.joint_symmetry_residual(
                steps["rotating_frame"], sym.matrix, ue)
        entry["conditions"] = list(report.verdicts())
        result["symmetries"][name] = entry
    return result


def _sample_chunks(rep, psi0, horizon, n, seed, checkpoints, partition, threads):
    if threads <= 1 or n < 2 * threads:
        return trajectories.sample_ensemble(
            rep, psi0, horizon, n, seed=seed, checkpoint_times=checkpoints,
            partition=partition)
    from concurrent.futures import ProcessPoolExecutor

    bounds = np.linspace(0, n, threads + 1).astype(int)
    jobs = [(rep, psi0, horizon, int(b - a), seed, checkpoints, partition, int(a))
            for a, b in zip(bounds[:-1], bounds[1:]) if b > a]
    with ProcessPoolExecutor(max_workers=threads) as pool:
        parts = list(pool.map(_sample_chunk, jobs))
    records = [r for part in parts for r in part.records]
    states = {}
    for t in parts[0].states:
        states[t] = np.vstack([part.states[t] for part in parts])
    return trajectories.TrajectoryEnsemble(
        records=records, states=states, horizon=horizon, seed=seed,
        rep_fingerprint=rep.fingerprint(),
        coarse_labels=parts[0].coarse_labels)


def _sample_chunk(args):
    rep, psi0, horizon, n, seed, checkpoints, partition, first = args
    return trajectories.sample_ensemble(
        rep, psi0, horizon, n, seed=seed, checkpoint_times=checkpoints,
        partition=partition, first_index=first)


def run_simulate(model, sym_name, level, n, horizon, seed, alpha, out_dir,
                 threads=1, tol=DEFAULT_TOL):
    partition = _partition(model)
    rep = model.rep
    psi0 = pure_state(np.ones(rep.dim))
    result = {
        "model": model.name,
        "level": level,
        "n": n,
        "horizon": horizon,
        "seed": seed,
        "alpha": alpha,
        "tests": {},
    }
    for name, sym in _selected_symmetries(model, sym_name, tol).items():
        report = build_symmetry_report(rep, sym, tol, partition)
        if level == "full":
            perm = report.condition_III.permutation if report.condition_III.holds \
                else tuple(range(rep.njumps))
        elif level == "coarse":
            perm = report.condition_II.permutation if report.condition_II.holds \
                else tuple(range(partition.nsets))
        else:
            perm = None
        pval, passed = trajectories.ensemble_symmetry_test(
            rep, sym, level, psi0, horizon, n, seed=seed, alpha_sig=alpha,
            permutation=perm, partition=partition)
        result["tests"][name] = {
            "p_value": pval,
            "passed": bool(passed),
            "permutation": _perm_json(perm),
        }
    ens = _sample_chunks(rep, psi0, horizon, n, seed, (horizon,), partition,
                         threads)
    mean, err = trajectories.ensemble_average(ens, horizon)
    result["ensemble_average"] = {
        "time": horizon,
        "mean": _matrix_json(mean),
        "stderr": _matrix_json(err),
    }
    if rep.dim <= MAX_SUPEROP_DIM:
        exact = evolve_density(rep, psi0, horizon)
        result["ensemble_average"]["master_solution"] = _matrix_json(exact)
        result["ensemble_average"]["within_3_sigma"] = bool(
            np.all(np.abs(mean - exact) <= 3 * err + 1e-12))
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        trajectories.export_records(ens, os.path.join(out_dir, "ensemble.jsonl"))
        trajectories.export_count_histogram(
            ens, rep.njumps, os.path.join(out_dir, "counts.csv"))
        with open(os.path.join(out_dir, "summary.json"), "w") as fh:
            json.dump(result, fh, indent=2)
    return result


def _checked(kind, accept, what):
    """argparse type: kind(text), rejected with a usage error unless accepted."""
    def parse(text):
        value = kind(text)
        if not accept(value):
            raise argparse.ArgumentTypeError(f"{text!r} is not {what}")
        return value
    parse.__name__ = kind.__name__   # argparse names it in "invalid ... value"
    return parse


_COUNT = _checked(int, lambda v: v > 0, "a positive integer")
_TOL = _checked(float, lambda v: 0 < v < math.inf, "a finite positive number")
_TIME = _checked(float, lambda v: 0 <= v < math.inf, "a finite time >= 0")


def _param(text):
    """argparse type for --param KEY=VALUE: (key, finite float)."""
    key, sep, value = text.partition("=")
    try:
        number = float(value)
    except ValueError:
        number = math.nan
    if not sep or not math.isfinite(number):
        raise argparse.ArgumentTypeError(f"expected KEY=NUMBER, got {text!r}")
    return key, number


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """Usage errors lead with 'error:' like parse errors and exit 2."""
        self.exit(2, f"error: {message}\n{self.format_usage()}")


def _emit(doc, out=None):
    text = json.dumps(doc, indent=2)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def main(argv=None) -> int:
    parser = _Parser(
        prog="weaksym",
        description="decide and certify weak-symmetry levels of Markovian "
                    "open quantum dynamics")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_ex = sub.add_parser("examples", help="list or write built-in models")
    p_ex.add_argument("name", nargs="?", help="model name (omit to list)")
    p_ex.add_argument("--out", help="output file (default stdout)")
    p_ex.add_argument("--param", action="append", default=[], type=_param,
                      metavar="KEY=VALUE", help="override a model parameter")

    p_chk = sub.add_parser("check", help="run condition checks")
    p_chk.add_argument("model", help="model file or built-in name")
    p_chk.add_argument("--sym", help="restrict to one named symmetry")
    p_chk.add_argument("--tol", type=_TOL, default=DEFAULT_TOL)
    p_chk.add_argument("--out", help="write the report to a file")

    p_sim = sub.add_parser("simulate", help="trajectory ensembles and tests")
    p_sim.add_argument("model")
    p_sim.add_argument("--sym")
    p_sim.add_argument("--level", choices=("full", "coarse", "unlabelled"),
                       default="full")
    p_sim.add_argument("--n", type=_COUNT, default=20000)
    p_sim.add_argument("--horizon", type=_TIME, default=1.0)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--alpha", type=float, default=0.01)
    p_sim.add_argument("--out", help="directory for ensemble exports")
    p_sim.add_argument("--threads", type=int,
                       default=int(os.environ.get("WEAKSYM_THREADS", "1")))

    p_vj = sub.add_parser("verify-joint", help="joint-step residual table")
    p_vj.add_argument("model")
    p_vj.add_argument("--sym")
    p_vj.add_argument("--tol", type=_TOL, default=DEFAULT_TOL)
    p_vj.add_argument("--out")

    p_rep = sub.add_parser("report", help="combined report")
    p_rep.add_argument("model")
    p_rep.add_argument("--sym")
    p_rep.add_argument("--tol", type=_TOL, default=DEFAULT_TOL)
    p_rep.add_argument("--n", type=_COUNT, default=2000)
    p_rep.add_argument("--horizon", type=_TIME, default=1.0)
    p_rep.add_argument("--seed", type=int, default=0)
    p_rep.add_argument("--skip-simulation", action="store_true")
    p_rep.add_argument("--out")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:   # usage errors, --help and --version
        return exc.code
    try:
        return _dispatch(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    if args.command == "examples":
        if not args.name:
            for name in models.BUILDERS:
                print(name)
            return 0
        try:
            model = models.get_model(args.name, **dict(args.param))
        except KeyError as exc:
            raise ParseError(str(exc))
        except (TypeError, ValueError) as exc:
            raise ParseError(f"bad parameter for {args.name}: {exc}")
        if args.out:
            dump_model(model, args.out)
        else:
            print(json.dumps(model_to_doc(model), indent=2))
        return 0

    model = _load(args.model)

    if args.command == "check":
        result, ok = run_check(model, args.sym, args.tol)
        _emit(result, args.out)
        return 0 if ok else 1

    if args.command == "simulate":
        result = run_simulate(model, args.sym, args.level, args.n,
                              args.horizon, args.seed, args.alpha, args.out,
                              args.threads)
        if not args.out:
            _emit(result)
        return 0

    if args.command == "verify-joint":
        result = run_verify_joint(model, args.sym, args.tol)
        _emit(result, args.out)
        return 0

    if args.command == "report":
        t0 = time.time()
        check, ok = run_check(model, args.sym, args.tol)
        doc = {
            "tool": "weaksym",
            "version": __version__,
            "model": model_to_doc(model),
            "seed": args.seed,
            "check": check,
        }
        joint_dim = model.rep.dim * (model.rep.njumps + 1)
        if joint_dim <= MAX_JOINT_DIM:
            doc["joint"] = run_verify_joint(model, args.sym, args.tol)
        if not args.skip_simulation:
            doc["trajectories"] = run_simulate(
                model, args.sym, "unlabelled", args.n, args.horizon,
                args.seed, 0.01, None)
        doc["elapsed_seconds"] = time.time() - t0
        _emit(doc, args.out)
        return 0 if ok else 1

    raise ParseError(f"unknown command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
