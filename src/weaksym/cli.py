"""Command-line front end.

Subcommands:

* ``examples``     list or materialize the built-in models
* ``check``        SJED partition, condition checks, certificates, block masses
* ``simulate``     trajectory ensembles, symmetry hypothesis tests, exports
* ``verify-joint`` joint-step symmetry residual table
* ``report``       everything above in one JSON document

Exit codes: 0 when all requested checks are consistent with the model's
expectations (if any), 1 on a mismatch, 2 on usage or parse errors, on
a model file or an --out path that cannot be read or written, and on a
model too stiff to sample.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__, models
from .lindblad import evolve_density, liouville_matrix, pure_state
from .linalg import DEFAULT_TOL, LinalgError
from .modelfile import ParseError, _matrix_doc, dump_model, load_model, model_to_doc
from .sjed import SjedPartition, build_sjeds, partition_from_groups
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


def _perm_json(pi):
    return None if pi is None else [int(p) for p in pi]


def _load(path_or_name) -> models.Model:
    if os.path.exists(path_or_name):
        return load_model(path_or_name)
    if path_or_name in models.BUILDERS:
        return models.get_model(path_or_name)
    raise ParseError(f"no such file or built-in model: {path_or_name!r}")


@dataclass(frozen=True)
class Analysis:
    """What a command derives from a model, built once and passed down."""

    model: models.Model
    tol: float
    partition: SjedPartition
    symmetries: dict      # name -> (SymmetryOperator, SymmetryReport)
    # name -> SJED block certificate or its CompletionFailed, on first use
    completions: dict = field(default_factory=dict)


def analyze(model, sym_name=None, tol=DEFAULT_TOL) -> Analysis:
    """Partition, operators and reports for all symmetries or the one named."""
    if sym_name is not None and sym_name not in model.symmetries:
        raise ParseError(f"model has no symmetry named {sym_name!r}; "
                         f"known: {sorted(model.symmetries)}")
    if model.sjed_groups is None:
        partition = build_sjeds(model.rep, tol)
    else:
        try:
            partition = partition_from_groups(model.rep, model.sjed_groups, tol)
        except ValueError as exc:
            raise ParseError(f"sjeds: {exc}") from exc
    symmetries = {}
    for name in (model.symmetries if sym_name is None else [sym_name]):
        try:
            sym = SymmetryOperator.from_matrix(model.symmetries[name], tol)
        except LinalgError as exc:
            raise ParseError(f"symmetry {name!r}: {exc}") from exc
        symmetries[name] = sym, build_symmetry_report(model.rep, sym, tol,
                                                      partition)
    return Analysis(model, tol, partition, symmetries)


def _block_unitary(analysis, name):
    """A condition-II symmetry's SJED block certificate, or the
    CompletionFailed that stopped it, built once per command."""
    if name not in analysis.completions:
        sym, report = analysis.symmetries[name]
        try:
            analysis.completions[name] = blockwise_unitary_completion(
                analysis.model.rep, sym, analysis.partition,
                report.condition_II.permutation)
        except CompletionFailed as exc:
            analysis.completions[name] = exc
    return analysis.completions[name]


def _sjed_summary(partition):
    out = []
    for s in partition.sets:
        entry = {"indices": [int(i) for i in s.indices], "kind": s.kind}
        if s.kind == "reset":
            entry["destination"] = _matrix_doc(s.destination)
        out.append(entry)
    return out


def run_check(analysis):
    model, partition = analysis.model, analysis.partition
    result = {
        "model": model.name,
        "sjeds": _sjed_summary(partition),
        "symmetries": {},
    }
    ok = True
    for name, (sym, report) in analysis.symmetries.items():
        entry = {
            "order": report.symmetry_order,
            "condition_I": bool(report.condition_I.holds),
            "condition_II": bool(report.condition_II.holds),
            "condition_III": bool(report.condition_III.holds),
            "hierarchy_consistent": bool(report.consistent),
            "mixing_matrix": _matrix_doc(report.condition_I.mixing),
            "unitary_matrix": _matrix_doc(report.condition_I.unitary),
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
            u54 = _block_unitary(analysis, name)
            if isinstance(u54, CompletionFailed):
                entry["sjed_block_unitary"] = None
                entry["sjed_block_unitary_error"] = str(u54)
            else:
                entry["sjed_block_unitary"] = _matrix_doc(u54)
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


def run_verify_joint(analysis):
    model, partition = analysis.model, analysis.partition
    rep = model.rep
    steps = {
        "rotating_frame": dilation.rotating_frame_step(rep),
        "dephased": dilation.dephased_generator_step(rep),
        "partial": dilation.partially_dephased_generator_step(rep, partition),
        "coarse": dilation.coarse_grained_generator_step(rep, partition),
    }
    result = {"model": model.name, "symmetries": {}}
    for name, (sym, report) in analysis.symmetries.items():
        c1, c2, c3 = (report.condition_I, report.condition_II,
                      report.condition_III)
        images = sym.images(rep)
        certificates = {}     # step kind -> certified environment unitary
        if c3.holds:
            certificates["dephased"] = permutation_unitary(c3.permutation, c3.phases)
        if c2.holds:
            coarse = permutation_unitary(c2.permutation)
            u54 = _block_unitary(analysis, name)
            if isinstance(u54, CompletionFailed):
                certificates["coarse"] = coarse
            else:
                certificates.update(partial=u54, coarse=coarse, rotating_frame=u54)
        if c1.holds:
            certificates.setdefault("rotating_frame", c1.unitary)
        result["symmetries"][name] = {
            "residuals": {kind: dilation.joint_symmetry_residual(steps[kind], images, u)
                          for kind, u in certificates.items()},
            "scan_minima": {kind: dilation.minimum_symmetry_residual(
                steps[kind], images, partition)
                for kind in ("dephased", "partial", "coarse")
                if kind not in certificates},
            "conditions": list(report.verdicts()),
        }
    return result


@contextlib.contextmanager
def _sampler(rep, horizon, n, partition, threads):
    """Yield sample(psi0, seed): the ensemble of n trajectories to horizon.

    With threads > 1 (at most one per CPU, and at least 2 trajectories
    each) one process pool, shared by every ensemble of the command, samples
    contiguous chunks of trajectory indices; the joined ensemble equals the
    serial one."""
    threads = min(threads, os.cpu_count() or 1)
    if threads <= 1 or n < 2 * threads:
        yield lambda psi0, seed: trajectories.sample_ensemble(
            rep, psi0, horizon, n, seed=seed, checkpoint_times=(horizon,),
            partition=partition)
        return
    from concurrent.futures import ProcessPoolExecutor

    bounds = np.linspace(0, n, threads + 1).astype(int)

    def sample(psi0, seed):
        # the positional arguments of sample_ensemble, one tuple per chunk
        jobs = [(rep, psi0, horizon, int(b - a), seed, (horizon,), partition, int(a))
                for a, b in zip(bounds[:-1], bounds[1:])]
        parts = list(pool.map(trajectories.sample_ensemble, *zip(*jobs)))
        return trajectories.TrajectoryEnsemble(
            records=[r for part in parts for r in part.records],
            states={t: np.vstack([part.states[t] for part in parts])
                    for t in parts[0].states},
            horizon=horizon, seed=seed, rep_fingerprint=rep.fingerprint(),
            coarse_labels=parts[0].coarse_labels,
            stats={k: sum(part.stats[k] for part in parts) for k in parts[0].stats})

    with ProcessPoolExecutor(max_workers=threads) as pool:
        yield sample


def run_simulate(analysis, level, n, horizon, seed, alpha, out_dir, threads=1):
    model, partition = analysis.model, analysis.partition
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
    # A (psi0, seed) serves the average and every test; B is U psi0 U†, seed + 1
    with _sampler(rep, horizon, n, partition, threads) as sample:
        ens = sample(psi0, seed)
        for name, (sym, report) in analysis.symmetries.items():
            if level == "full":
                perm = report.condition_III.permutation if report.condition_III.holds \
                    else tuple(range(rep.njumps))
            elif level == "coarse":
                perm = report.condition_II.permutation if report.condition_II.holds \
                    else tuple(range(partition.nsets))
            else:
                perm = None
            ens_b = sample(sym.conjugate(psi0), seed + 1)
            pval, passed = trajectories.ensemble_symmetry_test(
                rep, sym, level, ens, ens_b, alpha_sig=alpha, permutation=perm,
                partition=partition)
            result["tests"][name] = {
                "p_value": pval,
                "passed": bool(passed),
                "permutation": _perm_json(perm),
            }
    mean, err = trajectories.ensemble_average(ens, horizon)
    result["ensemble_average"] = {
        "time": horizon,
        "mean": _matrix_doc(mean),
        "stderr": _matrix_doc(err),
    }
    if rep.dim <= MAX_SUPEROP_DIM:
        exact = evolve_density(rep, psi0, horizon)
        result["ensemble_average"]["master_solution"] = _matrix_doc(exact)
        result["ensemble_average"]["within_3_sigma"] = bool(
            np.all(np.abs(mean - exact) <= 3 * err + 1e-12))
    if out_dir:
        with _writing(out_dir):
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
_ALPHA = _checked(float, lambda v: 0 < v < 1, "a significance level in (0, 1)")


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


@contextlib.contextmanager
def _writing(path):
    """An OSError while writing an --out path becomes a ParseError (exit 2)."""
    try:
        yield
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _emit(doc, out=None):
    text = json.dumps(doc, indent=2)
    if out:
        with _writing(out), open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The argument tree, built on the first call and reused by later ones."""
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
    p_sim.add_argument("--alpha", type=_ALPHA, default=0.01)
    p_sim.add_argument("--out", help="directory for ensemble exports")
    p_sim.add_argument("--threads", type=_COUNT,
                       help="worker processes (default: WEAKSYM_THREADS or 1)")
    p_sim.set_defaults(tol=DEFAULT_TOL)

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
    p_rep.set_defaults(threads=None)
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:   # usage errors, --help and --version
        return exc.code
    try:
        return _dispatch(args)
    except (ParseError, trajectories.StiffnessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _threads(args) -> int:
    """--threads, else WEAKSYM_THREADS as it is when the command runs, else 1."""
    if args.threads is not None:
        return args.threads
    text = os.environ.get("WEAKSYM_THREADS", "1")
    try:
        return _COUNT(text)
    except (ValueError, argparse.ArgumentTypeError):
        raise ParseError(
            f"WEAKSYM_THREADS: {text!r} is not a positive integer") from None


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
            with _writing(args.out):
                dump_model(model, args.out)
        else:
            print(json.dumps(model_to_doc(model), indent=2))
        return 0

    model = _load(args.model)
    t0 = time.time()
    analysis = analyze(model, args.sym, args.tol)

    if args.command == "check":
        result, ok = run_check(analysis)
        _emit(result, args.out)
        return 0 if ok else 1

    if args.command == "simulate":
        result = run_simulate(analysis, args.level, args.n, args.horizon,
                              args.seed, args.alpha, args.out, _threads(args))
        if not args.out:
            _emit(result)
        return 0

    if args.command == "verify-joint":
        result = run_verify_joint(analysis)
        _emit(result, args.out)
        return 0

    if args.command == "report":
        check, ok = run_check(analysis)
        doc = {
            "tool": "weaksym",
            "version": __version__,
            "model": model_to_doc(model),
            "seed": args.seed,
            "check": check,
            "joint": run_verify_joint(analysis),
        }
        if not args.skip_simulation:
            doc["trajectories"] = run_simulate(
                analysis, "unlabelled", args.n, args.horizon, args.seed, 0.01,
                None, _threads(args))
        doc["elapsed_seconds"] = time.time() - t0
        _emit(doc, args.out)
        return 0 if ok else 1

    raise ParseError(f"unknown command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
