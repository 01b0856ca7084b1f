"""Command-line front end: it parses, dispatches to the library and
prints; the rules it applies live in the modules that own them.

Subcommands:

* ``examples``     list or materialize the built-in models
* ``check``        SJED partition, condition checks, certificates, block masses
* ``simulate``     trajectory ensembles, symmetry hypothesis tests, exports
* ``verify-joint`` joint-step symmetry residual table
* ``report``       everything above in one JSON document

Exit codes: 0 when all requested checks are consistent with the model's
expectations (if any), 1 on a mismatch, 2 on usage or parse errors, on
a model file or an --out path that cannot be read or written, on a
model too stiff to sample, and on a command that runs out of memory.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import operator
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import __version__, models
from .lindblad import MAX_SUPEROP_DIM, evolve_density, liouville_matrix, pure_state
from .linalg import DEFAULT_TOL, ROUNDING_FLOOR, LinalgError
from .modelfile import ParseError, _matrix_doc, dump_model, load_model, model_to_doc
from .sjed import SjedPartition, build_sjeds, partition_from_groups
from .symmetry import SymmetryOperator, build_symmetry_report, off_block_mass
from . import dilation, trajectories


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
    partition: SjedPartition
    symmetries: dict      # name -> (SymmetryOperator, SymmetryReport)


def analyze(model, sym_name=None, tol=DEFAULT_TOL) -> Analysis:
    """Partition, operators and reports for all symmetries or the one named.
    What a malformed input fails on (the SJED partition, pinned or built,
    and each SymmetryOperator) is formed here; each report decides a
    condition, and forms a certificate, only when a command reads it."""
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
    return Analysis(model, partition, symmetries)


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
    lam = liouville_matrix(model.rep) if model.rep.dim <= MAX_SUPEROP_DIM else None
    for name, (sym, report) in analysis.symmetries.items():
        entry = {
            "order": sym.order,
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
        c2 = report.condition_II
        if c2.holds:
            entry["sjed_block_unitary"] = _matrix_doc(c2.unitary)
            if c2.unitary is None:
                entry["sjed_block_unitary_error"] = c2.reason
        if lam is not None:
            entry["off_block_mass"] = off_block_mass(lam, sym)
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
        images = sym.images(rep)
        certificates = dilation.environment_certificates(report)
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


def _cpus() -> int:
    """The CPUs this process may run on: its affinity mask (taskset, say)
    where the platform has one, else os.cpu_count()."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _sample(rep, starts, horizon, n, threads) -> list:
    """One ensemble of n trajectories to horizon per (psi0, seed) of
    starts, all from one sampler pass split by trajectory index.

    With threads > 1 (at most one per CPU the process may run on, and at
    least 2 trajectories each) a process pool samples one contiguous chunk
    of indices of every start per process; without, the one chunk is all
    of them.  TrajectoryEnsemble.join joins each start's chunks."""
    threads = min(threads, _cpus())
    if n < 2 * threads:
        threads = 1
    bounds = np.linspace(0, n, threads + 1).astype(int)
    jobs = [functools.partial(trajectories.sample_ensembles, rep, starts, horizon,
                              int(b - a), (horizon,), int(a))
            for a, b in zip(bounds[:-1], bounds[1:])]
    if threads == 1:
        chunks = list(map(operator.call, jobs))
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=threads) as pool:
            chunks = list(pool.map(operator.call, jobs))
    return [trajectories.TrajectoryEnsemble.join(parts) for parts in zip(*chunks)]


def run_simulate(analysis, level, n, horizon, seed, alpha, out_dir, threads=1):
    model, partition = analysis.model, analysis.partition
    rep = model.rep
    psi0 = np.ones(rep.dim, dtype=complex) / np.sqrt(rep.dim)
    result = {
        "model": model.name,
        "level": level,
        "n": n,
        "horizon": horizon,
        "seed": seed,
        "alpha": alpha,
        "tests": {},
    }
    # one sampler pass: A from (psi0, seed) serves the average and every
    # test, and each symmetry's B starts from (U psi0, seed + 1)
    symmetries = analysis.symmetries
    starts = [(psi0, seed)] + [(sym.u @ psi0, seed + 1)
                               for sym, _ in symmetries.values()]
    ens, *others = _sample(rep, starts, horizon, n, threads)
    for (name, (sym, report)), ens_b in zip(symmetries.items(), others):
        # the one condition the level tests, decided here: none when unlabelled
        perm = None
        if level == "full":
            c3 = report.condition_III
            perm = c3.permutation if c3.holds else tuple(range(rep.njumps))
        elif level == "coarse":
            c2 = report.condition_II
            perm = c2.permutation if c2.holds else tuple(range(partition.nsets))
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
        exact = evolve_density(rep, pure_state(np.ones(rep.dim)), horizon)
        result["ensemble_average"]["master_solution"] = _matrix_doc(exact)
        # an entry every trajectory shares has a stderr of 0 or a few ulps,
        # yet the master solution reaches it through expm's rounding: on
        # qubit-weak, whose states stay on the equator, both diagonal
        # entries are 0.5 in every trajectory, with a stderr of 0, and
        # 0.5 - 1.1e-16 in the master solution.  The slack is absolute,
        # the rounding floor, because a density matrix's entries are at
        # most 1 in modulus, whatever tau is.
        result["ensemble_average"]["within_3_sigma"] = bool(
            np.all(np.abs(mean - exact) <= 3 * err + ROUNDING_FLOOR))
    if out_dir:
        with _writing(out_dir):
            os.makedirs(out_dir, exist_ok=True)
            trajectories.export_records(ens, os.path.join(out_dir, "ensemble.jsonl"))
            trajectories.export_count_histogram(
                ens, rep.njumps, os.path.join(out_dir, "counts.csv"))
            # json.dump(result, fh) would stream through the Python encoder
            with open(os.path.join(out_dir, "summary.json"), "w") as fh:
                fh.write(json.dumps(result))
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
_TOL = _checked(float, lambda v: 0 < v < 1, "a relative tolerance in (0, 1)")
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
    # compact: indent=2 would leave json's C encoder for its Python one
    text = json.dumps(doc)
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
    except MemoryError as exc:  # the last resort: no stage foresaw it
        detail = f": {exc}" if str(exc) else ""
        print(f"error: {args.command} ran out of memory{detail}", file=sys.stderr)
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
