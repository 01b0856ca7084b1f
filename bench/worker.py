"""Workload process of the weaksym benchmark (started by ``bench/run.py``).

    python3 bench/worker.py clock --root ROOT --result FILE --seconds S
    python3 bench/worker.py probe --root ROOT --result FILE
    python3 bench/worker.py prep  --root ROOT --result FILE --workload W --seed S --dir D [--quick]
    python3 bench/worker.py run   --root ROOT --result FILE --dir D --passes P
                                  [--traced-passes T --spans FILE]

``clock`` runs beside the others and does not import weaksym: every
CLOCK_INTERVAL_S it times a fixed host-speed sample (see ``host_sample``)
and appends its start and duration to FILE, for at most S seconds.  The
other modes first import ``weaksym.cli`` from ROOT/src and record when
that started and how long it took; that is one sample of the benchmark's
set-up time.  ``prep`` then writes the workload's seeded inputs and its op
list to D.  ``run`` drives ``weaksym.cli.main(argv)`` over the op list,
untraced P times and then traced T times.  It checks every op's output
and writes the latencies and their start times, the checks and the
per-layer metrics to FILE.  All start times are ``time.monotonic()``,
which is one clock for every process of the machine.
"""

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import sys
import time
import traceback

FAST_BUILTINS = ("qubit-weak", "qubit-III", "qubit-II", "qubit-I",
                 "qubit-nonunique", "twoqubit-weak", "twoqubit-III")
BUILTINS = FAST_BUILTINS + ("twoqubit-II", "twoqubit-I")
LEVELS = ("full", "coarse", "unlabelled")
RESIDUAL_MAX = 1e-9      # a certified joint residual must be at most this
SCAN_TOL = 1e-9          # verify-joint's default tol
# An ensemble-average entry fails beyond this many bootstrap standard
# errors from the master solution.  The CLI's own 3-sigma flag is false for
# about one correct op in a hundred at n=200, and a run checks up to 36.
SIGMA_MAX = 5.0
CLOCK_INTERVAL_S = 0.1   # pause between host-speed samples: about 5% of a core
# The workers share one CPU with the clock (see run.py) at a lower priority,
# so that a clock sample runs whole instead of taking turns with the work:
# at equal priority the samples read about twice as long as alone.
WORKER_NICE = 19

# Sizes per workload: full run and --quick self-test run.  Every op of a
# pass has inputs of its own (a chain drawn from the seed, a simulate
# seed), so that a run's medians average over many draws and not over
# repeats of a few.  Blocks of fast ops sit before, between and after the
# slow ones, so that the op percentiles sample the whole pass and not one
# stretch of it.
SIZES = {
    "certify-chain": {"chain": (4, 5, 4)},
    "joint-scan": {"models": FAST_BUILTINS * 4 + ("twoqubit-I",) + FAST_BUILTINS * 4},
    "unravel-jumpy": {"seeds": 3, "n": 150, "horizon": 2.0},
    "unravel-quiet": {"chains": 3, "seeds": 4, "n": 80, "horizon": 1.0},
}
QUICK_SIZES = {
    "certify-chain": {"chain": (3,)},
    "joint-scan": {"models": ("twoqubit-I",)},
    "unravel-jumpy": {"seeds": 1, "n": 40, "horizon": 2.0},
    "unravel-quiet": {"chains": 1, "seeds": 1, "n": 40, "horizon": 1.0},
}


def import_cli(root):
    """Import weaksym.cli from root/src; return (module, start, seconds)."""
    src = os.path.join(root, "src")
    start = time.monotonic()
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    from weaksym import cli
    seconds = time.perf_counter() - t0
    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"weaksym was imported from {cli.__file__}, not {src}")
    return cli, start, seconds


# -- inputs -------------------------------------------------------------
def make_plan(workload, seed, quick, directory):
    """Write the workload's inputs to directory; return its plan."""
    import numpy as np
    from weaksym import models
    from weaksym.modelfile import dump_model

    size = (QUICK_SIZES if quick else SIZES)[workload]
    rng = np.random.default_rng(seed)
    inputs, ops = [], []

    def chain_file(length):
        model = models.qutrit_chain(length, thetas=rng.uniform(0.0, 2 * np.pi, length))
        path = os.path.join(directory, f"qutrit-L{length}-{len(inputs)}.json")
        dump_model(model, path)
        with open(path, "rb+") as fh:
            # flush now, so that writing back the file does not slow the
            # imports timed next
            os.fsync(fh.fileno())
        inputs.append({"input": os.path.basename(path), "dim": model.rep.dim,
                       "jumps": model.rep.njumps,
                       "symmetries": len(model.symmetries),
                       "thetas": model.parameters["thetas"],
                       "fingerprint": model.rep.fingerprint(),
                       "bytes": os.path.getsize(path)})
        return path

    def builtin(name):
        if not any(i["input"] == name for i in inputs):
            inputs.append({"input": name,
                           "fingerprint": models.get_model(name).rep.fingerprint()})
        return name

    def sim_seed():
        return str(int(rng.integers(0, 2**31 - 2)))

    if workload == "certify-chain":
        paths = [chain_file(length) for length in size["chain"]]
        block = [{"argv": ["check", builtin(m)], "kind": "check"} for m in BUILTINS]
        for path in paths:
            ops += block + [{"argv": ["check", path], "kind": "check"}]
        ops += block
    elif workload == "joint-scan":
        ops = [{"argv": ["verify-joint", builtin(m)], "kind": "verify-joint"}
               for m in size["models"]]
    elif workload == "unravel-jumpy":
        out = os.path.join(directory, "exports")
        for _ in range(size["seeds"]):
            for name in ("qubit-III", "qubit-II", "qubit-I"):
                for level in LEVELS:
                    ops.append({"argv": ["simulate", builtin(name), "--level", level,
                                         "--n", str(size["n"]),
                                         "--horizon", str(size["horizon"]),
                                         "--seed", sim_seed(), "--threads", "1",
                                         "--out", out],
                                "kind": "simulate", "out": out})
    elif workload == "unravel-quiet":
        paths = [chain_file(3) for _ in range(size["chains"])]
        for _ in range(size["seeds"]):
            for path in paths:
                for level in LEVELS:
                    ops.append({"argv": ["simulate", path, "--level", level,
                                         "--n", str(size["n"]),
                                         "--horizon", str(size["horizon"]),
                                         "--seed", sim_seed(), "--threads", "1"],
                                "kind": "simulate", "out": None})
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    return {"inputs": inputs, "ops": ops}


# -- output checks ------------------------------------------------------
def check_output(op, rc, stdout):
    """Return None when the op's output is right, else the reason."""
    if rc != 0:
        return f"exit code {rc}"
    kind = op["kind"]
    if kind == "simulate" and op["out"]:
        with open(os.path.join(op["out"], "summary.json")) as fh:
            doc = json.load(fh)
    else:
        doc = json.loads(stdout)
    if kind == "check":
        for name, entry in doc["symmetries"].items():
            if not entry["hierarchy_consistent"]:
                return f"{name}: hierarchy inconsistent"
            got = [entry["condition_I"], entry["condition_II"], entry["condition_III"]]
            if "expected" in entry and got != entry["expected"]:
                return f"{name}: verdicts {got} != expected {entry['expected']}"
    elif kind == "verify-joint":
        for name, entry in doc["symmetries"].items():
            for step, r in entry["residuals"].items():
                if not r <= RESIDUAL_MAX:
                    return f"{name}: certified {step} residual {r}"
            for step, r in entry["scan_minima"].items():
                if not r > SCAN_TOL:
                    return f"{name}: {step} scan minimum {r} <= tol"
    elif kind == "simulate":
        for name, test in doc["tests"].items():
            if not 0.0 <= test["p_value"] <= 1.0:
                return f"{name}: p-value {test['p_value']}"
        average = doc["ensemble_average"]
        if "master_solution" in average:
            mean, err, exact = (_complex_matrix(average[k])
                                for k in ("mean", "stderr", "master_solution"))
            if not all(abs(m - x) <= SIGMA_MAX * abs(e) + 1e-12
                       for m, e, x in zip(mean, err, exact)):
                return f"ensemble average more than {SIGMA_MAX} sigma from the master solution"
    return None


def _complex_matrix(rows):
    return [complex(re, im) for row in rows for re, im in row]


def run_op(cli, op):
    """One op: cli.main(argv), timed; returns (start, seconds, failure or None)."""
    out, err = io.StringIO(), io.StringIO()
    if op.get("out"):
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(op["out"], "summary.json"))
    gc.collect()
    start = time.monotonic()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(op["argv"])
    except Exception:
        return start, time.perf_counter() - t0, traceback.format_exc(limit=3)
    seconds = time.perf_counter() - t0
    try:
        return start, seconds, check_output(op, rc, out.getvalue())
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return start, seconds, f"unreadable output: {exc!r}; stderr: {err.getvalue()[-300:]}"


def host_matrix():
    import numpy as np

    rng = np.random.default_rng(0)
    return rng.standard_normal((128, 128)) + 1j * rng.standard_normal((128, 128))


def host_sample(matrix):
    """Seconds for a fixed mix of interpreter, small-array and BLAS work.

    The work does not involve weaksym, so its time follows only the speed
    of the host, which the run's times are scaled by (see run.py).
    """
    t0 = time.perf_counter()
    x = 0
    for i in range(40_000):
        x += i * i
    small = matrix[:8, :8]
    for _ in range(200):
        (small @ small).sum()
    matrix @ matrix
    return time.perf_counter() - t0


def clock(path, seconds):
    """Append (start, seconds) of a host sample to path every CLOCK_INTERVAL_S."""
    matrix = host_matrix()
    end = time.monotonic() + seconds
    with open(path, "w") as fh:
        while time.monotonic() < end:
            start = time.monotonic()
            fh.write(f"{start!r} {host_sample(matrix)!r}\n")
            fh.flush()
            time.sleep(CLOCK_INTERVAL_S)


def run_passes(cli, plan, passes, traced_passes, spans_path):
    import spans

    records = []

    def one_pass(index, traced, tracer=None):
        for k, op in enumerate(plan["ops"]):
            if tracer is not None:
                tracer.op = len(records)
            start, seconds, failure = run_op(cli, op)
            records.append({"pass": index, "traced": traced, "op": k, "start": start,
                            "seconds": seconds, "failure": failure})

    for p in range(passes):
        one_pass(p, False)
    layers, cover_excess = None, None
    if traced_passes:
        tracer = spans.Tracer()
        tracer.install()
        try:
            for p in range(traced_passes):
                one_pass(passes + p, True, tracer)
        finally:
            tracer.uninstall()
        tracer.write(spans_path)
        layers, cover_excess = spans.layer_metrics(tracer.spans, tracer.facts,
                                                   traced_passes)
    return records, layers, cover_excess


def environment():
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("clock", "probe", "prep", "run"))
    parser.add_argument("--root", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--dir")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--passes", type=int, default=1)
    parser.add_argument("--traced-passes", type=int, default=0)
    parser.add_argument("--spans")
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args(argv)

    if args.mode == "clock":
        clock(args.result, args.seconds)
        return
    os.nice(WORKER_NICE)
    cli, import_start, import_s = import_cli(args.root)
    result = {"import_start": import_start, "import_s": import_s}
    if args.mode == "prep":
        result["plan"] = make_plan(args.workload, args.seed, args.quick, args.dir)
        with open(os.path.join(args.dir, "plan.json"), "w") as fh:
            json.dump(result["plan"], fh)
    elif args.mode == "run":
        with open(os.path.join(args.dir, "plan.json")) as fh:
            plan = json.load(fh)
        ops, layers, cover_excess = run_passes(
            cli, plan, args.passes, args.traced_passes, args.spans)
        result.update(ops=ops, layers=layers, cover_excess=cover_excess,
                      peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                      environment=environment())
    with open(args.result, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
