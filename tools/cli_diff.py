"""Compare the weaksym CLI output of two source trees.

    python3 tools/cli_diff.py BASE_SRC HEAD_SRC [--atol 1e-9]

Runs ``check`` on the nine built-ins and on a seeded L=4 qutrit chain,
``verify-joint`` on the nine built-ins, ``simulate`` (with exports) on
qubit-III/II/I and on a seeded L=3 qutrit chain (three symmetries) at all
three levels, ``simulate --threads 2`` on qubit-III and the L=3 chain, and
``report`` on qubit-III and qubit-I, once with each tree on PYTHONPATH.
Exit codes, strings, booleans and integers (verdicts, permutations, event
labels) must be identical; every other number must agree within atol.
Only the report's ``elapsed_seconds`` is not compared.  Prints one line
per difference and the largest float deviation, and exits 1 if any case
differs.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

BUILTINS = ["qubit-weak", "qubit-III", "qubit-II", "qubit-I", "qubit-nonunique",
            "twoqubit-weak", "twoqubit-III", "twoqubit-II", "twoqubit-I"]
CHAIN = ("import numpy as np, sys; from weaksym import models, modelfile; "
         "L = int(sys.argv[2]); m = models.qutrit_chain(L, thetas="
         "np.random.default_rng(7).uniform(0.0, 2 * np.pi, L)); "
         "modelfile.dump_model(m, sys.argv[1])")


def cases(chain4, chain3):
    out = [["check", m] for m in BUILTINS + [chain4]]
    out += [["verify-joint", m] for m in BUILTINS]
    out += [["simulate", m, "--level", level, "--n", "300", "--seed", "7"]
            for m in ("qubit-III", "qubit-II", "qubit-I", chain3)
            for level in ("full", "coarse", "unlabelled")]
    # two pool workers: the second chunk's streams start at first_index > 0
    out += [["simulate", m, "--level", "full", "--n", "300", "--seed", "7",
             "--threads", "2"] for m in ("qubit-III", chain3)]
    out += [["report", m] for m in ("qubit-III", "qubit-I")]
    return out


def run(src, argv, out_dir):
    env = dict(os.environ, PYTHONPATH=src)
    if argv[0] == "simulate":
        argv = argv + ["--out", out_dir]
    proc = subprocess.run([sys.executable, "-m", "weaksym.cli", *argv],
                          env=env, capture_output=True, text=True)
    doc = {"exit": proc.returncode}
    if argv[0] == "simulate":
        with open(os.path.join(out_dir, "summary.json")) as fh:
            doc["summary"] = json.load(fh)
        with open(os.path.join(out_dir, "ensemble.jsonl")) as fh:
            doc["records"] = [json.loads(line) for line in fh]
        with open(os.path.join(out_dir, "counts.csv")) as fh:
            doc["counts"] = fh.read()
    else:
        doc["stdout"] = json.loads(proc.stdout)
        if argv[0] == "report":
            del doc["stdout"]["elapsed_seconds"]
    return doc


def diff(a, b, atol, problems, deviations, path=""):
    """Append the differences between two JSON values to problems and
    every nonzero float deviation to deviations."""
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            problems.append(f"{path}: keys {sorted(a)} != {sorted(b)}")
        for k in a.keys() & b.keys():
            diff(a[k], b[k], atol, problems, deviations, f"{path}/{k}")
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            problems.append(f"{path}: length {len(a)} != {len(b)}")
        for i, (x, y) in enumerate(zip(a, b)):
            diff(x, y, atol, problems, deviations, f"{path}[{i}]")
    elif type(a) is float and type(b) is float:
        if a != b:
            deviations.append(abs(a - b))
            if not abs(a - b) <= atol:
                problems.append(f"{path}: {a!r} != {b!r}")
    elif type(a) is not type(b) or a != b:
        problems.append(f"{path}: {a!r} != {b!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("head")
    parser.add_argument("--atol", type=float, default=1e-9)
    args = parser.parse_args(argv)
    base, head = os.path.abspath(args.base), os.path.abspath(args.head)
    with tempfile.TemporaryDirectory() as tmp:
        chains = [os.path.join(tmp, f"chain-L{L}.json") for L in (4, 3)]
        for L, path in zip((4, 3), chains):
            subprocess.run([sys.executable, "-c", CHAIN, path, str(L)],
                           check=True, env=dict(os.environ, PYTHONPATH=head))
        failures = 0
        deviations = [0.0]
        for argv_ in cases(*chains):
            a = run(base, argv_, os.path.join(tmp, "base"))
            b = run(head, argv_, os.path.join(tmp, "head"))
            problems = []
            diff(a, b, args.atol, problems, deviations)
            name = " ".join(os.path.basename(x) for x in argv_)
            print(f"{'DIFF' if problems else 'same'}  {name}")
            for p in problems[:10]:
                print(f"      {p}")
            failures += bool(problems)
    print(f"{failures} of {len(cases(*chains))} cases differ beyond atol={args.atol:g}; "
          f"largest float deviation {max(deviations):.3g}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
