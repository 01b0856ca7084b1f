"""Compare the weaksym CLI output of two source trees.

    python3 tools/cli_diff.py BASE_SRC HEAD_SRC [--atol 1e-9]

Runs ``check`` on the nine built-ins and on a seeded L=4 qutrit chain,
``verify-joint`` on the nine built-ins and ``simulate`` (with exports) on
qubit-III/II/I at all three levels, once with each tree on PYTHONPATH.
Exit codes, strings, booleans and integers (verdicts, permutations, event
labels) must be identical; every other number must agree within atol.
Prints one line per difference and the largest float deviation, and
exits 1 if any case differs.
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
         "m = models.qutrit_chain(4, thetas=np.random.default_rng(7)"
         ".uniform(0.0, 2 * np.pi, 4)); modelfile.dump_model(m, sys.argv[1])")


def cases(chain_path):
    out = [["check", m] for m in BUILTINS + [chain_path]]
    out += [["verify-joint", m] for m in BUILTINS]
    out += [["simulate", m, "--level", level, "--n", "300", "--seed", "7"]
            for m in ("qubit-III", "qubit-II", "qubit-I")
            for level in ("full", "coarse", "unlabelled")]
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
        chain = os.path.join(tmp, "chain-L4.json")
        subprocess.run([sys.executable, "-c", CHAIN, chain], check=True,
                       env=dict(os.environ, PYTHONPATH=head))
        failures = 0
        deviations = [0.0]
        for argv_ in cases(chain):
            a = run(base, argv_, os.path.join(tmp, "base"))
            b = run(head, argv_, os.path.join(tmp, "head"))
            problems = []
            diff(a, b, args.atol, problems, deviations)
            name = " ".join(os.path.basename(x) for x in argv_)
            print(f"{'DIFF' if problems else 'same'}  {name}")
            for p in problems[:10]:
                print(f"      {p}")
            failures += bool(problems)
    print(f"{failures} of {len(cases(chain))} cases differ beyond atol={args.atol:g}; "
          f"largest float deviation {max(deviations):.3g}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
