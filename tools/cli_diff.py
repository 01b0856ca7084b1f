"""Compare the weaksym CLI output of two source trees.

    python3 tools/cli_diff.py BASE_SRC HEAD_SRC [--atol 1e-9]

Runs ``check`` on the nine built-ins and on seeded L=4 and L=5 qutrit
chains, ``verify-joint`` on the nine built-ins and on the seeded L=3, L=4
and L=5 chains, ``simulate`` (with exports) on
qubit-III/II/I and on a seeded L=3 qutrit chain (three symmetries) at all
three levels, ``simulate --threads 2`` on qubit-III and the L=3 chain, and
``report`` on qubit-III and qubit-I, once with each tree on PYTHONPATH.
BASE's ``dump_model`` writes the chain files, so both trees read the same
files and HEAD reads the form BASE writes.  Cross-form cases then run HEAD
on the chain files its own ``dump_model`` wrote, which may use a matrix
form BASE cannot read, against BASE on BASE's: ``check`` at L=4 and L=5,
``verify-joint`` at L=3, L=4 and L=5, and ``simulate --level full`` at L=3.
Exit codes, strings, booleans and integers (verdicts, permutations, event
labels) must be identical; every other number must agree within atol.
Only the report's ``elapsed_seconds`` is not compared.  Prints one line
per difference and the largest float deviation, and exits 1 if any case
differs.  A command that prints nothing (an exit code of 2, say) is
compared by its exit code and its empty output.
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


def cases(chain4, chain3, chain5, own):
    """(BASE argv, HEAD argv) pairs; own maps a chain file BASE wrote to
    the copy HEAD wrote."""
    out = [["check", m] for m in BUILTINS + [chain4, chain5]]
    out += [["verify-joint", m] for m in BUILTINS + [chain3, chain4, chain5]]
    out += [["simulate", m, "--level", level, "--n", "300", "--seed", "7"]
            for m in ("qubit-III", "qubit-II", "qubit-I", chain3)
            for level in ("full", "coarse", "unlabelled")]
    # two pool workers: the second chunk's streams start at first_index > 0
    out += [["simulate", m, "--level", "full", "--n", "300", "--seed", "7",
             "--threads", "2"] for m in ("qubit-III", chain3)]
    out += [["report", m] for m in ("qubit-III", "qubit-I")]
    cross = [["check", chain4], ["check", chain5]]
    cross += [["verify-joint", m] for m in (chain3, chain4, chain5)]
    cross += [["simulate", chain3, "--level", "full", "--n", "300", "--seed", "7"]]
    return [(a, a) for a in out] + [(a, [own.get(x, x) for x in a]) for a in cross]


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
        doc["stdout"] = json.loads(proc.stdout) if proc.stdout else None
        if argv[0] == "report" and doc["stdout"]:
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
        lengths = (4, 3, 5)
        chains, own = [], {}
        for L in lengths:
            chains.append(os.path.join(tmp, f"chain-L{L}.json"))
            own[chains[-1]] = os.path.join(tmp, f"chain-L{L}-own.json")
            for src, path in ((base, chains[-1]), (head, own[chains[-1]])):
                subprocess.run([sys.executable, "-c", CHAIN, path, str(L)],
                               check=True, env=dict(os.environ, PYTHONPATH=src))
        failures = 0
        deviations = [0.0]
        pairs = cases(*chains, own)
        for argv_a, argv_b in pairs:
            a = run(base, argv_a, os.path.join(tmp, "base"))
            b = run(head, argv_b, os.path.join(tmp, "head"))
            problems = []
            diff(a, b, args.atol, problems, deviations)
            name = " ".join(os.path.basename(x) for x in argv_a)
            if argv_b != argv_a:
                name += "  (HEAD: " + " ".join(os.path.basename(x) for x in argv_b) + ")"
            print(f"{'DIFF' if problems else 'same'}  {name}")
            for p in problems[:10]:
                print(f"      {p}")
            failures += bool(problems)
    print(f"{failures} of {len(pairs)} cases differ beyond atol={args.atol:g}; "
          f"largest float deviation {max(deviations):.3g}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
