"""Compare the weaksym CLI output of two source trees.

    python3 tools/cli_diff.py BASE_SRC HEAD_SRC [--atol 1e-9]

Runs ``check`` on the nine built-ins, the built-in ``qutrit-chain`` (four
reset SJEDs pinned by its ``sjeds``, which translation permutes as a
4-cycle; once more at ``--tol 1e-6``), the nine built-ins once more at
``--tol 1e-12`` (the threshold's rounding floor, linalg.ROUNDING_FLOOR),
``check`` and ``verify-joint`` on the nine built-ins at ``--tol 1e-6``
(where the rank cut moves with tau)
and seeded L=3, L=4, L=5, L=6 and L=7 qutrit chains (L=7 is dim 2187, where BASE trees that
hold every operator dense take 12-14 s and 1.3 GB of peak RSS for ``check``
with one BLAS thread on a 2-core x86-64 VM) and the 64- and
256-jump models (the n-jump model: H = 1 and the d-cycle shift as its
symmetry on dim d, jumps |k><roll(b, k)| for k = 0..d-1 and n/d vectors b
from ``default_rng(0)``; at d = 8 and n = 256 condition III solves the
largest assignment the CLI meets, 256 x 256), ``verify-joint`` on the same
built-ins, on the seeded L=3, L=4 and L=5 chains and on the 64- and
128-jump models, ``check`` and ``verify-joint`` on the n-jump model with
n = d = 32 and n = d = 33 (the symmetry held as an array and as a CSR
matrix, on either side of linalg.SMALL_DIM), ``check`` and ``verify-joint``
on a seeded dense d = 40 model (two reset SJEDs of two rank-one jumps each
and one full-rank jump, the identity as its symmetry: every jump a dense
array above linalg.SMALL_DIM that no row or column of its own splits, so
the SJED split takes the SVD of its block), ``simulate --level full`` (with
exports) on that dense d = 40 model and ``simulate`` on the n-jump model
with n = d = 33 (dense rows and sparse items of dim above
linalg.SMALL_DIM, both held as CSR arrays), ``simulate`` (with exports)
on qubit-III/II/I and on a seeded L=3 qutrit chain (three symmetries) at
all three levels, ``simulate --level full --n 20000`` on qubit-III (the
export path at scale), ``simulate --level full`` on twoqubit-II (the
master solution at d = 4), ``simulate --threads 2`` on qubit-III,
twoqubit-I and the L=3 chain, ``simulate --horizon 20 --n 500`` on
qubit-III, qubit-II and twoqubit-I (many jumps per trajectory, refilled
streams and re-crossings: on the sampler's closed-form path for the
diagonal H_eff of qubit-III and of qubit-II, which is diagonal at rounding
level, and within a grid step of its Taylor table for twoqubit-I's),
``simulate --horizon 100 --n 200 --level full`` on qubit-I (a diagonal
H_eff stepped from 0 to the horizon in one step, where a Taylor grid of
0.45/||H_eff|| would take 445),
``simulate --horizon 1000 --n 200`` on qubit-weak (end norms and Newton
slopes of subnormal size, whose quotients overflow inside the crossing
times: the run prints nothing to stderr),
``simulate --horizon 20 --n 300`` on twoqubit-weak (a jump rate that
varies with the state, on the Taylor table, so each crossing takes 4-5
root-finding trials), ``simulate --level full --n 200`` on the built-in
``qutrit-chain`` (three symmetries, so four ensembles in one pass at
d = 81) and on the seeded L=5 chain (four ensembles at d = 243, where the
starts' state vectors and the sampler's setup weigh),
``simulate --threads 2 --n 301`` on the L=3 chain (uneven chunks),
``simulate --threads 2 --n 4`` on the L=3 chain, unseeded and at
``--seed 3`` (about 0.14 jumps per trajectory: chunks of two
trajectories that hold no event, and at seed 3 one jump in the first
chunk only, whose empty event columns must join to the same
``ensemble.jsonl`` and ``counts.csv`` bytes),
``simulate --level coarse`` on twoqubit-II (condition II holds with a
two-set pi_c at d = 4), on twoqubit-I (condition II fails, so the identity
permutation is used) and on the L=3 chain with ``--sym rotation`` (one
named symmetry), ``simulate`` at more ensemble sizes, for
ensemble_average's stderr: on the L=3 chain at ``--level full --n 80
--seed 3`` and at ``--level coarse`` with ``--n 158`` and ``--n 159``, and
on the built-in ``qutrit-chain`` at ``--level coarse --n 100 --seed 5``
(d = 81), and
``report`` on qubit-III, qubit-I and the L=3 chain (where ``check``,
``verify-joint`` and ``simulate`` share one analysis), and ``simulate
--level coarse`` and ``--level full`` on the L=3 chain with the jumps of
each SJED remixed by a seeded Haar unitary (``REMIX``; its H_eff is
diagonal up to the rounding of forming it, 5.7e-17 off the diagonal, so a
BASE that takes only exact zeros as diagonal walks the Taylor grid where
one that takes rounding steps once), once with each tree on PYTHONPATH.
BASE's ``dump_model`` writes the chain files and the remixed chain, so
both trees read the same files and HEAD reads the form BASE writes; a
BASE whose ``qutrit_chain``
builds dense matrices needs about 50 s and 1.75 GB to build the L=7 file.
Cross-form cases then run HEAD on the chain files its own ``dump_model``
wrote, which may use a matrix form BASE cannot read, against BASE on
BASE's: ``check`` at L=4, L=5 and L=6, ``verify-joint`` at L=3, L=4 and
L=5, and ``simulate --level full`` at L=3.
Exit codes, strings, booleans and integers (verdicts, permutations, event
labels) must be identical; every other number must agree within atol.
Each command's stderr text is compared as a string.
Every ``simulate`` case runs with ``--out``, and its export files
(``summary.json``, ``ensemble.jsonl`` and ``counts.csv``) take the place
of its stdout; they are parsed and compared so, and are also compared by
bytes: files whose values agree to the last bit must be the same bytes,
so drift in spacing, key order or the spelling of a number is a
difference at any atol.  Two more ``simulate --level full`` cases run
without ``--out`` and compare their stdout: on twoqubit-II at ``--n 300
--seed 7`` (d = 4, where the master solution decides ``within_3_sigma``)
and on the seeded L=3 chain at ``--n 80 --seed 3`` (d = 27, above it).
Only the report's ``elapsed_seconds`` is not
compared.  Prints one line
per difference and the largest float deviation, and exits 1 if any case
differs.  A command that prints nothing (an exit code of 2, say) is
compared by its exit code and its empty output.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

# simulate's --out files
EXPORTS = ("summary.json", "ensemble.jsonl", "counts.csv")
BUILTINS = ["qubit-weak", "qubit-III", "qubit-II", "qubit-I", "qubit-nonunique",
            "twoqubit-weak", "twoqubit-III", "twoqubit-II", "twoqubit-I"]
CHAIN = ("import numpy as np, sys; from weaksym import models, modelfile; "
         "L = int(sys.argv[2]); m = models.qutrit_chain(L, thetas="
         "np.random.default_rng(7).uniform(0.0, 2 * np.pi, L)); "
         "modelfile.dump_model(m, sys.argv[1])")
# the n-jump model, n = sys.argv[2] (a multiple of d), d = sys.argv[3]
JUMPS = ("import numpy as np, sys; from weaksym import models, modelfile; "
         "from weaksym.lindblad import Representation; "
         "n, d = int(sys.argv[2]), int(sys.argv[3]); rng = np.random.default_rng(0); "
         "bs = [rng.normal(size=d) + 1j * rng.normal(size=d) for _ in range(n // d)]; "
         "jumps = [np.outer(np.eye(d)[k], np.roll(b, k).conj()) "
         "for b in bs for k in range(d)]; "
         "m = models.Model(f'jumps-{n}', Representation(np.eye(d), tuple(jumps)), "
         "{'shift': np.roll(np.eye(d), 1, axis=0)}); "
         "modelfile.dump_model(m, sys.argv[1])")
# (n, d): the 64-, 128- and 256-jump models at d = 8, and n = d on either
# side of linalg.SMALL_DIM = 32, where the symmetry's form switches
JUMP_MODELS = ((64, 8), (128, 8), (256, 8), (32, 32), (33, 33))
# the seeded L=3 chain with the jumps of each SJED remixed by a Haar unitary
# (QR of a complex Gaussian from default_rng(5)), as tests/conftest.py's
# remix_within_sets does: the same unravelled generator, and an H_eff
# diagonal only up to the rounding of forming it
REMIX = """import dataclasses, numpy as np, sys
from weaksym import models, modelfile, sjed
from weaksym.lindblad import Representation
m = models.qutrit_chain(3, thetas=np.random.default_rng(7).uniform(0.0, 2 * np.pi, 3))
rng, jumps = np.random.default_rng(5), list(m.rep.jumps)
for s in sjed.build_sjeds(m.rep).sets:
    q, r = np.linalg.qr(rng.normal(size=(s.size, s.size)) + 1j * rng.normal(size=(s.size, s.size)))
    old = [jumps[j] for j in s.indices]
    for row, j in zip(q * (np.diag(r) / np.abs(np.diag(r))), s.indices):
        jumps[j] = sum(c * o for c, o in zip(row, old))
rep = Representation(m.rep.hamiltonian, tuple(jumps), m.rep.labels)
modelfile.dump_model(dataclasses.replace(m, name="remixed-chain-3", rep=rep, expect={}),
                     sys.argv[1])
"""
# the dense d = 40 model: two reset SJEDs of two rank-one jumps and a
# full-rank jump, each a dense array; the identity is its symmetry
DENSE = ("import numpy as np, sys; from weaksym import models, modelfile; "
         "from weaksym.lindblad import Representation; "
         "d = 40; rng = np.random.default_rng(11); "
         "v = lambda *s: (rng.normal(size=s) + 1j * rng.normal(size=s)) / d; "
         "h = v(d, d); dests = v(2, d); "
         "jumps = [np.outer(a, v(d).conj()) for a in dests for _ in range(2)] + [v(d, d)]; "
         "m = models.Model('dense-40', Representation(h + h.conj().T, tuple(jumps)), "
         "{'identity': np.eye(d)}); "
         "modelfile.dump_model(m, sys.argv[1])")


def cases(chain4, chain3, chain5, chain6, chain7, jumps64, jumps128, jumps256, jumps32,
          jumps33, dense40, remix3, own):
    """(BASE argv, HEAD argv, exports) triples, exports true where simulate
    runs with --out; own maps a chain file BASE wrote to the copy HEAD
    wrote."""
    out = [["check", m] for m in BUILTINS + ["qutrit-chain", chain3, chain4, chain5,
                                             chain6, chain7, jumps64, jumps256]]
    # a second tolerance moves the SJED isometries' rank cut
    out += [["check", "qutrit-chain", "--tol", "1e-6"]]
    # the smallest tol the threshold takes as it is given
    out += [["check", m, "--tol", "1e-12"] for m in BUILTINS]
    # a tol where both tau and sqrt(tau) move: the rank cut of the mixing,
    # the certificates and the canonical SJED families
    out += [[c, m, "--tol", "1e-6"] for c in ("check", "verify-joint") for m in BUILTINS]
    out += [["verify-joint", m] for m in BUILTINS + ["qutrit-chain", chain3, chain4,
                                                     chain5, jumps64, jumps128]]
    # the symmetry held as an array (d = 32) and as a CSR matrix (d = 33)
    out += [[c, m] for m in (jumps32, jumps33) for c in ("check", "verify-joint")]
    # dense jumps above SMALL_DIM, split by the SVD of their block
    out += [[c, dense40] for c in ("check", "verify-joint")]
    # the sampler and the exports on input of dim above SMALL_DIM, given as
    # dense rows and as sparse items
    out += [["simulate", dense40, "--level", "full", "--n", "300", "--seed", "7"]]
    out += [["simulate", jumps33, "--n", "300", "--seed", "7"]]
    out += [["simulate", m, "--level", level, "--n", "300", "--seed", "7"]
            for m in ("qubit-III", "qubit-II", "qubit-I", chain3)
            for level in ("full", "coarse", "unlabelled")]
    # the export path at scale
    out += [["simulate", "qubit-III", "--level", "full", "--n", "20000"]]
    # master_solution at d = 4
    out += [["simulate", "twoqubit-II", "--level", "full", "--n", "300", "--seed", "7"]]
    # two pool workers: the second chunk's streams start at first_index > 0;
    # on twoqubit-I some crossing batches hold a single row
    out += [["simulate", m, "--level", "full", "--n", "300", "--seed", "7",
             "--threads", "2"] for m in ("qubit-III", chain3, "twoqubit-I")]
    # many jumps per trajectory: refills and re-crossings, on a diagonal
    # H_eff (closed-form propagation; qubit-II's is diagonal at rounding
    # level) and within a grid step of a non-diagonal one (the Taylor table)
    out += [["simulate", m, "--horizon", "20", "--n", "500"]
            for m in ("qubit-III", "qubit-II", "twoqubit-I")]
    # a long horizon in one step of a diagonal H_eff: cells 1e-7 wide
    out += [["simulate", "qubit-I", "--horizon", "100", "--n", "200", "--level", "full"]]
    # ||H_eff|| horizon = 2000: subnormal end norms and slopes, whose
    # quotients overflow in the crossing times
    out += [["simulate", "qubit-weak", "--horizon", "1000", "--n", "200"]]
    # a rate that varies with the state (sum_j J_j† J_j not a multiple of
    # 1), on the Taylor table: the log-norm secant start is not the root
    out += [["simulate", "twoqubit-weak", "--horizon", "20", "--n", "300"]]
    # one pass of four ensembles at d = 81, and uneven pool chunks of them
    out += [["simulate", "qutrit-chain", "--level", "full", "--n", "200", "--seed", "5"]]
    out += [["simulate", chain5, "--level", "full", "--n", "200"]]
    out += [["simulate", chain3, "--threads", "2", "--n", "301"]]
    # chunks of two trajectories at about 0.14 jumps each: no event in any
    # chunk, and (seed 3) one jump in the first chunk only
    out += [["simulate", chain3, "--threads", "2", "--n", "4", *seed]
            for seed in ([], ["--seed", "3"])]
    # the coarse level decides condition II alone: pi_c, the identity where
    # it fails, and one named symmetry
    out += [["simulate", m, "--level", "coarse", "--n", "300", "--seed", "7"]
            for m in ("twoqubit-II", "twoqubit-I")]
    out += [["simulate", chain3, "--sym", "rotation", "--level", "coarse",
             "--n", "300", "--seed", "7"]]
    # ensemble_average's stderr at more n: 80, 158 and 159 at d = 27, 100
    # at d = 81
    out += [["simulate", chain3, "--level", "full", "--n", "80", "--seed", "3"]]
    out += [["simulate", chain3, "--level", "coarse", "--n", n] for n in ("158", "159")]
    out += [["simulate", "qutrit-chain", "--level", "coarse", "--n", "100", "--seed", "5"]]
    out += [["report", m] for m in ("qubit-III", "qubit-I", chain3)]
    # remixed jumps: an H_eff diagonal up to rounding
    out += [["simulate", remix3, "--level", level, "--n", "300", "--seed", "7"]
            for level in ("coarse", "full")]
    cross = [["check", chain4], ["check", chain5], ["check", chain6]]
    cross += [["verify-joint", m] for m in (chain3, chain4, chain5)]
    cross += [["simulate", chain3, "--level", "full", "--n", "300", "--seed", "7"]]
    # simulate's stdout, with and without a master solution
    printed = [["simulate", "twoqubit-II", "--level", "full", "--n", "300", "--seed", "7"],
               ["simulate", chain3, "--level", "full", "--n", "80", "--seed", "3"]]
    return ([(a, a, a[0] == "simulate") for a in out] + [(a, a, False) for a in printed]
            + [(a, [own.get(x, x) for x in a], a[0] == "simulate") for a in cross])


def run(src, argv, out_dir=None):
    """The command's exit code, stderr text and parsed stdout; with an
    out_dir (simulate's --out), the bytes of each export file instead of
    stdout (None for a file the run did not write)."""
    env = dict(os.environ, PYTHONPATH=src)
    if out_dir:
        # a run that fails must not leave the last case's files to be read
        shutil.rmtree(out_dir, ignore_errors=True)
        argv = argv + ["--out", out_dir]
    proc = subprocess.run([sys.executable, "-m", "weaksym.cli", *argv],
                          env=env, capture_output=True, text=True)
    doc = {"exit": proc.returncode, "stderr": proc.stderr}
    if out_dir:
        for name in EXPORTS:
            path = os.path.join(out_dir, name)
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    doc[name] = fh.read()
            else:
                doc[name] = None
    else:
        doc["stdout"] = json.loads(proc.stdout) if proc.stdout else None
        if argv[0] == "report" and doc["stdout"]:
            del doc["stdout"]["elapsed_seconds"]
    return doc


def parse_export(name, data):
    if data is None:
        return None
    text = data.decode()
    if name == "summary.json":
        return json.loads(text)
    if name == "ensemble.jsonl":
        return [json.loads(line) for line in text.splitlines()]
    return text


def diff_exports(a, b, atol, problems, deviations):
    """Move the export files out of two simulate docs and compare each by
    value, as diff does, and by bytes: files whose values agree to the
    last bit must be the same bytes, so spacing, key order or number
    spelling that moves is a difference."""
    for name in EXPORTS:
        x, y = a.pop(name), b.pop(name)
        found, moved = [], len(deviations)
        diff(parse_export(name, x), parse_export(name, y), atol, found, deviations,
             f"/{name}")
        if not found and len(deviations) == moved and x != y:
            at = next((i for i, (p, q) in enumerate(zip(x, y)) if p != q),
                      min(len(x), len(y)))
            found.append(f"/{name}: equal values, different bytes from byte {at}")
        problems += found


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
        lengths = (4, 3, 5, 6, 7)
        chains, own = [], {}
        for L in lengths:
            chains.append(os.path.join(tmp, f"chain-L{L}.json"))
            own[chains[-1]] = os.path.join(tmp, f"chain-L{L}-own.json")
            for src, path in ((base, chains[-1]), (head, own[chains[-1]])):
                subprocess.run([sys.executable, "-c", CHAIN, path, str(L)],
                               check=True, env=dict(os.environ, PYTHONPATH=src))
        for n, d in JUMP_MODELS:
            chains.append(os.path.join(tmp, f"jumps-{n}-d{d}.json"))
            subprocess.run([sys.executable, "-c", JUMPS, chains[-1], str(n), str(d)],
                           check=True, env=dict(os.environ, PYTHONPATH=base))
        chains.append(os.path.join(tmp, "dense-40.json"))
        subprocess.run([sys.executable, "-c", DENSE, chains[-1]],
                       check=True, env=dict(os.environ, PYTHONPATH=base))
        chains.append(os.path.join(tmp, "remixed-chain-3.json"))
        subprocess.run([sys.executable, "-c", REMIX, chains[-1]],
                       check=True, env=dict(os.environ, PYTHONPATH=base))
        failures = 0
        deviations = [0.0]
        pairs = cases(*chains, own)
        for argv_a, argv_b, exports in pairs:
            a = run(base, argv_a, os.path.join(tmp, "base") if exports else None)
            b = run(head, argv_b, os.path.join(tmp, "head") if exports else None)
            problems = []
            if exports:
                diff_exports(a, b, args.atol, problems, deviations)
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
