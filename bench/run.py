"""Benchmark of the ``weaksym`` command, end to end and per module.

    python3 bench/run.py --workload certify-chain --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --selftest

Run from the root of a checkout.  Each run starts fresh worker processes
(see ``worker.py``), one after another: one only imports, one writes the
seeded inputs, and one drives ``weaksym.cli.main(argv)`` over the
workload's op list.  A clock process beside them samples the host's
speed.  With ``--trace 0`` the last line of stdout is a JSON object with
the end-to-end metrics; with ``--trace 1`` it holds the per-module
metrics of a traced pass (see ``spans.py``).  The lines before it print
every metric with its unit, the failed ratio, the inputs' fingerprints
and an environment stamp.  ``--selftest`` runs every workload at a
minimal size twice and checks the metrics, the span tree and the exact
counts.  BENCHMARK.json and bench/README.md describe the workloads and
the metrics.
"""

import argparse
import glob
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join(ROOT, "bench", "worker.py")
DEADLINE_S = 170

# Seconds one pass over the op list took at the seed commit on a 2-core VM.
# A run makes as many passes as fit in --seconds at that speed, at least
# one, so that every commit measures the same ops and the op percentiles
# compare like with like.
PASS_S = {"certify-chain": 12.0, "joint-scan": 28.0,
          "unravel-jumpy": 16.0, "unravel-quiet": 18.0}

# On the shared 2-core VM the baseline comes from, a fixed loop took
# anywhere from 100 to 199 ms, in phases of seconds to minutes, so raw
# times of two runs differed by up to 2x; and the two CPUs changed speed
# apart from each other, within a second.  So a run pins itself, its
# workers and a clock process (worker.clock) to one CPU.  The clock times
# a fixed sample of interpreter, small-array and BLAS work about ten times
# a second, in between the worker's work.  An import or an op is the time
# it took less the clock's samples in it, scaled by REF_HOST_S over the
# median of those samples, or of the MIN_SAMPLES nearest to it if fewer
# fell inside: the times read as seconds on a host whose sample takes
# REF_HOST_S.  The raw times, clock samples included, are printed alongside.
REF_HOST_S = 0.0045
MIN_SAMPLES = 3

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("op_p50_s", "s"),
              ("op_tail_s", "s"), ("peak_rss_mb", "MiB"))


# One BLAS thread: on a 2-core VM, twoqubit-I's verify-joint took
# 16.0-19.3 s with two threads and 24.2-24.3 s with one, and a steady
# figure matters more here than a fast one.
BLAS_THREADS = 1


class BenchError(Exception):
    pass


def worker_env():
    """Environment of the worker processes and the stamp that records it."""
    env = dict(os.environ)
    env.pop("WEAKSYM_THREADS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    return env, {"nproc": len(os.sched_getaffinity(0)), "blas_threads": BLAS_THREADS}


def source_stamp():
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "weaksym", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(fh.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=20)
        commit = proc.stdout.strip() or None
    return {"git_commit": commit, "source_sha256": digest.hexdigest()[:16]}


def start_clock(env, deadline, path):
    """Start the clock process and wait for its first sample."""
    proc = subprocess.Popen(
        [sys.executable, WORKER, "clock", "--root", ROOT, "--result", path,
         "--seconds", str(DEADLINE_S + 10)],
        env=env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    while not (os.path.exists(path) and os.path.getsize(path)):
        if proc.poll() is not None or time.monotonic() > deadline:
            stop(proc)
            raise BenchError("the clock process did not start")
        time.sleep(0.05)
    return proc


def stop(proc):
    proc.terminate()
    try:
        proc.wait(timeout=10)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def read_clock(path):
    with open(path) as fh:
        samples = [tuple(map(float, line.split())) for line in fh
                   if line.endswith("\n")]
    if not samples:
        raise BenchError("the clock process took no sample")
    return samples


def host_speed(samples, start, seconds):
    """Median host sample during [start, start + seconds], or of the
    MIN_SAMPLES samples nearest to it when fewer fall inside."""
    end = start + seconds
    inside = [d for t, d in samples if start <= t <= end]
    if len(inside) < MIN_SAMPLES:
        nearest = sorted(samples, key=lambda s: max(start - s[0], s[0] - end))
        inside = [d for _, d in nearest[:MIN_SAMPLES]]
    return statistics.median(inside)


def scaled(samples, start, seconds):
    """Seconds of work in [start, start + seconds], less the clock's
    samples, on a host whose sample takes REF_HOST_S."""
    end = start + seconds
    clock_s = sum(max(0.0, min(end, t + d) - max(start, t)) for t, d in samples)
    return (seconds - clock_s) * REF_HOST_S / host_speed(samples, start, seconds)


def call_worker(mode, env, deadline, tmp, *extra):
    result = os.path.join(tmp, f"{mode}.result.json")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before the worker started")
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, mode, "--root", ROOT, "--result", result, *extra],
            env=env, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {mode} did not finish in time")
    if proc.returncode != 0:
        raise BenchError(f"worker {mode} exited with {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    with open(result) as fh:
        return json.load(fh)


def tail_index(n):
    """Index of the highest percentile with at least ten values beyond it."""
    return max(0, n - 11)


def measure(workload, seed, seconds, trace, quick=False):
    """One benchmark run; returns its full result document."""
    if workload not in PASS_S:
        raise BenchError(f"unknown workload {workload!r}; known: {sorted(PASS_S)}")
    if not os.path.isfile(os.path.join(ROOT, "src", "weaksym", "cli.py")):
        raise BenchError(f"no weaksym sources under {ROOT}/src")
    passes = 1 if quick else max(1, int(seconds // PASS_S[workload]))
    traced = 0
    if trace:
        passes = traced = max(1, passes // 2)
    env, stamp = worker_env()
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})      # the workers and the clock inherit it
    stamp["cpu"] = cpu
    deadline = time.monotonic() + DEADLINE_S
    os.makedirs(os.path.join(ROOT, ".bench_tmp"), exist_ok=True)
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{int(trace)}{'-quick' if quick else ''}"
    tmp = tempfile.mkdtemp(prefix=f"{workload}-", dir=os.path.join(ROOT, ".bench_tmp"))
    clock = None
    try:
        clock_path = os.path.join(tmp, "clock.txt")
        clock = start_clock(env, deadline, clock_path)
        probe = call_worker("probe", env, deadline, tmp)
        prep = call_worker("prep", env, deadline, tmp, "--workload", workload,
                           "--seed", str(seed), "--dir", tmp,
                           *(["--quick"] if quick else []))
        spans_path = os.path.join(out_dir, f"spans-{tag}.jsonl")
        run = call_worker("run", env, deadline, tmp, "--dir", tmp,
                          "--passes", str(passes), "--traced-passes", str(traced),
                          "--spans", spans_path)
        stop(clock)
        samples = read_clock(clock_path)
    finally:
        if clock is not None:
            stop(clock)
        shutil.rmtree(tmp, ignore_errors=True)
        if not os.listdir(os.path.join(ROOT, ".bench_tmp")):
            os.rmdir(os.path.join(ROOT, ".bench_tmp"))

    ops = run["ops"]
    plain = [o for o in ops if not o["traced"]]
    k = tail_index(len(plain))

    def summary(times, subset):
        """Median pass, median op and tail op of parallel op times."""
        passes = {}
        for o, t in zip(subset, times):
            passes[o["pass"]] = passes.get(o["pass"], 0.0) + t
        ordered = sorted(times)
        return {"wall_s": statistics.median(passes.values()),
                "op_p50_s": statistics.median(ordered), "op_tail_s": ordered[k]}

    workers = (probe, prep, run)
    run_host_s = host_speed(samples, plain[0]["start"],
                            plain[-1]["start"] + plain[-1]["seconds"] - plain[0]["start"])
    raw = dict(setup_s=statistics.median(p["import_s"] for p in workers),
               **summary([o["seconds"] for o in plain], plain))
    metrics = {"setup_s": statistics.median(
        scaled(samples, p["import_start"], p["import_s"]) for p in workers)}
    metrics.update(summary([scaled(samples, o["start"], o["seconds"]) for o in plain],
                           plain))
    metrics["peak_rss_mb"] = run["peak_rss_mb"]
    failures = [o for o in ops if o["failure"]]
    layers = None
    if trace:
        traced_ops = [o for o in ops if o["traced"]]
        traced_wall = summary([o["seconds"] for o in traced_ops], traced_ops)["wall_s"]
        layers = dict(run["layers"], **{"trace.wall_s": traced_wall,
                                        "trace.overhead_ratio": traced_wall / raw["wall_s"]})
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "quick": quick, "passes": passes, "traced_passes": traced,
        "ops_per_pass": len(prep["plan"]["ops"]),
        "attempted": len(ops), "failed": len(failures),
        "failures": [f["failure"] for f in failures][:5],
        "tail": {"percentile": 100.0 * (k + 1) / len(plain),
                 "beyond": len(plain) - 1 - k, "ops": len(plain)},
        "metrics": metrics, "raw_metrics": raw, "run_host_s": run_host_s,
        "layers": layers, "cover_excess": run["cover_excess"],
        "inputs": prep["plan"]["inputs"],
        "stamp": dict(stamp, **run["environment"], **source_stamp(), seed=seed),
        "op_seconds": [[o["pass"], o["op"], o["traced"], o["seconds"],
                        host_speed(samples, o["start"], o["seconds"])] for o in ops],
        "spans": spans_path if trace else None,
    }


def report(doc):
    """Print the run as text, then the result object as the last line."""
    print(f"# weaksym bench  workload={doc['workload']} seed={doc['seed']} "
          f"passes={doc['passes']} traced_passes={doc['traced_passes']} "
          f"ops/pass={doc['ops_per_pass']}")
    print(f"# stamp {json.dumps(doc['stamp'])}")
    for item in doc["inputs"]:
        print(f"# input {json.dumps({k: v for k, v in item.items() if k != 'thetas'})}")
    units = dict(END_TO_END)
    tail = doc["tail"]
    notes = {"setup_s": "median of 3 fresh imports",
             "wall_s": f"median of {doc['passes']} untraced passes",
             "op_p50_s": f"{tail['ops']} ops",
             "op_tail_s": f"p{tail['percentile']:.1f}, {tail['beyond']} ops beyond, "
                          f"{tail['ops']} ops"}
    print(f"# host sample {doc['run_host_s'] * 1e3:.3f} ms (reference "
          f"{REF_HOST_S * 1e3:.3f} ms); times below are scaled to the reference")
    for name, value in doc["metrics"].items():
        raw = doc["raw_metrics"].get(name)
        raw = "" if raw is None else f"raw {raw:.6f}; "
        print(f"{name:38s} {value:14.6f} {units[name]:6s} {raw}{notes.get(name, '')}")
    print(f"{'failed_ratio':38s} {doc['failed'] / doc['attempted']:14.6f} {'1':6s} "
          f"{doc['failed']}/{doc['attempted']} ops")
    for failure in doc["failures"]:
        print(f"# failure: {failure.strip().splitlines()[-1]}")
    if doc["layers"] is not None:
        import spans

        for name, unit in spans.METRICS:
            print(f"{name:38s} {doc['layers'][name]:14.6f} {unit}")
        chosen = {n: {"value": doc["layers"][n], "unit": u} for n, u in spans.METRICS}
    else:
        chosen = {n: {"value": doc["metrics"][n], "unit": u} for n, u in END_TO_END}
    print(json.dumps({"correct": doc["failed"] == 0, "attempted": doc["attempted"],
                      "failed": doc["failed"], "metrics": chosen}))


def selftest():
    """Quick runs of every workload, twice; returns the problems found."""
    import spans

    counts = [n for n, unit in spans.METRICS if unit == "count"] + [
        "trajectories.unique_ensemble_ratio", "symmetry.unique_report_ratio",
        "trajectories.jumps_per_trajectory"]
    expected = {("unravel-jumpy", "trajectories.unique_ensemble_ratio"): 2 / 3,
                ("unravel-quiet", "trajectories.unique_ensemble_ratio"): 4 / 7,
                ("joint-scan", "dilation.residual_calls"): 769}
    problems = []
    for workload in PASS_S:
        docs = [measure(workload, 1, 1, 1, quick=True) for _ in range(2)]
        for doc in docs:
            report(doc)
            if set(doc["metrics"]) != {n for n, _ in END_TO_END}:
                problems.append(f"{workload}: end-to-end metrics {sorted(doc['metrics'])}")
            if set(doc["layers"]) != {n for n, _ in spans.METRICS}:
                problems.append(f"{workload}: per-layer metrics {sorted(doc['layers'])}")
            if doc["failed"]:
                problems.append(f"{workload}: {doc['failed']} failed ops: {doc['failures']}")
            if doc["cover_excess"] > 1e-6:
                problems.append(f"{workload}: children cover {doc['cover_excess']} s "
                                f"more than their span")
        for name in counts:
            a, b = (d["layers"][name] for d in docs)
            if a != b:
                problems.append(f"{workload}: {name} differs between runs: {a} != {b}")
        for (w, name), value in expected.items():
            if w == workload and abs(docs[0]["layers"][name] - value) > 1e-12:
                problems.append(f"{workload}: {name} = {docs[0]['layers'][name]}, "
                                f"expected {value}")
    return problems


def main(argv=None):
    # a SIGTERM unwinds like an error, so that the workers and the clock are
    # stopped and waited for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    try:
        if args.selftest:
            problems = selftest()
            for p in problems:
                print(f"SELFTEST FAIL {p}")
            print("selftest " + ("failed" if problems else "passed"))
            return 1 if problems else 0
        if not args.workload:
            parser.error("--workload is required")
        doc = measure(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    path = os.path.join(ROOT, ".bench_out",
                        f"{doc['workload']}-seed{doc['seed']}-trace{doc['trace']}.json")
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
    report(doc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
