import argparse
import concurrent.futures
import json
import os
import tempfile
import time

import numpy as np
import pytest
from hypothesis import given, strategies as st

from weaksym import cli, models, trajectories
from weaksym.cli import analyze, main, run_check, run_verify_joint
from weaksym.modelfile import (
    ParseError,
    dump_model,
    eval_entry,
    eval_matrix,
    eval_scalar,
    load_model,
    model_to_doc,
    parse_model,
)


# ---------------------------------------------------------------- model files

def test_eval_scalar_expressions():
    params = {"gamma": 4.0, "omega": 2.0}
    assert eval_scalar("sqrt(gamma)", params) == 2.0
    assert eval_scalar("-omega/2", params) == -1.0
    assert eval_scalar("cos(pi)", params) == -1.0
    assert eval_scalar(1.5, params) == 1.5
    with pytest.raises(ParseError):
        eval_scalar("__import__('os')", params)
    with pytest.raises(ParseError):
        eval_scalar("unknown", params)


def test_eval_matrix_numeric_rows_match_entries():
    # rows of plain [re, im] numbers take one array conversion; they must
    # give the same bits as the per-entry walker, signed zeros included
    rows = [[[1, -0.0], [-0.0, 2.5], [3, 1e-300]],
            [[-0.0, -0.0], ["omega", -0.0], [0, 7]],
            [[2 ** 60, 0.1], [-1e300, 0], [0.0, -4]]]
    got = eval_matrix(rows, {"omega": 2.0}, 3, "m")
    want = np.array([[eval_entry(e, {"omega": 2.0}) for e in row] for row in rows])
    assert got.tobytes() == want.tobytes()
    assert np.signbit(got.imag[0, 0]) and np.signbit(got.real[1, 0])
    # a boolean, an infinite or NaN part and an int beyond float range each
    # send the row to the walker, whose message names the entry
    for bad in (True, float("inf"), float("nan"), 10 ** 400):
        with pytest.raises(ParseError, match=r"entry \(1, 0\)"):
            eval_matrix([[[0, 0], [0, 0]], [[0, bad], [0, 0]]], {}, 2, "m")


def test_parse_model_with_parameters():
    doc = {
        "name": "demo",
        "dim": 2,
        "parameters": {"omega": 0.5, "gamma": 4.0},
        "hamiltonian": [["omega", 0], [0, "-omega"]],
        "jumps": [
            {"name": "Jz",
             "matrix": [["sqrt(gamma)", 0], [0, "-sqrt(gamma)"]]},
        ],
        "symmetries": [{"name": "parity", "matrix": [[1, 0], [0, -1]]}],
    }
    model = parse_model(json.dumps(doc))
    assert model.rep.dim == 2
    assert np.allclose(model.rep.hamiltonian, np.diag([0.5, -0.5]))
    assert np.allclose(model.rep.jumps[0], np.diag([2.0, -2.0]))
    assert "parity" in model.symmetries


def test_parse_model_reports_json_position():
    with pytest.raises(ParseError, match="line"):
        parse_model("{ not json }")


def test_parse_model_dimension_mismatch():
    doc = {"dim": 2, "hamiltonian": [[0, 0]], "jumps": []}
    with pytest.raises(ParseError, match="rows"):
        parse_model(json.dumps(doc))


@pytest.mark.parametrize("name", sorted(models.BUILDERS))
def test_builtin_roundtrip(name, tmp_path):
    if name == "qutrit-chain":
        model = models.get_model(name, length=2,
                                 thetas=np.deg2rad([0.0, 30.0]))
    else:
        model = models.get_model(name)
    path = tmp_path / f"{name}.json"
    dump_model(model, path)
    loaded = load_model(path)
    assert loaded.rep.dim == model.rep.dim
    assert loaded.rep.njumps == model.rep.njumps
    for a, b in zip(loaded.rep.jumps, model.rep.jumps):
        assert np.allclose(a, b, atol=1e-12)
    assert loaded.sjed_groups == model.sjed_groups
    assert loaded.expect == model.expect
    # the parsed model reproduces the in-memory verdicts
    res_a, ok_a = run_check(analyze(model))
    res_b, ok_b = run_check(analyze(loaded))
    assert ok_a and ok_b
    for sym in res_a["symmetries"]:
        for key in ("condition_I", "condition_II", "condition_III"):
            assert res_a["symmetries"][sym][key] == res_b["symmetries"][sym][key]


# ---------------------------------------------------------------- commands

def test_examples_lists_models(capsys):
    assert main(["examples"]) == 0
    out = capsys.readouterr().out
    assert "qubit-weak" in out and "qutrit-chain" in out


def test_examples_unknown_name(capsys):
    assert main(["examples", "nope"]) == 2
    assert "unknown example" in capsys.readouterr().err


def test_examples_writes_model(tmp_path):
    path = tmp_path / "m.json"
    assert main(["examples", "qubit-II", "--out", str(path)]) == 0
    model = load_model(path)
    assert model.rep.njumps == 3


def test_check_builtin_verdicts(capsys):
    assert main(["check", "qubit-II"]) == 0
    doc = json.loads(capsys.readouterr().out)
    entry = doc["symmetries"]["parity"]
    assert [entry["condition_I"], entry["condition_II"],
            entry["condition_III"]] == [True, True, False]
    assert entry["pi_c"] == [1, 0]
    assert entry["matches_expectation"]


def test_check_exit_code_on_mismatch(tmp_path, capsys):
    model = models.qubit_i()
    object.__setattr__(model, "expect", {"parity": (True, True, True)})
    path = tmp_path / "wrong.json"
    dump_model(model, path)
    assert main(["check", str(path)]) == 1


def test_check_parse_error_exit(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{")
    assert main(["check", str(path)]) == 2


QUBIT_DOC = {"dim": 2, "parameters": {"g": 1e308},
             "hamiltonian": [[1, 0], [0, -1]],
             "jumps": [{"matrix": [[0, 1], [0, 0]]}, {"matrix": [[1, 0], [0, 0]]}],
             "symmetries": [{"name": "p", "matrix": [[1, 0], [0, -1]]}]}


def _qubit_doc(**fields):
    doc = json.loads(json.dumps(QUBIT_DOC))
    doc.update(fields)
    return doc


def _entry_doc(entry):
    return _qubit_doc(hamiltonian=[[entry, 0], [0, -1]])


@pytest.mark.parametrize("argv, doc", [
    (["check"], _entry_doc("1/0")),
    (["check"], _entry_doc("sqrt(-1)")),
    (["check"], _entry_doc("10**400")),
    (["check"], _entry_doc("g*g")),          # inf: overflow without an exception
    (["check"], _entry_doc("(-1)**0.5")),    # complex power of a negative base
    (["check"], _qubit_doc(dim="two")),
    (["check"], _qubit_doc(jumps=3)),
    (["verify-joint"], _qubit_doc(sjeds=[[0], [0]])),
    (["check"], _qubit_doc(symmetries=[{"name": "p", "matrix": [[2, 0], [0, 1]]}])),
    (["simulate", "qubit-III", "--n", "0"], None),
    (["simulate", "qubit-III", "--horizon", "-1"], None),
    (["check", "qubit-II", "--tol", "-1"], None),
    (["examples", "qubit-II", "--param", "g=abc"], None),
    (["check"], _qubit_doc(hamiltonian=[[True, 0], [0, False]])),
    (["check"], _qubit_doc(parameters={"g": True})),
    (["simulate", "qubit-III", "--threads", "0"], None),
    (["simulate", "qubit-III", "--threads", "-2"], None),
    (["simulate", "qubit-III", "--alpha", "nan"], None),
    (["simulate", "qubit-III", "--alpha", "1"], None),
], ids=["div-zero", "sqrt-negative", "overflow", "infinite", "complex-power",
        "dim-string", "jumps-not-array", "sjeds-overlap", "non-unitary", "n-zero",
        "horizon-negative", "tol-negative", "param-not-number", "bool-entry",
        "bool-parameter", "threads-zero", "threads-negative", "alpha-nan",
        "alpha-one"])
def test_malformed_input_exits_2(argv, doc, tmp_path, capsys):
    if doc is not None:
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        argv = argv + [str(path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


_EXPRESSIONS = st.recursive(
    st.sampled_from(["g", "pi", "e", "x", "0", "1", "-1", "0.5", "400", "1e308"]),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from(["+", "-", "*", "/", "**", "%"]), inner)
        .map(lambda t: f"({t[0]}){t[1]}({t[2]})"),
        st.tuples(st.sampled_from(["sqrt", "log", "exp", "tan", "atan2", "abs", "f"]),
                  st.lists(inner, max_size=3))
        .map(lambda t: f"{t[0]}({', '.join(t[1])})"),
        inner.map(lambda s: f"-{s}")),
    max_leaves=6)
_ENTRIES = st.one_of(_EXPRESSIONS, st.text(max_size=8), st.floats(), st.integers(),
                     st.booleans(), st.lists(_EXPRESSIONS, min_size=1, max_size=3),
                     st.none())
# half the documents keep the valid dim, so the entries get evaluated
_DIMS = st.one_of(st.just(2), st.one_of(
    st.integers(-1, 3), st.floats(), st.text(max_size=3), st.booleans(), st.none(),
    st.lists(st.integers(0, 3), max_size=2)))


@given(entry=_ENTRIES, dim=_DIMS, g=st.one_of(st.floats(), st.booleans()))
def test_fuzz_model_scalars_and_dim(entry, dim, g):
    # the entry lands in the Hamiltonian, a jump and the symmetry
    doc = _qubit_doc(dim=dim, parameters={"g": g},
                     hamiltonian=[[entry, 0], [0, -1]],
                     jumps=[{"matrix": [[0, entry], [0, 0]]},
                            {"matrix": [[1, 0], [0, 0]]}],
                     symmetries=[{"name": "p", "matrix": [[1, 0], [0, entry]]}])
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        assert main(["check", path]) in (0, 1, 2)


@pytest.mark.parametrize("value", ["abc", "0", "-1"])
def test_weaksym_threads_checked_when_simulating(value, monkeypatch, capsys):
    monkeypatch.setenv("WEAKSYM_THREADS", value)
    assert main(["check", "qubit-II"]) == 0      # starts no process
    argv = ["simulate", "qubit-III", "--n", "20", "--horizon", "0.2"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: WEAKSYM_THREADS") and "Traceback" not in err
    # the variable is read when the command runs, not when the parser is built
    monkeypatch.setenv("WEAKSYM_THREADS", "1")
    assert main(argv) == 0


def test_parser_built_once(monkeypatch, capsys):
    assert main(["check", "qubit-II"]) == 0
    calls = []
    original = argparse.ArgumentParser.add_argument

    def counting(self, *args, **kwargs):
        calls.append(args)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counting)
    assert main(["check", "qubit-II"]) == 0
    assert calls == []


def test_check_partition_uses_tol(tmp_path, capsys):
    # the second jump is the first's rank-one part up to 1e-5, so at
    # --tol 1e-3 both reset to |0> and form one SJED
    doc = {"dim": 2, "hamiltonian": [[0, 0], [0, 0]],
           "jumps": [{"matrix": [[0, 1], [1e-5, 0]]},
                     {"matrix": [[0, 0.5], [0, 0]]}],
           "symmetries": [{"name": "identity", "matrix": [[1, 0], [0, 1]]}]}
    path = tmp_path / "near-reset.json"
    path.write_text(json.dumps(doc))
    assert main(["check", str(path), "--tol", "1e-3"]) == 0
    sjeds = json.loads(capsys.readouterr().out)["sjeds"]
    assert [(s["indices"], s["kind"]) for s in sjeds] == [([0, 1], "reset")]
    assert main(["check", str(path)]) == 0
    assert len(json.loads(capsys.readouterr().out)["sjeds"]) == 2


def test_verify_joint_qubit_corpus():
    doc = run_verify_joint(analyze(models.qubit_weak()))
    entry = doc["symmetries"]["parity"]
    assert entry["residuals"]["dephased"] < 1e-10
    assert entry["residuals"]["partial"] < 1e-10
    assert entry["residuals"]["coarse"] < 1e-10
    assert entry["residuals"]["rotating_frame"] < 1e-10

    doc = run_verify_joint(analyze(models.qubit_ii()))
    entry = doc["symmetries"]["parity"]
    assert entry["residuals"]["partial"] < 1e-10
    assert entry["residuals"]["coarse"] < 1e-10
    assert entry["scan_minima"]["dephased"] > 1e-3

    doc = run_verify_joint(analyze(models.qubit_i()))
    entry = doc["symmetries"]["parity"]
    assert entry["residuals"]["rotating_frame"] < 1e-10
    assert entry["scan_minima"]["dephased"] > 1e-3
    assert entry["scan_minima"]["partial"] > 1e-3
    assert entry["scan_minima"]["coarse"] > 1e-3


def test_verify_joint_many_distinct_jumps(tmp_path, capsys):
    # seven singleton SJEDs: the partial step is the dephased one, and the
    # minimum must not enumerate the 7! relabellings
    rng = np.random.default_rng(3)
    jumps = [{"matrix": rng.standard_normal((2, 2, 2)).tolist()}  # [re, im]
             for _ in range(7)]
    doc = {"dim": 2, "hamiltonian": [[1, 0], [0, -1]], "jumps": jumps,
           "symmetries": [{"name": "parity", "matrix": [[1, 0], [0, -1]]}]}
    path = tmp_path / "seven.json"
    path.write_text(json.dumps(doc))
    t0 = time.perf_counter()
    assert main(["verify-joint", str(path)]) == 0
    assert time.perf_counter() - t0 < 5.0
    minima = json.loads(capsys.readouterr().out)["symmetries"]["parity"]["scan_minima"]
    assert minima["partial"] == pytest.approx(minima["dephased"], abs=1e-12)


@pytest.mark.parametrize("command", ["check", "verify-joint"])
def test_identity_jump_model(command, tmp_path, capsys):
    # the traceless part of the jump 1 is zero
    doc = {"name": "identity-jump", "dim": 2, "hamiltonian": [[0, 0], [0, 0]],
           "jumps": [{"name": "one", "matrix": [[1, 0], [0, 1]]},
                     {"name": "x", "matrix": [[0, 1], [1, 0]]}],
           "symmetries": [{"name": "parity", "matrix": [[1, 0], [0, -1]]}]}
    path = tmp_path / "identity-jump.json"
    path.write_text(json.dumps(doc))
    assert main([command, str(path)]) in (0, 1)
    out = capsys.readouterr()
    assert "Traceback" not in out.err
    entry = json.loads(out.out)["symmetries"]["parity"]
    if command == "check":
        assert [entry["condition_I"], entry["condition_II"],
                entry["condition_III"]] == [True, True, True]
        mixing = np.array(entry["mixing_matrix"]) @ [1, 1j]
        unitary = np.array(entry["unitary_matrix"]) @ [1, 1j]
        assert np.allclose(mixing, np.diag([0, -1]), atol=1e-12)
        assert np.allclose(unitary, np.diag([1, -1]), atol=1e-12)
    else:
        assert entry["conditions"] == [True, True, True]
        assert entry["residuals"]["rotating_frame"] < 1e-12


def test_verify_joint_rejects_large_models():
    with pytest.raises(ParseError):
        run_verify_joint(analyze(models.qutrit_chain()))


def test_simulate_writes_exports(tmp_path, capsys):
    out = tmp_path / "sim"
    code = main(["simulate", "qubit-weak", "--level", "unlabelled",
                 "--n", "400", "--horizon", "0.5", "--seed", "3",
                 "--out", str(out)])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["tests"]["parity"]["passed"]
    lines = (out / "ensemble.jsonl").read_text().strip().splitlines()
    assert len(lines) == 400
    first = json.loads(lines[0])
    assert "events" in first and "finalState" in first
    header = (out / "counts.csv").read_text().splitlines()[0]
    assert header == "n1,n2,occurrences"


def test_report_combined(capsys):
    assert main(["report", "qubit-III", "--n", "400", "--horizon", "0.5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["version"]
    assert doc["check"]["symmetries"]["parity"]["condition_III"]
    assert "joint" in doc
    assert doc["trajectories"]["tests"]["parity"]["passed"]


def _chain_file(tmp_path):
    """A seeded L=3 qutrit chain (dim 27, three symmetries) as a model file."""
    model = models.qutrit_chain(
        3, thetas=np.random.default_rng(7).uniform(0.0, 2 * np.pi, 3))
    path = tmp_path / "chain-L3.json"
    dump_model(model, path)
    return str(path)


@pytest.mark.parametrize("name, ensembles", [("chain-L3", 4), ("qubit-III", 2)])
def test_simulate_samples_reference_once(name, ensembles, tmp_path, monkeypatch,
                                         capsys):
    # one ensemble A for every test and the average, one B per symmetry
    monkeypatch.delenv("WEAKSYM_THREADS", raising=False)
    calls = []
    original = trajectories.sample_ensemble

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(trajectories, "sample_ensemble", counting)
    model = _chain_file(tmp_path) if name == "chain-L3" else name
    assert main(["simulate", model, "--n", "40", "--horizon", "0.3"]) == 0
    assert len(calls) == ensembles


def test_report_analyses_once(monkeypatch, capsys):
    partitions, reports = [], []
    for attr, log in (("build_sjeds", partitions),
                      ("partition_from_groups", partitions),
                      ("build_symmetry_report", reports)):
        def counting(*args, _original=getattr(cli, attr), _log=log, **kwargs):
            _log.append(args)
            return _original(*args, **kwargs)
        monkeypatch.setattr(cli, attr, counting)
    assert main(["report", "qubit-III", "--n", "200", "--horizon", "0.5"]) == 0
    assert len(partitions) == 1
    assert len(reports) == len(models.qubit_iii().symmetries)


def test_simulate_threads_match_serial(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    path = _chain_file(tmp_path)
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads-{threads}"
        assert main(["simulate", path, "--n", "100", "--horizon", "0.5",
                     "--seed", "3", "--threads", threads,
                     "--out", str(out)]) == 0
        outs.append(out)
    for name in ("summary.json", "ensemble.jsonl"):
        assert (outs[0] / name).read_text() == (outs[1] / name).read_text()


@pytest.fixture
def in_process_pool(monkeypatch):
    """A ProcessPoolExecutor stand-in that records its size and maps in
    this process; returns the list of recorded sizes."""
    workers = []

    class Pool:
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    return workers


def test_thread_pool_capped_at_cpu_count(monkeypatch, in_process_pool):
    from weaksym.lindblad import pure_state
    from weaksym.sjed import build_sjeds
    workers = in_process_pool
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    model = models.qubit_weak()
    psi0 = pure_state(np.ones(2))
    part = build_sjeds(model.rep)
    pooled = cli._sample_chunks(model.rep, psi0, 0.5, 64, 7, (0.5,), part, 10**6)
    serial = cli._sample_chunks(model.rep, psi0, 0.5, 64, 7, (0.5,), part, 1)
    assert workers == [3]
    assert pooled.records == serial.records
    assert np.array_equal(pooled.states[0.5], serial.states[0.5])


def test_threaded_sampling_matches_serial():
    from weaksym.cli import _sample_chunks
    from weaksym.sjed import build_sjeds
    from weaksym.lindblad import pure_state
    model = models.qubit_weak()
    psi0 = pure_state(np.ones(2))
    part = build_sjeds(model.rep)
    serial = _sample_chunks(model.rep, psi0, 0.5, 64, 7, (0.5,), part, 1)
    parallel = _sample_chunks(model.rep, psi0, 0.5, 64, 7, (0.5,), part, 4)
    assert serial.records == parallel.records
    assert np.array_equal(serial.states[0.5], parallel.states[0.5])


def test_modelfile_complex_expression_entries():
    doc = {
        "dim": 2,
        "parameters": {"g": 2.0},
        "hamiltonian": [[0, ["0", "g/2"]], [[0, "-g/2"], 0]],
        "jumps": [{"matrix": [[0, "sqrt(g)"], [0, 0]]}],
    }
    model = parse_model(json.dumps(doc))
    assert model.rep.hamiltonian[0, 1] == 1j
    assert model.rep.jumps[0][0, 1] == np.sqrt(2.0)


def test_report_skip_simulation(capsys):
    assert main(["report", "qubit-I", "--skip-simulation"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert "trajectories" not in doc
    assert doc["check"]["symmetries"]["parity"]["condition_I"]
    assert not doc["check"]["symmetries"]["parity"]["condition_II"]


def test_check_single_symmetry_selection(capsys):
    assert main(["check", "qutrit-chain", "--sym", "combined"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert list(doc["symmetries"]) == ["combined"]
    assert doc["symmetries"]["combined"]["condition_III"]


def test_chunk_stats_summed(monkeypatch, in_process_pool):
    from weaksym.lindblad import pure_state
    from weaksym.sjed import build_sjeds
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    model = models.qubit_weak()
    psi0 = pure_state(np.ones(2))
    part = build_sjeds(model.rep)
    pooled = cli._sample_chunks(model.rep, psi0, 0.5, 64, 7, (0.5,), part, 3)
    chunks = [trajectories.sample_ensemble(model.rep, psi0, 0.5, b - a, seed=7,
                                           checkpoint_times=(0.5,), partition=part,
                                           first_index=a)
              for a, b in ((0, 21), (21, 42), (42, 64))]
    assert in_process_pool == [3]
    assert pooled.stats == {k: sum(c.stats[k] for c in chunks) for k in chunks[0].stats}
    assert pooled.stats["jumps"] == sum(len(rec) for rec in pooled.records)
    assert pooled.stats["grid_steps"] == 3 * chunks[0].stats["grid_steps"]
