import argparse
import concurrent.futures
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from hypothesis import given, strategies as st

from weaksym import cli, linalg, models, symmetry, trajectories
from weaksym.cli import analyze, main, run_check, run_verify_joint
from weaksym.lindblad import Representation
from weaksym.modelfile import (
    ParseError,
    _matrix_doc,
    dump_model,
    eval_entry,
    eval_matrix,
    eval_scalar,
    load_model,
    model_to_doc,
    parse_model,
)
from weaksym.sjed import partition_from_groups, same_unravelled_generator
from weaksym.symmetry import SymmetryOperator, check_condition_III, lift_II_to_III

from conftest import event_lists, sample_one


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


def _bits(model):
    """Every matrix of a model as its float parts, symmetries included."""
    return [linalg.dense(m).view(float) for m in
            (model.rep.hamiltonian, *model.rep.jumps, *model.symmetries.values())]


def _assert_same_bits(a, b):
    assert a.rep.fingerprint() == b.rep.fingerprint()
    assert list(a.symmetries) == list(b.symmetries)
    for x, y in zip(_bits(a), _bits(b), strict=True):
        assert np.array_equal(x, y) and np.array_equal(np.signbit(x), np.signbit(y))


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
    _assert_same_bits(loaded, model)
    assert loaded.rep.labels == model.rep.labels
    assert loaded.sjed_groups == model.sjed_groups
    assert loaded.expect == model.expect
    # the parsed model reproduces the in-memory verdicts
    res_a, ok_a = run_check(analyze(model))
    res_b, ok_b = run_check(analyze(loaded))
    assert ok_a and ok_b
    for sym in res_a["symmetries"]:
        for key in ("condition_I", "condition_II", "condition_III"):
            assert res_a["symmetries"][sym][key] == res_b["symmetries"][sym][key]


def test_sparse_matrix_entries():
    # numbers, expressions and [re, im] pairs of either; unlisted entries are 0
    spec = {"sparse": [[0, 1, "sqrt(g)"], [1, 0, [-0.0, -1.5]], [2, 2, ["g", 1]]]}
    got = eval_matrix(spec, {"g": 4.0}, 3, "m")
    want = np.zeros((3, 3), dtype=complex)
    want[0, 1], want[1, 0], want[2, 2] = 2.0, complex(-0.0, -1.5), 4 + 1j
    assert got.tobytes() == want.tobytes()
    assert np.signbit(got.real[1, 0])
    # above linalg.SMALL_DIM the same items load as a CSR array of them
    big = eval_matrix(spec, {"g": 4.0}, linalg.SMALL_DIM + 1, "m")
    assert isinstance(big, scipy.sparse.csr_array) and big.nnz == 3
    assert linalg.dense(big)[:3, :3].tobytes() == want.tobytes()
    # plain [re, im] numbers take one array conversion, with the same bits
    numeric = {"sparse": [[1, 2, [-0.0, 2 ** 60]], [0, 0, [1e-300, -0.0]]]}
    got = eval_matrix(numeric, {}, 3, "m")
    assert got.view(float)[1, 4:6].tobytes() == np.array([-0.0, 2.0 ** 60]).tobytes()
    assert got.view(float)[0, 0:2].tobytes() == np.array([1e-300, -0.0]).tobytes()
    assert eval_matrix({"sparse": []}, {}, 2, "m").tobytes() == bytes(64)


@pytest.mark.parametrize("spec, message", [
    ({"sparse": [[2, 0, 1]]}, r"sparse item 0: indices .* got 2, 0"),
    ({"sparse": [[0, 0, 1], [0, -1, 1]]}, r"sparse item 1: indices .* got 0, -1"),
    ({"sparse": [[0, 1.0, 1]]}, r"sparse item 0: indices .* got 0, 1\.0"),
    ({"sparse": [[True, 0, 1]]}, r"sparse item 0: indices .* got True, 0"),
    ({"sparse": [[0, 1, 1], [0, 1, 2]]}, r"sparse item 1: entry \(0, 1\) is listed twice"),
    ({"sparse": [[0, 1]]}, r"sparse item 0 must be \[i, j, entry\]"),
    ({"sparse": [[0, 1, 1, 1]]}, r"sparse item 0 must be \[i, j, entry\]"),
    ({"sparse": [[0, 0, 1], {"i": 0}]}, r"sparse item 1 must be \[i, j, entry\]"),
    ({"sparse": {"0": 1}}, r"'sparse' must be a list"),
    ({}, r"'sparse' must be a list"),
    ({"sparse": [], "dim": 2}, r"unexpected key 'dim' beside 'sparse'"),
    ({"sparse": [[1, 1, 1], [0, 1, "1/0"]]}, r"sparse item 1, entry \(0, 1\): "),
    ({"sparse": [[0, 1, [0, "x"]]]}, r"sparse item 0, entry \(0, 1\): unknown name"),
    ({"sparse": [[0, 1, [0, 1, 2]]]}, r"sparse item 0, entry \(0, 1\): complex entry"),
])
def test_sparse_errors_name_the_matrix_and_item(spec, message):
    with pytest.raises(ParseError, match=r"^jump Jx: " + message):
        eval_matrix(spec, {}, 2, "jump Jx")


def test_writer_picks_the_shorter_form():
    m = np.zeros((4, 4), dtype=complex)
    m[0, 1] = m[2, 3] = 1.0
    m.view(float)[3, 1] = -0.0                    # stored: a negative zero
    doc = model_to_doc(models.Model("m", Representation(np.zeros((4, 4)), (m,)),
                                    {"u": np.eye(4)}))
    assert doc["jumps"][0]["matrix"] == {
        "sparse": [[0, 1, [1.0, 0.0]], [2, 3, [1.0, 0.0]], [3, 0, [-0.0, 0.0]]]}
    assert doc["hamiltonian"] == {"sparse": []}
    assert "sparse" in doc["symmetries"][0]["matrix"]    # 4 stored of 16
    doc = model_to_doc(models.get_model("twoqubit-II"))
    assert isinstance(doc["hamiltonian"], list)          # 8 of 16: not shorter
    assert all("sparse" in j["matrix"] for j in doc["jumps"])
    assert "sparse" in doc["symmetries"][0]["matrix"]
    # the single-qubit built-ins keep every matrix dense
    doc = model_to_doc(models.get_model("qubit-III"))
    assert all(isinstance(x["matrix"], list) for x in doc["jumps"] + doc["symmetries"])


@st.composite
def _sparse_models(draw):
    """Models of random sparsity with some zero parts written as -0.0."""
    dim = draw(st.integers(2, 5))
    density = draw(st.sampled_from([0.05, 0.2, 0.5, 1.0]))
    negative_zeros = draw(st.sampled_from([0.02, 0.1, 0.5]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def with_negative_zeros(m):
        parts = m.view(float)
        parts[(parts == 0) & (rng.random(parts.shape) < negative_zeros)] = -0.0
        return m

    def matrix():
        parts = np.where(rng.random((dim, dim, 1)) < density,
                         rng.standard_normal((dim, dim, 2)), 0.0)
        return with_negative_zeros(parts.view(complex)[..., 0])

    h = matrix()
    h = with_negative_zeros(h + h.conj().T)
    jumps = []
    for _ in range(draw(st.integers(0, 3))):
        j = matrix()
        if not j.any():
            j[rng.integers(dim), rng.integers(dim)] = 1.0
        jumps.append(j)
    symmetries = {f"U{k}": matrix() for k in range(draw(st.integers(0, 2)))}
    return models.Model("random", Representation(h, tuple(jumps)), symmetries)


@given(model=_sparse_models())
def test_model_doc_roundtrip_is_bit_exact(model):
    loaded = parse_model(json.dumps(model_to_doc(model)))
    _assert_same_bits(loaded, model)


def test_dense_chain_file_reads_as_its_sparse_copy(tmp_path, capsys):
    _check_dense_and_sparse_chain_files(3, tmp_path, capsys)


def test_dense_chain_file_above_small_dim_reads_as_its_sparse_copy(tmp_path, capsys):
    # at L = 4 (dim 81, above linalg.SMALL_DIM) the sparse file's operators
    # are CSR matrices and the dense file's arrays: check prints the same
    _check_dense_and_sparse_chain_files(4, tmp_path, capsys)


def _check_dense_and_sparse_chain_files(length, tmp_path, capsys):
    thetas = np.random.default_rng(7).uniform(0, 2 * np.pi, length)
    model = models.qutrit_chain(length, thetas=thetas)
    doc = model_to_doc(model)
    assert "sparse" in doc["jumps"][0]["matrix"]
    # the dense form every earlier version wrote: [re, im] rows of every matrix
    dense = dict(doc, hamiltonian=_matrix_doc(model.rep.hamiltonian))
    for key, mats in (("jumps", model.rep.jumps),
                      ("symmetries", model.symmetries.values())):
        dense[key] = [dict(item, matrix=_matrix_doc(m)) for item, m in zip(doc[key], mats)]
    paths = {"dense": tmp_path / "dense.json", "sparse": tmp_path / "sparse.json"}
    paths["dense"].write_text(json.dumps(dense, indent=2))
    dump_model(model, paths["sparse"])
    assert paths["sparse"].stat().st_size * 4 < paths["dense"].stat().st_size
    _assert_same_bits(load_model(paths["dense"]), load_model(paths["sparse"]))
    out = {}
    for form, path in paths.items():
        assert main(["check", str(path)]) == 0
        out[form] = capsys.readouterr().out
    assert out["dense"] == out["sparse"]


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


def test_examples_builds_the_qutrit_chain_beyond_four_sites(capsys):
    assert main(["examples", "qutrit-chain", "--param", "length=5"]) == 0
    assert '"dim": 243' in capsys.readouterr().out


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


def _exits_2(argv, capsys, *words):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    for word in words:
        assert word in err


def test_check_directory_exits_2(tmp_path, capsys):
    _exits_2(["check", str(tmp_path)], capsys, str(tmp_path))


def test_check_non_utf8_file_exits_2(tmp_path, capsys):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe" + json.dumps(QUBIT_DOC).encode("utf-16-le"))
    _exits_2(["check", str(path)], capsys, "not UTF-8")


def test_model_file_read_as_utf8_under_an_ascii_locale(tmp_path):
    path = tmp_path / "m.json"
    path.write_bytes(json.dumps(_qubit_doc(name="qubit-\u00e9"), ensure_ascii=False)
                     .encode("utf-8"))
    env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0",
               PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-m", "weaksym.cli", "check", str(path)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["model"] == "qubit-\u00e9"


@pytest.mark.parametrize("command", [
    ["check", "qubit-II"], ["verify-joint", "qubit-II"],
    ["report", "qubit-II", "--skip-simulation"], ["examples", "qubit-II"]])
def test_unwritable_out_exits_2(command, tmp_path, capsys):
    out = str(tmp_path / "missing" / "x.json")
    _exits_2(command + ["--out", out], capsys, out)


def test_simulate_out_on_a_file_exits_2(tmp_path, capsys):
    path = tmp_path / "taken"
    path.write_text("")
    _exits_2(["simulate", "qubit-III", "--n", "20", "--out", str(path)], capsys,
             str(path))


QUBIT_DOC = {"dim": 2, "parameters": {"g": 1e308},
             "hamiltonian": [[1, 0], [0, -1]],
             "jumps": [{"matrix": [[0, 1], [0, 0]]}, {"matrix": [[1, 0], [0, 0]]}],
             "symmetries": [{"name": "p", "matrix": [[1, 0], [0, -1]]}]}


OVERFLOWING_SYMMETRY = {"name": "p", "matrix": [[1, 0], [0, 1e200]]}


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
    (["check", "no-such-model"], None),
    (["check", "qubit-II", "--sym", "no-such-symmetry"], None),
    (["simulate", "qubit-III", "--threads", "0"], None),
    (["simulate", "qubit-III", "--threads", "-2"], None),
    (["simulate", "qubit-III", "--alpha", "nan"], None),
    (["simulate", "qubit-III", "--alpha", "1"], None),
    (["check"], _qubit_doc(hamiltonian={"sparse": [[0, 2, 1]]})),
    (["check"], _qubit_doc(hamiltonian={"sparse": [[-1, 0, 1]]})),
    (["check"], _qubit_doc(hamiltonian={"sparse": [[0, 0.0, 1]]})),
    (["check"], _qubit_doc(hamiltonian={"sparse": [[False, 0, 1]]})),
    (["check"], _qubit_doc(hamiltonian={"sparse": [[0, 0, 1], [0, 0, -1]]})),
    (["check"], _qubit_doc(hamiltonian={"sparse": [[0, 0]]})),
    (["check"], _qubit_doc(hamiltonian={"sparse": [[0, 0, 1, 0]]})),
    (["check"], _qubit_doc(hamiltonian={"sparse": "[[0, 0, 1]]"})),
    (["check"], _qubit_doc(hamiltonian={"sparse": [], "rows": 2})),
    (["check"], _qubit_doc(hamiltonian={"sparse": [[0, 0, "sqrt(-1)"]]})),
    (["check"], _qubit_doc(symmetries=[{"name": "p", "matrix": [[1, 0], [0, -1]]},
                                       {"name": "p", "matrix": [[0, 1], [1, 0]]}])),
    (["check"], _qubit_doc(expect={"p": {"condition_I": "false", "condition_II": True,
                                         "condition_III": True}})),
    (["check"], _qubit_doc(expect={"p": {"condition_I": True, "condition_II": True}})),
    (["check"], _qubit_doc(expect={"q": {"condition_I": True, "condition_II": True,
                                         "condition_III": True}})),
    (["check"], _qubit_doc(name=["x"])),
    (["check"], _qubit_doc(description=3)),
    (["check"], _qubit_doc(jumps=[{"name": ["x"], "matrix": [[0, 1], [0, 0]]}])),
    (["check"], _qubit_doc(symmetries=[{"name": 1, "matrix": [[1, 0], [0, -1]]}])),
    (["check"], _qubit_doc(jumps=[{"matrix": [[1e160, 0], [0, 0]]}])),
    (["check"], _entry_doc(1e51)),
    (["simulate", "--n", "20"], _qubit_doc(hamiltonian=[[1e9, 0], [0, -1e9]])),
    (["report", "--n", "20"], _qubit_doc(hamiltonian=[[1e9, 0], [0, -1e9]])),
    # U†U overflows to inf and nan, so the unitarity gap is not a number
    (["check"], _qubit_doc(symmetries=[OVERFLOWING_SYMMETRY])),
    (["verify-joint"], _qubit_doc(symmetries=[OVERFLOWING_SYMMETRY])),
    (["simulate", "--n", "20"], _qubit_doc(symmetries=[OVERFLOWING_SYMMETRY])),
], ids=["div-zero", "sqrt-negative", "overflow", "infinite", "complex-power",
        "dim-string", "jumps-not-array", "sjeds-overlap", "non-unitary", "n-zero",
        "horizon-negative", "tol-negative", "param-not-number", "bool-entry",
        "bool-parameter", "model-unknown", "sym-unknown", "threads-zero",
        "threads-negative", "alpha-nan", "alpha-one", "sparse-index-range",
        "sparse-index-negative", "sparse-index-float", "sparse-index-bool", "sparse-duplicate",
        "sparse-item-short", "sparse-item-long", "sparse-not-list",
        "sparse-extra-key", "sparse-bad-entry", "symmetry-name-twice",
        "expect-string-verdict", "expect-missing-verdict", "expect-unknown-symmetry",
        "name-not-string", "description-not-string", "jump-name-not-string",
        "symmetry-name-not-string", "jump-norm-too-large", "hamiltonian-norm-too-large",
        "simulate-stiff", "report-stiff", "check-unitarity-nan",
        "verify-joint-unitarity-nan", "simulate-unitarity-nan"])
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
_INDICES = st.one_of(st.integers(-1, 2), st.floats(), st.booleans(), st.text(max_size=2))
# sparse items: mostly [i, j, entry], sometimes of another length or kind
_SPARSE_ITEMS = st.one_of(
    st.tuples(_INDICES, _INDICES, _ENTRIES).map(list),
    st.lists(st.one_of(_INDICES, _ENTRIES), max_size=4), _ENTRIES)
# half the documents keep the valid dim, so the entries get evaluated
_DIMS = st.one_of(st.just(2), st.one_of(
    st.integers(-1, 3), st.floats(), st.text(max_size=3), st.booleans(), st.none(),
    st.lists(st.integers(0, 3), max_size=2)))


@given(entry=_ENTRIES, dim=_DIMS, g=st.one_of(st.floats(), st.booleans()),
       items=st.lists(_SPARSE_ITEMS, max_size=3))
def test_fuzz_model_scalars_and_dim(entry, dim, g, items):
    # the entry lands in the Hamiltonian, a jump and the symmetry; the
    # sparse items after [0, 0, 1] in the second jump
    doc = _qubit_doc(dim=dim, parameters={"g": g},
                     hamiltonian=[[entry, 0], [0, -1]],
                     jumps=[{"matrix": [[0, entry], [0, 0]]},
                            {"matrix": {"sparse": [[0, 0, 1], *items]}}],
                     symmetries=[{"name": "p", "matrix": [[1, 0], [0, entry]]}])
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        assert main(["check", path]) in (0, 1, 2)


def _main_output(argv):
    """(exit code, stdout, stderr) of an in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@given(name=st.sampled_from(["qubit-II", "twoqubit-II", "qubit-weak"]),
       k=st.integers(0, 300))
def test_fuzz_scaled_models(name, k):
    # H and the jumps scaled by 10^k: a model within the norm cap keeps its
    # verdicts, one beyond it exits 2, and nothing ends in a traceback.
    # simulate's horizon shrinks as 10^-2k, so the expected jump count per
    # trajectory (rates grow as 10^2k) stays that of the unscaled model
    model = models.get_model(name)
    scale = 10.0 ** k
    doc = model_to_doc(model)
    doc["hamiltonian"] = _matrix_doc(scale * model.rep.hamiltonian)
    for item, jump in zip(doc["jumps"], model.rep.jumps):
        item["matrix"] = _matrix_doc(scale * jump)
    too_large = scale * max(map(linalg.frob, (model.rep.hamiltonian, *model.rep.jumps))) \
        > 1e50
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        for argv in (["check", path], ["verify-joint", path],
                     ["simulate", path, "--n", "20", "--horizon", repr(10.0 ** (-2 * k))]):
            code, out, err = _main_output(argv)
            assert code in (0, 1, 2) and "Traceback" not in err
            if too_large:
                assert code == 2 and err.startswith("error:")
            elif argv[0] == "check":
                assert code == 0       # the verdicts match the model's expectations
            elif argv[0] == "verify-joint":
                assert code == 0
                for sym, entry in json.loads(out)["symmetries"].items():
                    assert tuple(entry["conditions"]) == model.expect[sym]


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


@pytest.mark.parametrize("name", list(models.BUILDERS))
def test_certified_joint_residuals_at_rounding(name):
    # the residuals are differences taken before their norms: a difference
    # of squared norms would leave a floor near sqrt(eps) here
    doc = run_verify_joint(analyze(models.get_model(name)))
    for entry in doc["symmetries"].values():
        _assert_joint_pattern(entry)
        assert all(r <= 1e-15 for r in entry["residuals"].values())


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


def _chain_file(tmp_path, length=3):
    """A seeded qutrit chain (dim 3^length, three symmetries) as a model file."""
    model = models.qutrit_chain(
        length, thetas=np.random.default_rng(7).uniform(0.0, 2 * np.pi, length))
    path = tmp_path / f"chain-L{length}.json"
    dump_model(model, path)
    return str(path)


@pytest.mark.parametrize("length", [3, 4])
def test_verify_joint_chain(length, tmp_path, capsys):
    # joint dimensions 189 and 729: no size cap, and no joint-size matrices
    path = _chain_file(tmp_path, length)
    t0 = time.perf_counter()
    assert main(["verify-joint", path]) == 0
    assert time.perf_counter() - t0 < 5.0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["symmetries"]) == 3
    for entry in doc["symmetries"].values():
        _assert_joint_pattern(entry)


def test_chain_check_makes_no_system_size_hermitian_eigensolve(tmp_path, monkeypatch):
    # a reset SJED's modes come from a thin SVD of its d x |S| sources
    sizes, eigh = [], np.linalg.eigh

    def recording(a, *args, **kwargs):
        sizes.append(np.shape(a)[-1])
        return eigh(a, *args, **kwargs)

    model = load_model(_chain_file(tmp_path, 4))
    monkeypatch.setattr(np.linalg, "eigh", recording)
    analysis = analyze(model)
    run_check(analysis)
    assert [s.kind for s in analysis.partition.sets] == ["reset"] * 4
    assert model.rep.dim not in sizes


def test_chain_commands_make_no_system_size_schur_or_full_stack_qr(tmp_path, monkeypatch):
    # the order comes from sparse powers of U and the images' QR from the
    # support columns; only off_block_mass (d <= 12) and the SJED lift read
    # an eigenbasis
    model = load_model(_chain_file(tmp_path, 4))
    d = model.rep.dim
    schur_sizes, eig_sizes, widths = [], [], []
    schur, eig, coordinates = (scipy.linalg.schur, linalg.unitary_eigendecomposition,
                               linalg.coordinates)

    def recording(log, f):
        def g(a, *args, **kwargs):
            log.append(np.shape(a)[-1])
            return f(a, *args, **kwargs)
        return g

    monkeypatch.setattr(scipy.linalg, "schur", recording(schur_sizes, schur))
    monkeypatch.setattr(linalg, "unitary_eigendecomposition",
                        recording(eig_sizes, eig))
    monkeypatch.setattr(linalg, "coordinates", recording(widths, coordinates))
    analysis = analyze(model)
    doc, _ = run_check(analysis)
    run_verify_joint(analysis)
    assert d not in schur_sizes and d not in eig_sizes
    assert widths and max(widths) < d * d
    assert [e["order"] for e in doc["symmetries"].values()] == [4, None, 4]


SMALL_MODELS = [name for name in models.BUILDERS if name != "qutrit-chain"] + ["chain-L3"]


@pytest.mark.parametrize("name", SMALL_MODELS)
def test_small_models_are_analysed_with_no_sparse_matrix(name, tmp_path, monkeypatch):
    # up to linalg.SMALL_DIM every operator, the symmetries' included, is an
    # array, so analyze, check and verify-joint construct no scipy.sparse matrix
    model = load_model(_chain_file(tmp_path)) if name == "chain-L3" else models.get_model(name)
    assert model.rep.dim <= linalg.SMALL_DIM
    built, init = [], scipy.sparse._base._spbase.__init__

    def counting(self, *args, **kwargs):
        built.append(type(self).__name__)
        init(self, *args, **kwargs)

    monkeypatch.setattr(scipy.sparse._base._spbase, "__init__", counting)
    analysis = analyze(model)
    run_check(analysis)
    run_verify_joint(analysis)
    assert built == []


def _assert_joint_pattern(entry):
    """Certified residuals where the verdicts hold, scan minima elsewhere."""
    c1, c2, c3 = entry["conditions"]
    assert c1 or not c2
    certified = {"dephased": c3, "partial": c2, "coarse": c2,
                 "rotating_frame": c1}
    assert set(entry["residuals"]) == {k for k, v in certified.items() if v}
    assert set(entry["scan_minima"]) == {k for k, v in certified.items()
                                         if not v and k != "rotating_frame"}
    assert all(r <= 1e-12 for r in entry["residuals"].values())
    assert all(r > 1e-9 for r in entry["scan_minima"].values())


def test_report_chain_includes_joint(tmp_path, capsys):
    assert main(["report", _chain_file(tmp_path), "--skip-simulation"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert "joint" in doc
    for entry in doc["joint"]["symmetries"].values():
        _assert_joint_pattern(entry)


@pytest.mark.parametrize("name, ensembles", [("chain-L3", 4), ("qubit-III", 2)])
def test_simulate_samples_reference_once(name, ensembles, tmp_path, monkeypatch,
                                         capsys, in_process_pool):
    # one sampler pass per command carries A, for every test and the
    # average, and one B per symmetry; with --threads 2, one job per chunk
    monkeypatch.delenv("WEAKSYM_THREADS", raising=False)
    _set_cpus(monkeypatch, 2)
    calls = []
    original = trajectories.sample_ensembles

    def counting(rep, starts, horizon, n, *args, **kwargs):
        calls.append((len(starts), n))
        return original(rep, starts, horizon, n, *args, **kwargs)

    monkeypatch.setattr(trajectories, "sample_ensembles", counting)
    model = _chain_file(tmp_path) if name == "chain-L3" else name
    for threads, jobs in (("1", [(ensembles, 40)]), ("2", [(ensembles, 20)] * 2)):
        calls.clear()
        assert main(["simulate", model, "--n", "40", "--horizon", "0.3",
                     "--threads", threads]) == 0
        assert calls == jobs
    assert in_process_pool == [2]


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


def test_block_completion_built_once_per_symmetry(tmp_path, monkeypatch, capsys):
    # condition II owns the certificate, which every part of a command that
    # reads it shares; simulate reads none
    calls = []
    original = symmetry.blockwise_unitary_completion

    def counting(rep, sym, *args, **kwargs):
        calls.append(sym)
        return original(rep, sym, *args, **kwargs)

    monkeypatch.setattr(symmetry, "blockwise_unitary_completion", counting)
    monkeypatch.delenv("WEAKSYM_THREADS", raising=False)
    path = _chain_file(tmp_path)
    sample = ["--n", "40", "--horizon", "0.3"]
    for argv in (["check", path], ["verify-joint", path], ["report", path, *sample]):
        calls.clear()
        assert main(argv) == 0
        assert 0 < len(calls) == len({id(sym) for sym in calls}) <= 3
    calls.clear()
    assert main(["simulate", path, *sample]) == 0
    assert calls == []


@pytest.mark.parametrize("chain", [False, True])
def test_simulate_decides_only_its_level(chain, tmp_path, monkeypatch, capsys):
    # each level decides the condition it tests, on those below it, and
    # forms no certificate; check decides and forms all of them
    calls = []

    def spy(owner, name):
        def counting(*args, _original=getattr(owner, name), **kwargs):
            calls.append(name)
            return _original(*args, **kwargs)
        monkeypatch.setattr(owner, name, counting)

    conditions = ["check_condition_I", "check_condition_II", "check_condition_III"]
    for name in (*conditions, "blockwise_unitary_completion"):
        spy(symmetry, name)
    spy(linalg.SpanMap, "certificate")
    monkeypatch.delenv("WEAKSYM_THREADS", raising=False)
    model = _chain_file(tmp_path) if chain else "qubit-III"
    nsym = len(cli._load(model).symmetries)
    for level, decided in (("unlabelled", 0), ("coarse", 2), ("full", 3)):
        calls.clear()
        assert main(["simulate", model, "--level", level, "--n", "40",
                     "--horizon", "0.3"]) == 0
        assert sorted(calls) == sorted(conditions[:decided] * nsym)
    calls.clear()
    assert main(["check", model]) == 0
    assert set(calls) == {*conditions, "blockwise_unitary_completion", "certificate"}


def test_lift_reads_the_certificate_and_the_images(tmp_path, monkeypatch):
    # the lift carries coefficients through condition II's block
    # certificate: no power of U and no conjugation once the images exist
    model = load_model(_chain_file(tmp_path, 4))
    partition = partition_from_groups(model.rep, model.sjed_groups)
    calls = []

    def forbidden(name):
        def record(*args, **kwargs):
            calls.append(name)
            raise AssertionError(name)
        return record

    for name in ("translation", "combined"):
        sym = SymmetryOperator.from_matrix(model.symmetries[name])
        sym.images(model.rep)
        monkeypatch.setattr(SymmetryOperator, "conjugate", forbidden("conjugate"))
        monkeypatch.setattr(np.linalg, "matrix_power", forbidden("matrix_power"))
        out, groups = lift_II_to_III(model.rep, sym, partition)
        monkeypatch.undo()
        assert not calls
        assert check_condition_III(out, sym).holds
        ok, _, r = same_unravelled_generator(
            model.rep, out, partition_a=partition,
            partition_b=partition_from_groups(out, groups))
        assert ok and r == 0


def test_check_forms_images_from_nonzeros(tmp_path, monkeypatch):
    # the images come from the operators' nonzero entries, with no dense
    # conjugation, and the pinned SJEDs are read from the loaded
    # representation's jumps, with no representation built per group
    path = _chain_file(tmp_path, 4)
    conjugations, validations = [], []
    conjugate, post_init = SymmetryOperator.conjugate, Representation.__post_init__
    monkeypatch.setattr(SymmetryOperator, "conjugate",
                        lambda self, a: conjugations.append(a) or conjugate(self, a))
    monkeypatch.setattr(Representation, "__post_init__",
                        lambda self: validations.append(self) or post_init(self))
    doc, _ = run_check(analyze(load_model(path)))
    assert len(conjugations) == 0 and len(validations) == 1
    assert [entry["order"] for entry in doc["symmetries"].values()] == [4, None, 4]


def test_check_and_simulate_form_no_kronecker_product(monkeypatch):
    # superoperator matrices come from lindblad's builder on (d, d, d, d)
    # views; every model is built and analysed before np.kron is refused
    analyses = {name: analyze(models.get_model(name)) for name in models.BUILDERS}

    def refused(*args, **kwargs):
        raise AssertionError("np.kron called")

    monkeypatch.setattr(np, "kron", refused)
    for analysis in analyses.values():
        run_check(analysis)
    doc = cli.run_simulate(analyses["qubit-III"], "full", 50, 1.0, 7, 0.01, None)
    assert "master_solution" in doc["ensemble_average"]


def test_verify_joint_forms_no_d2_qr_after_analyze(tmp_path, monkeypatch):
    # the checks factor one d^2-sized QR per symmetry; every joint residual
    # reads its coordinates, and the other QRs are of k_g coordinates only
    analysis = analyze(load_model(_chain_file(tmp_path)))
    shapes = []
    original = linalg.coordinates

    def counting(rows):
        shapes.append(rows.shape)
        return original(rows)

    monkeypatch.setattr(linalg, "coordinates", counting)
    run_verify_joint(analysis)
    assert shapes and sum(width == 27 ** 2 for _, width in shapes) == 0


def test_verify_joint_conjugates_once_per_symmetry(tmp_path, monkeypatch):
    # U H_eff U† is the one dense conjugation the images lack after analyze
    analysis = analyze(load_model(_chain_file(tmp_path)))
    calls = []
    original = SymmetryOperator.conjugate

    def counting(self, a):
        calls.append(self)
        return original(self, a)

    monkeypatch.setattr(SymmetryOperator, "conjugate", counting)
    run_verify_joint(analysis)
    assert len(calls) == len(analysis.symmetries) == 3


def test_verify_joint_reports_a_failed_block_completion(monkeypatch, capsys):
    # condition II holds but its block certificate cannot be completed: the
    # coarse relabelling is still certified, the partial step falls back
    # to its scan minimum and the rotating frame to condition I's unitary
    def failing(*args):
        raise symmetry.CompletionFailed("forced failure")

    monkeypatch.setattr(symmetry, "blockwise_unitary_completion", failing)
    assert main(["verify-joint", "qubit-II"]) == 0
    out = json.loads(capsys.readouterr().out)["symmetries"]
    for entry in out.values():
        c1, c2, _ = entry["conditions"]
        if c2:
            assert "coarse" in entry["residuals"] and "partial" in entry["scan_minima"]
            assert "partial" not in entry["residuals"]
        assert ("rotating_frame" in entry["residuals"]) == c1
    assert any(entry["conditions"][1] for entry in out.values())
    assert main(["check", "qubit-II"]) in (0, 1)
    check = json.loads(capsys.readouterr().out)["symmetries"]
    failed = [e for e in check.values() if e["condition_II"]]
    assert failed and all(e["sjed_block_unitary"] is None
                          and e["sjed_block_unitary_error"] == "forced failure"
                          for e in failed)


SZ_DOC = [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]]
JUMP_FREE = {"name": "jump-free", "dim": 2, "hamiltonian": SZ_DOC, "jumps": [],
             "symmetries": [{"name": "parity", "matrix": SZ_DOC},
                            {"name": "flip",
                             "matrix": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]}],
             "expect": {"parity": {"condition_I": True, "condition_II": True,
                                   "condition_III": True}}}


@pytest.mark.parametrize("command", ["check", "verify-joint", "report"])
def test_jump_free_model_gives_verdicts(command, tmp_path, capsys):
    # no jumps: the block certificate is 0 x 0, and no command fails
    path = tmp_path / "jump-free.json"
    path.write_text(json.dumps(JUMP_FREE))
    assert main([command, str(path)]) in (0, 1)
    doc = json.loads(capsys.readouterr().out)
    check = doc if command == "check" else doc.get("check")
    if check is not None:
        parity, flip = check["symmetries"]["parity"], check["symmetries"]["flip"]
        assert parity["sjed_block_unitary"] == [] and parity["matches_expectation"]
        assert [flip[f"condition_{c}"] for c in ("I", "II", "III")] == [False] * 3
    joint = doc if command == "verify-joint" else doc.get("joint")
    if joint is not None:
        assert joint["symmetries"]["parity"]["conditions"] == [True, True, True]
        assert max(joint["symmetries"]["parity"]["residuals"].values()) <= 1e-12


def test_simulate_threads_match_serial(tmp_path, monkeypatch, capsys):
    _set_cpus(monkeypatch, 2)
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


def _set_cpus(monkeypatch, count):
    """Let this process run on count CPUs, by its affinity mask and by
    os.cpu_count, whichever the platform reads."""
    monkeypatch.setattr(os, "cpu_count", lambda: count)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)),
                        raising=False)


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


def _sample(rep, psi0, threads):
    """One ensemble through cli._sample: 64 trajectories to 0.5, seed 7."""
    return cli._sample(rep, [(psi0, 7)], 0.5, 64, threads)[0]


def test_thread_pool_capped_at_cpu_count(monkeypatch, in_process_pool):
    from weaksym.lindblad import pure_state
    workers = in_process_pool
    _set_cpus(monkeypatch, 3)
    model = models.qubit_weak()
    psi0 = pure_state(np.ones(2))
    pooled = _sample(model.rep, psi0, 10**6)
    serial = _sample(model.rep, psi0, 1)
    assert workers == [3]
    assert event_lists(pooled) == event_lists(serial)
    assert np.array_equal(pooled.states[0.5], serial.states[0.5])


def test_thread_pool_capped_at_the_affinity_mask(monkeypatch, in_process_pool):
    # pinned to one CPU (taskset) on a two-CPU machine: one chunk, no pool
    from weaksym.lindblad import pure_state
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    calls, original = [], trajectories.sample_ensembles

    def counting(rep, starts, horizon, n, *args, **kwargs):
        calls.append(n)
        return original(rep, starts, horizon, n, *args, **kwargs)

    monkeypatch.setattr(trajectories, "sample_ensembles", counting)
    model = models.qubit_weak()
    psi0 = pure_state(np.ones(2))
    pinned = _sample(model.rep, psi0, 2)
    assert calls == [64] and in_process_pool == []
    _set_cpus(monkeypatch, 2)
    pooled = _sample(model.rep, psi0, 2)
    assert calls == [64, 32, 32] and in_process_pool == [2]
    assert event_lists(pinned) == event_lists(pooled)
    assert np.array_equal(pinned.states[0.5], pooled.states[0.5])


def test_report_honours_weaksym_threads(monkeypatch, capsys, in_process_pool):
    _set_cpus(monkeypatch, 2)
    docs = []
    for value in ("1", "2"):
        monkeypatch.setenv("WEAKSYM_THREADS", value)
        assert main(["report", "qubit-III", "--n", "60", "--horizon", "0.5"]) == 0
        doc = json.loads(capsys.readouterr().out)
        del doc["elapsed_seconds"]
        docs.append(doc)
    assert in_process_pool == [2]
    assert docs[0] == docs[1]


@pytest.mark.parametrize("value", ["abc", "0"])
def test_report_reads_weaksym_threads_only_when_simulating(value, monkeypatch,
                                                          capsys):
    monkeypatch.setenv("WEAKSYM_THREADS", value)
    assert main(["report", "qubit-III", "--skip-simulation"]) == 0
    capsys.readouterr()
    assert main(["report", "qubit-III", "--n", "20", "--horizon", "0.2"]) == 2
    out, err = capsys.readouterr()
    assert not out and err.startswith("error: WEAKSYM_THREADS")


def test_threaded_sampling_matches_serial(monkeypatch, capsys):
    from weaksym.lindblad import pure_state
    model = models.qubit_weak()
    psi0 = pure_state(np.ones(2))
    serial = _sample(model.rep, psi0, 1)
    parallel = _sample(model.rep, psi0, 4)
    assert event_lists(serial) == event_lists(parallel)
    assert np.array_equal(serial.states[0.5], parallel.states[0.5])
    # chunks of any sizes join to the serial ensemble
    joined = trajectories.TrajectoryEnsemble.join(
        sample_one(model.rep, psi0, 0.5, b - a, seed=7, checkpoint_times=(0.5,),
                   first_index=a)
        for a, b in ((0, 1), (1, 40), (40, 64)))
    assert event_lists(serial) == event_lists(joined)
    assert np.array_equal(serial.states[0.5], joined.states[0.5])
    assert (joined.horizon, joined.seed, joined.rep_fingerprint) == \
        (serial.horizon, serial.seed, serial.rep_fingerprint)
    # fewer than 2 trajectories a process: no pool, the serial bytes
    _set_cpus(monkeypatch, 2)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", None)
    outs = []
    for threads in ("1", "2"):
        assert main(["simulate", "qubit-III", "--n", "3", "--threads", threads]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


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
    _set_cpus(monkeypatch, 3)
    model = models.qubit_weak()
    psi0 = pure_state(np.ones(2))
    pooled = _sample(model.rep, psi0, 3)
    chunks = [sample_one(model.rep, psi0, 0.5, b - a, seed=7, checkpoint_times=(0.5,),
                         first_index=a)
              for a, b in ((0, 21), (21, 42), (42, 64))]
    joined = trajectories.TrajectoryEnsemble.join(chunks)
    assert in_process_pool == [3]
    assert event_lists(pooled) == event_lists(joined)
    assert np.array_equal(pooled.states[0.5], joined.states[0.5])
    assert pooled.stats == joined.stats
    assert pooled.stats == {k: sum(c.stats[k] for c in chunks) for k in chunks[0].stats}
    assert pooled.stats["jumps"] == sum(len(rec) for rec in event_lists(pooled))
    assert pooled.stats["grid_steps"] == 3 * chunks[0].stats["grid_steps"]


def test_simulate_opens_one_pool(tmp_path, monkeypatch, capsys, in_process_pool):
    # the reference ensemble and one per symmetry of the chain share a pool
    _set_cpus(monkeypatch, 2)
    assert main(["simulate", _chain_file(tmp_path), "--n", "40", "--horizon", "0.5",
                 "--threads", "2"]) == 0
    assert len(json.loads(capsys.readouterr().out)["tests"]) == 3
    assert in_process_pool == [2]


def test_simulate_horizon_beyond_the_grid_cap_prints_a_short_count(capsys):
    for horizon, count in (("1e300", "4.44e+300 grid steps"), ("1e308", "inf grid steps")):
        _exits_2(["simulate", "qubit-weak", "--horizon", horizon], capsys, count)


@pytest.mark.parametrize("length", ["0", "-1", "1.5"])
def test_qutrit_chain_refuses_a_length_that_is_no_site_count(length, capsys):
    _exits_2(["examples", "qutrit-chain", "--param", f"length={length}"], capsys,
             "bad parameter for qutrit-chain: length")


@pytest.mark.parametrize("command", ["check", "verify-joint", "simulate"])
def test_unallocatable_dim_exits_2_naming_dim(command, tmp_path, capsys):
    # numpy refuses a 1e9 x 1e9 complex array outright ("array is too big")
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"dim": 10 ** 9, "hamiltonian": {"sparse": []}}))
    assert main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: 'dim' 1000000000:") and err.count("\n") == 1


def test_sparse_dim_beyond_a_dense_array_runs_check_and_names_the_dense_stage(
        tmp_path, capsys):
    # 10^6 x 10^6 complex entries are 16 TB, but the CSR form of three
    # entries keeps two 8 MB row pointer arrays: check reads no dense
    # operator, while sampling and the joint generator steps need H_eff
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({
        "dim": 10 ** 6, "hamiltonian": {"sparse": [[0, 0, 1.0]]},
        "jumps": [{"matrix": {"sparse": [[0, 0, 1.0], [1, 1, -1.0]]}}]}))
    assert main(["check", str(path)]) == 0
    out, err = capsys.readouterr()
    assert json.loads(out)["sjeds"] == [{"indices": [0], "kind": "proportional"}]
    assert err == ""
    for argv in (["simulate", str(path), "--n", "2"], ["verify-joint", str(path)]):
        _exits_2(argv, capsys, f"error: {argv[0]} ran out of memory: the effective "
                 "Hamiltonian needs a dense 1000000 x 1000000 array")


@pytest.mark.parametrize("d", [8, linalg.SMALL_DIM + 8])
def test_sparse_negative_zeros_keep_the_fingerprint_and_the_file(d, tmp_path):
    # a sparse file's -0.0 parts are stored entries: its model, CSR above
    # linalg.SMALL_DIM, hashes as the dense one with those bits, its
    # symmetry's matrix keeps them, and dump_model writes the file back
    rng = np.random.default_rng(4)
    h = np.zeros((d, d), dtype=complex)
    h[np.arange(d), np.arange(d)] = rng.standard_normal(d)
    h.view(float)[0, 3] = h.view(float)[2, 5] = -0.0      # zero parts, signed
    j = np.zeros((d, d), dtype=complex)
    j[0, 3], j[4, 1] = 0.5 - 0.25j, -1.0
    j.view(float)[6, 2 * 7] = -0.0
    u = np.eye(d, dtype=complex)[rng.permutation(d)]
    u.view(float)[1, 2 * 4 + 1] = -0.0
    model = models.Model("zeros", Representation(h, (j,)), {"perm": u})
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    dump_model(model, first)
    loaded = load_model(first)
    assert all(scipy.sparse.issparse(m) == (d > linalg.SMALL_DIM) for m in (
        loaded.rep.hamiltonian, *loaded.rep.jumps, *loaded.symmetries.values()))
    assert np.count_nonzero(linalg.stored(linalg.dense(loaded.rep.jumps[0]))) == 3
    _assert_same_bits(loaded, model)
    matrix = symmetry.SymmetryOperator.from_matrix(loaded.symmetries["perm"]).matrix
    assert matrix.tobytes() == u.tobytes()
    dump_model(loaded, second)
    assert second.read_bytes() == first.read_bytes()


def test_check_on_the_l5_chain_forms_no_dense_operator(tmp_path):
    # load, analysis and check of the seeded L=5 chain (d = 243) stay in
    # the operators' CSR form: one dense 243 x 243 array is 0.9 MiB, and
    # every operator made dense once held 21.3 MiB at the peak
    path = _chain_file(tmp_path, 5)
    tracemalloc.start()
    try:
        result, ok = run_check(analyze(load_model(path)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ok and result["symmetries"]["combined"]["condition_III"]
    assert peak < 8 * 2 ** 20


BUILTINS = [name for name in models.BUILDERS if name != "qutrit-chain"]


@pytest.mark.parametrize("tol", ["5e-324", "1e-17", "1e-16", "3e-16", "1e-12"])
def test_check_at_or_below_the_rounding_floor_meets_every_expectation(tol, capsys):
    # tau(tol) never drops below linalg.ROUNDING_FLOOR, so rounding decides
    # no verdict and no SJED membership
    for name in BUILTINS:
        assert main(["check", name, "--tol", tol]) == 0, name
        assert capsys.readouterr().err == ""


@pytest.mark.parametrize("tol", ["5e-324", "1e-17", "0.5", "0.999", "1", "1.7e308"])
@pytest.mark.parametrize("command", ["check", "verify-joint"])
def test_every_tol_answers_or_exits_2_with_one_error_line(command, tol, capsys):
    # a relative tolerance of 1 or more is a usage error
    for name in ("qubit-weak", "qubit-I", "twoqubit-weak", "twoqubit-I"):
        code = main([command, name, "--tol", tol])
        err = capsys.readouterr().err
        if float(tol) < 1:
            assert code in (0, 1) and err == "", name
        else:
            assert code == 2 and err.startswith("error:") and err.count("error:") == 1


def test_simulate_grid_step_cap_exits_2_fast(tmp_path, capsys):
    # ||H_eff|| ~ 1.4e5 needs about 3.1e5 grid steps to horizon 1
    path = tmp_path / "stiff.json"
    path.write_text(json.dumps({"dim": 2, "hamiltonian": [[1e5, 0], [0, -1e5]],
                                "jumps": [{"matrix": [[0, 0], [1, 0]]}]}))
    start = time.perf_counter()
    _exits_2(["simulate", str(path), "--n", "20"], capsys, "grid steps",
             str(trajectories.MAX_GRID_STEPS))
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("module", ["weaksym", "weaksym.cli"])
def test_import_leaves_scipy_optimize_and_stats_unloaded(module):
    # each costs a third or more of the start-up of every command
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src")
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import {module}, sys; print(sorted({{'scipy.optimize', 'scipy.stats'}}"
         " & sys.modules.keys()))"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("error", [MemoryError(),
                                   MemoryError("Unable to allocate 812. MiB")])
def test_memory_error_exits_2_with_one_line(error, monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise error
    monkeypatch.setattr(cli, "analyze", exhausted)
    assert main(["verify-joint", "qubit-II"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: verify-joint ran out of memory")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert str(error) in err
