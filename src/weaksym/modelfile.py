"""Model file parsing and serialization.

Models are JSON documents with named parameters substituted into matrix
entries.  An entry is a real number, an arithmetic expression string
over the parameters, or a [re, im] pair of either.  Example::

    {
      "name": "qubit-weak",
      "dim": 2,
      "parameters": {"omega": 1.0, "gamma_z": 1.0},
      "hamiltonian": [["omega", 0], [0, "-omega"]],
      "jumps": [{"name": "Jz", "matrix": [["sqrt(gamma_z)", 0], [0, "-sqrt(gamma_z)"]]}],
      "symmetries": [{"name": "parity", "matrix": [[1, 0], [0, -1]]}],
      "sjeds": [[0], [1]],
      "expect": {"parity": {"condition_I": true, "condition_II": true,
                            "condition_III": true}}
    }

A matrix is either its dim rows of entries, as above, or the listed
entries of a sparse form, every other entry being 0::

    "matrix": {"sparse": [[0, 1, "sqrt(gamma)"], [1, 0, [0, -1.5]]]}

Each item is [row, column, entry] with integer indices in [0, dim) and
no (row, column) listed twice.  Either form loads in the working form
its dim decides (linalg.working), signed zeros kept.  `model_to_doc`
writes a matrix sparse when fewer than half of its entries are stored,
that is have a part that is nonzero or a negative zero, so the file holds
fewer numbers; either form reads back bit for bit.
"""

from __future__ import annotations

import ast
import itertools
import json
import math
import operator

import numpy as np

from . import linalg
from .lindblad import Representation
from .models import Model


class ParseError(ValueError):
    pass


_BINOPS = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
    ast.Pow: math.pow,    # real or ValueError, where operator.pow goes complex
}
_UNARY = {ast.UAdd: operator.pos, ast.USub: operator.neg}
_FUNCS = {
    "sqrt": math.sqrt,
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "exp": math.exp,
    "log": math.log,
    "atan2": math.atan2,
    "deg2rad": math.radians,
    "abs": abs,
}
_CONSTS = {"pi": math.pi, "e": math.e}
_PLAIN_NUMBERS = frozenset((int, float))   # exact types: bool is not one
_CONDITIONS = ("condition_I", "condition_II", "condition_III")
MAX_DIM = 2 ** 24    # largest dim of a sparse matrix, whose CSR form keeps dim + 1 row pointers


def _is_number(value) -> bool:
    """A JSON or Python number; booleans are ints to isinstance but not here."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _walk(node, expr: str, parameters: dict) -> float:
    if isinstance(node, ast.Expression):
        return _walk(node.body, expr, parameters)
    if isinstance(node, ast.Constant):
        if _is_number(node.value):
            return float(node.value)
        raise ParseError(f"invalid constant {node.value!r}")
    if isinstance(node, ast.Name):
        if node.id in parameters:
            return float(parameters[node.id])
        if node.id in _CONSTS:
            return _CONSTS[node.id]
        raise ParseError(f"unknown name {node.id!r} in {expr!r}")
    if isinstance(node, ast.BinOp):
        if type(node.op) not in _BINOPS:
            raise ParseError(f"operator not allowed in {expr!r}")
        return _BINOPS[type(node.op)](_walk(node.left, expr, parameters),
                                      _walk(node.right, expr, parameters))
    if isinstance(node, ast.UnaryOp):
        if type(node.op) not in _UNARY:
            raise ParseError(f"operator not allowed in {expr!r}")
        return _UNARY[type(node.op)](_walk(node.operand, expr, parameters))
    if isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.func.id not in _FUNCS:
            raise ParseError(f"function not allowed in {expr!r}")
        return _FUNCS[node.func.id](*[_walk(a, expr, parameters) for a in node.args])
    raise ParseError(f"unsupported syntax in {expr!r}")


def eval_scalar(expr, parameters: dict) -> float:
    """Evaluate a finite real scalar: a number or a parameter expression."""
    try:
        if _is_number(expr):
            value = float(expr)
        elif isinstance(expr, str):
            value = _walk(ast.parse(expr, mode="eval"), expr, parameters)
        else:
            raise ParseError(f"scalar entry must be number or string, got {expr!r}")
    except ParseError:
        raise
    except (SyntaxError, ArithmeticError, ValueError, TypeError, RecursionError) as exc:
        raise ParseError(f"cannot evaluate {expr!r}: {exc}") from exc
    if not math.isfinite(value):
        raise ParseError(f"{expr!r} is not finite")
    return value


def eval_entry(entry, parameters: dict) -> complex:
    """Evaluate one matrix entry: scalar or [re, im] pair."""
    if isinstance(entry, list):
        if len(entry) != 2:
            raise ParseError(f"complex entry must be [re, im], got {entry!r}")
        return complex(eval_scalar(entry[0], parameters),
                       eval_scalar(entry[1], parameters))
    return complex(eval_scalar(entry, parameters), 0.0)


def _numeric_row(row: list):
    """A row (or the sparse entries) of [re, im] pairs of plain numbers as
    its flat float parts.

    None when any part is a string, a boolean or anything but an int or a
    float, or when a value overflows or is not finite: such rows go
    through eval_entry, which names the offending entry.
    """
    if set(map(type, row)) != {list} or set(map(len, row)) != {2}:
        return None
    parts = list(itertools.chain.from_iterable(row))
    if not _PLAIN_NUMBERS.issuperset(map(type, parts)):
        return None
    try:
        values = np.array(parts, dtype=float)
    except OverflowError:
        return None
    return values if np.isfinite(values).all() else None


def _sparse_items(items: list, dim: int, what: str) -> tuple:
    """(pairs, order, entries) of [i, j, entry] items: the (row, column)
    pairs sorted row-major, the item order that sorts them (an index array
    or a slice) and the entries in item order.  Items in the form
    dump_model writes, row-major with none repeated, are checked in bulk;
    any others go item by item, which names the first item at fault."""
    if set(map(type, items)) <= {list} and set(map(len, items)) <= {3}:
        rows, cols, entries = zip(*items) if items else ((), (), ())
        if set(map(type, rows + cols)) <= {int}:     # no bool
            try:
                ij = np.array((rows, cols), dtype=np.int64).reshape(2, -1)
            except OverflowError:
                ij = np.full((2, 1), -1)
            flat = ij[0] * dim + ij[1]        # dim <= MAX_DIM: no overflow
            if ((ij >= 0) & (ij < dim)).all() and (flat[1:] > flat[:-1]).all():
                return ij, slice(None), entries
    listed = {}      # i * dim + j -> entry, in item order
    for k, item in enumerate(items):
        if not isinstance(item, list) or len(item) != 3:
            raise ParseError(f"{what}: sparse item {k} must be [i, j, entry], "
                             f"got {item!r}")
        i, j, entry = item
        if type(i) is not int or type(j) is not int or not (
                0 <= i < dim and 0 <= j < dim):
            raise ParseError(f"{what}: sparse item {k}: indices must be integers "
                             f"in [0, {dim}), got {i!r}, {j!r}")
        if i * dim + j in listed:
            raise ParseError(f"{what}: sparse item {k}: entry ({i}, {j}) is "
                             f"listed twice")
        listed[i * dim + j] = entry
    flat = np.fromiter(listed, np.int64, len(listed))
    order = np.argsort(flat)
    return np.array(np.divmod(flat[order], dim)).reshape(2, -1), order, list(listed.values())


def _sparse_matrix(spec: dict, parameters: dict, dim: int, what: str):
    """A {"sparse": [[i, j, entry], ...]} matrix in its working form
    (linalg.from_entries); unlisted entries are 0, and every bit of a
    listed one, signed zeros included, is kept."""
    for key in spec:
        if key != "sparse":
            raise ParseError(f"{what}: unexpected key {key!r} beside 'sparse'")
    items = spec.get("sparse")
    if not isinstance(items, list):
        raise ParseError(f"{what}: 'sparse' must be a list of [i, j, entry] items")
    if dim > MAX_DIM:
        raise ParseError(f"'dim' {dim}: above {MAX_DIM}, the largest a sparse matrix "
                         "takes (it keeps dim + 1 row pointers)")
    pairs, order, entries = _sparse_items(items, dim, what)
    values = _numeric_row(entries)
    if values is None:
        values = []
        for k, entry in enumerate(entries):
            try:
                value = eval_entry(entry, parameters)
            except ParseError as exc:
                raise ParseError(f"{what}: sparse item {k}, entry "
                                 f"({items[k][0]}, {items[k][1]}): {exc}") from exc
            values += (value.real, value.imag)
    # the parts land bit for bit: re + 1j * im would turn -0.0 into +0.0
    data = np.asarray(values, dtype=float).view(complex)[order]
    return linalg.from_entries(*pairs, data, dim)


def eval_matrix(rows, parameters: dict, dim: int, what: str):
    """A matrix given as dim rows of entries or as sparse items, in its
    working form (linalg.working)."""
    if isinstance(rows, dict):
        return _sparse_matrix(rows, parameters, dim, what)
    if not isinstance(rows, list) or len(rows) != dim:
        raise ParseError(f"{what}: expected {dim} rows or a {{\"sparse\": [...]}} object")
    out = np.zeros((dim, dim), dtype=complex)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != dim:
            raise ParseError(f"{what}: row {i} must have {dim} entries")
        values = _numeric_row(row)
        if values is not None:
            # the parts land bit for bit: re + 1j * im would turn -0.0 into +0.0
            out.view(float)[i] = values
            continue
        for j, entry in enumerate(row):
            try:
                out[i, j] = eval_entry(entry, parameters)
            except ParseError as exc:
                raise ParseError(f"{what}: entry ({i}, {j}): {exc}") from exc
    return linalg.working(out)


def _field(doc: dict, key: str, kind: type):
    """doc[key], empty when absent, which must be a JSON array or object."""
    value = doc.get(key, kind())
    if not isinstance(value, kind):
        what = "array" if kind is list else "object"
        raise ParseError(f"'{key}' must be a JSON {what}")
    return value


def _text(doc: dict, key: str, default: str, what: str) -> str:
    """doc[key], default when absent, which must be a JSON string."""
    value = doc.get(key, default)
    if not isinstance(value, str):
        raise ParseError(f"{what} must be a JSON string, got {value!r}")
    return value


def parse_model(doc) -> Model:
    """Build a Model from a parsed JSON document."""
    if isinstance(doc, str):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as exc:
            raise ParseError(
                f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
            ) from exc
        except (ValueError, RecursionError) as exc:
            raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("model document must be a JSON object")
    if "dim" not in doc:
        raise ParseError("missing field 'dim'")
    dim = doc["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise ParseError(f"'dim' must be a positive integer, got {dim!r}")
    parameters = dict(_field(doc, "parameters", dict))
    for k, v in parameters.items():
        if not _is_number(v):
            raise ParseError(f"parameter {k!r} must be a real number")
    if "hamiltonian" not in doc:
        raise ParseError("missing field 'hamiltonian'")
    h = eval_matrix(doc["hamiltonian"], parameters, dim, "hamiltonian")
    jumps = []
    labels = []
    for k, item in enumerate(_field(doc, "jumps", list)):
        if not isinstance(item, dict) or "matrix" not in item:
            raise ParseError(f"jump {k} must be an object with a 'matrix'")
        labels.append(_text(item, "name", f"J{k + 1}", f"jump {k} name"))
        jumps.append(eval_matrix(item["matrix"], parameters, dim, f"jump {labels[-1]}"))
    symmetries = {}
    for k, item in enumerate(_field(doc, "symmetries", list)):
        if not isinstance(item, dict) or "matrix" not in item:
            raise ParseError(f"symmetry {k} must be an object with a 'matrix'")
        name = _text(item, "name", f"U{k + 1}", f"symmetry {k} name")
        if name in symmetries:
            raise ParseError(f"symmetry name {name!r} is given twice")
        symmetries[name] = eval_matrix(item["matrix"], parameters, dim,
                                       f"symmetry {name}")
    groups = doc.get("sjeds")
    if groups is not None:
        if not isinstance(groups, list) or not all(
                isinstance(g, list) and all(type(i) is int for i in g) for g in groups):
            raise ParseError("'sjeds' must be a list of lists of jump indices")
        groups = tuple(tuple(g) for g in groups)
    expect = {}
    for name, verdicts in _field(doc, "expect", dict).items():
        if name not in symmetries:
            raise ParseError(f"expect {name!r} names no symmetry of the model")
        if not isinstance(verdicts, dict):
            raise ParseError(f"expect {name!r} must be a JSON object")
        expect[name] = tuple(verdicts.get(c) for c in _CONDITIONS)
        for c, verdict in zip(_CONDITIONS, expect[name]):
            if type(verdict) is not bool:
                raise ParseError(f"expect {name!r}: {c} must be true or false, "
                                 f"got {verdict!r}")
    try:
        rep = Representation(h, tuple(jumps), tuple(labels))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    return Model(_text(doc, "name", "model", "'name'"), rep, symmetries,
                 sjed_groups=groups, expect=expect,
                 description=_text(doc, "description", "", "'description'"),
                 parameters=parameters)


def load_model(path) -> Model:
    """Parse a model file, read as UTF-8 (JSON's encoding)."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte "
                         f"{exc.start})") from exc
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror or exc}") from exc
    return parse_model(text)


def _matrix_doc(m):
    """A complex array (or sparse matrix, made dense) as nested [re, im]
    pairs; None stays None."""
    if m is None:
        return None
    m = np.asarray(linalg.dense(m), dtype=complex)
    return np.stack([m.real, m.imag], axis=-1).tolist()


def _model_matrix_doc(m):
    """A model matrix in its shorter form: sparse [i, j, [re, im]] items
    when 2·stored < d², dense rows otherwise.  Its stored entries
    (linalg.entries) are those with a part that is nonzero or a negative
    zero, so either form reads back bit for bit."""
    rows, cols, values = linalg.entries(m)
    if 2 * rows.size >= math.prod(np.shape(m)):
        return _matrix_doc(m)
    return {"sparse": [[i, j, [re, im]] for i, j, re, im in zip(
        rows.tolist(), cols.tolist(), values.real.tolist(), values.imag.tolist())]}


def model_to_doc(model: Model) -> dict:
    """Serialize a Model to a JSON-ready document (numeric entries, each
    matrix in its shorter form)."""
    doc = {
        "name": model.name,
        "description": model.description,
        "dim": model.rep.dim,
        "parameters": {k: v for k, v in model.parameters.items()
                       if _is_number(v)},
        "hamiltonian": _model_matrix_doc(model.rep.hamiltonian),
        "jumps": [{"name": lbl, "matrix": _model_matrix_doc(j)}
                  for lbl, j in zip(model.rep.labels, model.rep.jumps)],
        "symmetries": [{"name": n, "matrix": _model_matrix_doc(u)}
                       for n, u in model.symmetries.items()],
    }
    if model.sjed_groups is not None:
        doc["sjeds"] = [list(g) for g in model.sjed_groups]
    if model.expect:
        doc["expect"] = {name: dict(zip(_CONDITIONS, v))
                         for name, v in model.expect.items()}
    return doc


def dump_model(model: Model, path) -> None:
    with open(path, "w") as fh:
        json.dump(model_to_doc(model), fh, indent=2)
        fh.write("\n")


__all__ = ["ParseError", "dump_model", "eval_scalar", "load_model",
           "model_to_doc", "parse_model"]
