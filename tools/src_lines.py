"""Count the lines of a source tree by category, per module and in total.

    python3 tools/src_lines.py SRC
    python3 tools/src_lines.py BASE_SRC HEAD_SRC

Every line of every ``.py`` file under SRC is one of: a docstring line
(the string that opens a module, class or function body, from its first
to its last line), blank or comment (empty, or ``#`` first once leading
space is stripped), or code (any other).  With two trees it prints
HEAD's counts with the change from BASE in brackets, a module missing from
one tree counting as zero there.  Uses the standard library only.
"""

from __future__ import annotations

import argparse
import ast
import os
import sys

CATEGORIES = ("code", "docstring", "blank/comment")


def docstring_lines(tree: ast.AST) -> set:
    """Line numbers of the docstrings of a module and its classes and
    functions."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                out.update(range(first.lineno, first.end_lineno + 1))
    return out


def count_file(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    docs = docstring_lines(ast.parse(text, path))
    counts = dict.fromkeys(CATEGORIES, 0)
    for number, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if number in docs:
            counts["docstring"] += 1
        elif not stripped or stripped.startswith("#"):
            counts["blank/comment"] += 1
        else:
            counts["code"] += 1
    return counts


def count_tree(root: str) -> dict:
    """{module path relative to root: counts} for every .py file under root."""
    out = {}
    for folder, dirs, files in os.walk(root):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                out[os.path.relpath(path, root)] = count_file(path)
    return out


def total(counts) -> dict:
    return {c: sum(m[c] for m in counts) for c in CATEGORIES}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs="+", metavar="SRC",
                        help="one source tree, or BASE_SRC HEAD_SRC")
    args = parser.parse_args(argv)
    if len(args.trees) > 2:
        parser.error("give one tree, or a base tree and a head tree")
    head = count_tree(args.trees[-1])
    base = count_tree(args.trees[0]) if len(args.trees) == 2 else None
    zero = dict.fromkeys(CATEGORIES, 0)
    rows = [(m, head.get(m, zero), None if base is None else base.get(m, zero))
            for m in sorted(head.keys() | (base or {}).keys())]
    rows.append(("total", total(head.values()),
                 None if base is None else total(base.values())))
    width = max(len(m) for m, _, _ in rows)
    print(f"{'module':<{width}}" + "".join(f"{c:>18}" for c in (*CATEGORIES, "lines")))
    for module, new, old in rows:
        cells = []
        for c in (*CATEGORIES, "lines"):
            value = sum(new.values()) if c == "lines" else new[c]
            if old is not None:
                delta = value - (sum(old.values()) if c == "lines" else old[c])
                cells.append(f"{value} ({delta:+d})")
            else:
                cells.append(str(value))
        print(f"{module:<{width}}" + "".join(f"{x:>18}" for x in cells))
    return 0


if __name__ == "__main__":
    sys.exit(main())
