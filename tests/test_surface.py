"""The README's public-surface table against the names the modules export."""

import importlib
import inspect
import re
from pathlib import Path

import conftest

ROOT = Path(__file__).resolve().parents[1]
DECISIONS = {"statement", "CLI", "test oracle"}
# the models builders and the cli commands take one row each
WHOLE_MODULE_ROWS = {"models.BUILDERS", "cli.main"}


def _exported() -> set:
    """module.name of every name in scope: the __all__ lists of the six
    modules that keep one, and linalg's public functions and classes."""
    names = set()
    for module in ("lindblad", "sjed", "symmetry", "dilation", "trajectories", "modelfile"):
        names.update(f"{module}.{n}" for n in importlib.import_module(f"weaksym.{module}").__all__)
    linalg = importlib.import_module("weaksym.linalg")
    names.update(f"linalg.{n}" for n, obj in vars(linalg).items()
                 if not n.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
                 and obj.__module__ == linalg.__name__)
    return names


def _table_rows() -> list:
    """(name, decision, reason) of each row of README's public-surface table."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Public surface\n", 1)
    assert len(section) == 2, "README has no '## Public surface' section"
    body = section[1].split("\n## ", 1)[0]
    rows = []
    for line in body.splitlines():
        match = re.fullmatch(r"\| `([\w.]+)` \| ([\w ]+) \| (.+) \|", line)
        if match:
            rows.append(match.groups())
    return rows


def test_readme_table_decides_every_exported_name():
    rows = _table_rows()
    names = [name for name, _, _ in rows]
    assert len(names) == len(set(names)), "a name has two rows"
    assert {decision for _, decision, _ in rows} <= DECISIONS
    assert all(reason.strip() for _, _, reason in rows)
    oracles = {name for name, decision, _ in rows if decision == "test oracle"}
    package = set(names) - oracles
    assert package - WHOLE_MODULE_ROWS == _exported()
    assert WHOLE_MODULE_ROWS <= package
    # a test oracle lives in tests/conftest.py, and not in the package
    for name in oracles:
        module, _, attr = name.partition(".")
        assert module == "conftest" and callable(getattr(conftest, attr, None)), name
