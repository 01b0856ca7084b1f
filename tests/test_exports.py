import importlib
import pkgutil

import pytest

import weaksym

MODULES = ["weaksym"] + [f"weaksym.{m.name}"
                         for m in pkgutil.iter_modules(weaksym.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing
