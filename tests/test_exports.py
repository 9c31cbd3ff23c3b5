"""Each module's ``__all__`` lists exactly names it defines, and every public
function and class among them."""

import importlib
import inspect

import pytest

MODULES = ["criticality", "hierarchy", "model", "simulator", "walkers"]


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_public_definitions(name):
    mod = importlib.import_module(f"contactlab.{name}")
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []
    public = {n for n, obj in vars(mod).items()
              if not n.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
              and obj.__module__ == mod.__name__}
    assert sorted(public - set(mod.__all__)) == []
