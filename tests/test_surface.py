"""The public names other code looks up by name resolve.

The benchmark's tracer wraps every callable in each module's __all__ by
getattr, so a name left in __all__ after its definition is deleted
breaks it; every package-level name must be a listed public name of the
module that defines it.
"""

import sys
import types

import pytest

import hulthen
from hulthen import expectation, model, nu, oracle, specfun


@pytest.mark.parametrize("mod", [specfun, model, expectation, oracle, nu],
                         ids=lambda m: m.__name__)
def test_module_all_resolves(mod):
    assert mod.__all__
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


def test_package_reexports_resolve():
    public = [name for name, obj in vars(hulthen).items()
              if not name.startswith("_") and not isinstance(obj, types.ModuleType)]
    assert "level" in public and "solve_exact" in public
    for name in public:
        obj = getattr(hulthen, name)
        home = sys.modules[obj.__module__]
        assert name in home.__all__, name
        assert getattr(home, name) is obj, name
