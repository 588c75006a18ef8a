"""Bound states of the D-dimensional Hulthen potential.

Closed-form spectrum, Jacobi-polynomial wavefunctions with exact
normalization constants, expectation values from parameter derivatives
(properties of `model.Level`, with quadrature cross-checks in
`expectation`), and an independent shooting-method eigensolver of the
exact radial equation for cross-validation.

The package's public names are `model.__all__` and the `__all__` of
`expectation` and `oracle`; `specfun` is reached as a submodule.
`import hulthen` loads the closed forms of `model` alone, with no numpy;
a level's expectation values and node count need none either.  The
names of `expectation` and `oracle` (and those two submodules) are
imported on first access; both import numpy, as do V, the centrifugal
term, U and the array functions of `model` when first called.
"""

import importlib

from . import model
from .model import *

_LAZY = {
    "expectation": ("ExpectationReport", "QuadratureError", "expectation_report"),
    "oracle": ("BracketError", "ConvergenceError", "OracleError", "OracleResult",
               "ShootingConfig", "count_bound_states", "default_config", "solve_exact"),
}
_HOME = {name: mod for mod, names in _LAZY.items() for name in names}

__all__ = [*model.__all__, *_HOME]
__version__ = "0.1.0"


def __getattr__(name):
    # nothing is cached here, so hulthen.X always follows the binding of X
    # in its submodule, also after that binding is replaced
    if name in _LAZY:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_LAZY})
