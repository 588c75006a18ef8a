"""The public names are pinned, and those other code looks up by name
resolve.

Each module's __all__ is pinned as an exact set, so a name is added or
removed only with a change here.  The benchmark's tracer wraps every
callable in each module's __all__ by getattr, so a name left in __all__
after its definition is deleted breaks it; every package-level name must
be a listed public name of the module that defines it.  `import hulthen`
and the closed-form CLI path load no numpy; the names of the numpy
modules resolve on first access.
"""

import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import hulthen
from hulthen import expectation, model, oracle, specfun
from hulthen.cli import main

SRC = str(Path(hulthen.__file__).parents[1])


PUBLIC = {
    specfun: {"jacobi_poly"},
    model: {"PotentialParams", "QuantumNumbers", "BoundState", "Level", "NoBoundState",
            "RadialSamples", "potential", "centrifugal_approx", "energy", "level", "spectrum",
            "normalization_constant", "wavefunction_samples", "default_grid"},
    expectation: {"QuadratureError", "ExpectationReport", "expectation_report"},
    oracle: {"OracleError", "BracketError", "ConvergenceError", "ShootingConfig",
             "OracleResult", "default_config", "solve_exact", "count_bound_states"},
}


@pytest.mark.parametrize("mod", list(PUBLIC), ids=lambda m: m.__name__)
def test_module_all_is_pinned(mod):
    assert len(mod.__all__) == len(set(mod.__all__))
    assert set(mod.__all__) == PUBLIC[mod]


def test_package_all_is_pinned():
    # model's names, then those of the two submodules served on first access
    public = hulthen.__all__
    assert len(public) == len(set(public)) == 25
    assert public[:len(model.__all__)] == model.__all__
    assert set(public) == PUBLIC[model] | PUBLIC[expectation] | PUBLIC[oracle]


@pytest.mark.parametrize("mod", [specfun, model, expectation, oracle],
                         ids=lambda m: m.__name__)
def test_module_all_resolves(mod):
    assert mod.__all__
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


def test_package_reexports_resolve():
    # the names of expectation and oracle are not in vars(hulthen) until
    # asked for, so __all__ is the list; every eagerly bound name is in it
    public = hulthen.__all__
    assert "level" in public and "solve_exact" in public
    eager = {name for name, obj in vars(hulthen).items()
             if not name.startswith("_") and not isinstance(obj, types.ModuleType)}
    assert eager <= set(public) <= set(dir(hulthen))
    for name in public:
        obj = getattr(hulthen, name)
        home = sys.modules[obj.__module__]
        assert name in home.__all__, name
        assert getattr(home, name) is obj, name


def python(code: str) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter on this checkout, with no HULTHEN_*
    variables from the caller."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("HULTHEN_")}
    env["PYTHONPATH"] = SRC
    return subprocess.run([sys.executable, "-c", code], capture_output=True, env=env,
                          check=False)


# python -m hulthen.cli ARGV, run by runpy as -m runs it
RUN_CLI = """
import runpy, sys
sys.argv = ["hulthen", *{argv!r}]
try:
    runpy.run_module("hulthen.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
{after}
sys.exit(code)
"""


def test_bare_import_loads_no_numpy():
    proc = python("import sys, hulthen\n"
                  "print('numpy' in sys.modules)\n"
                  "lv = hulthen.level(hulthen.PotentialParams(1.0, 0.05), hulthen.QuantumNumbers(1, 1))\n"
                  "print(*[type(x).__name__ for x in (lv.dE_dl, lv.inv_r2, lv.v_mean, lv.t_mean,"
                  " lv.nodes)], 'numpy' in sys.modules)\n"
                  "print(hulthen.solve_exact.__module__, hulthen.expectation_report.__module__,"
                  " hulthen.oracle.__name__, hulthen.expectation.__name__)\n"
                  "print('numpy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode().splitlines() == [
        "False", "float float float float int False", "hulthen.oracle hulthen.expectation hulthen.oracle hulthen.expectation",
        "True"]


def test_spectrum_run_leaves_numpy_unloaded():
    # json too: the CLI imports it only to render JSON
    report = ("print(sorted({'numpy', 'json', 'hulthen.oracle', 'hulthen.expectation'}"
              " & set(sys.modules)), file=sys.stderr)")
    proc = python(RUN_CLI.format(argv=["spectrum"], after=report))
    assert (proc.returncode, proc.stderr) == (0, b"[]\n")


@pytest.mark.parametrize("argv", [["spectrum"],
                                  ["spectrum", "--format", "json", "--dim", "2", "--l", "1"]],
                         ids=" ".join)
def test_spectrum_runs_with_numpy_blocked(capsys, argv):
    # importing numpy raises ImportError in the child
    proc = python("import sys\nsys.modules['numpy'] = None\n"
                  + RUN_CLI.format(argv=argv, after=""))
    assert "numpy" in sys.modules
    code = main(argv)
    captured = capsys.readouterr()
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        code, captured.out.encode(), captured.err.encode())
    assert code == 0
