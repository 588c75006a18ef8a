"""tools/oracle_sweep.py finds the draws whose oracle outcome differs between
two source trees, and only those, and tells a mended level from a broken
one."""

import importlib.util
import re
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPEC = importlib.util.spec_from_file_location("oracle_sweep", ROOT / "tools" / "oracle_sweep.py")
oracle_sweep = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(oracle_sweep)

SEED, DRAWS = 17, 6


def _copy(tmp_path, name, old=None, new=None):
    """A copy of src/ at tmp_path/name, with old replaced by new (once) in
    its oracle.py."""
    copy = tmp_path / name
    shutil.copytree(ROOT / "src" / "hulthen", copy / "hulthen",
                    ignore=shutil.ignore_patterns("__pycache__"))
    if old is not None:
        oracle = copy / "hulthen" / "oracle.py"
        text = oracle.read_text()
        assert text.count(old) == 1
        oracle.write_text(text.replace(old, new))
    return copy


def _sweep(old, new, capsys):
    code = oracle_sweep.main([str(old), str(new), "--seed", str(SEED), "--draws", str(DRAWS)])
    return code, capsys.readouterr().out


def test_copy_at_another_path_matches_and_a_changed_count_is_found(tmp_path, capsys):
    copy = _copy(tmp_path, "src")
    code, out = _sweep(copy, ROOT / "src", capsys)
    assert code == 0
    assert "solves changed: 0\ncounts changed: 0\n" in out
    # the draws hold solved levels and levels with no closed form
    assert "new solves: NoBoundState 3, ok 3\n" in out
    assert "max |dE|/tolerance over 3 levels solved by both: 0\n" in out
    assert "max |dE|/tolerance to refined over 0 mended levels: 0\n" in out
    assert "solves moved by more than 0.001 of their tolerance: 0\n" in out

    counting = _copy(tmp_path, "counting", "            return nodes\n",
                     "            return nodes + 1\n")
    code, out = _sweep(copy, counting, capsys)
    assert code == 1
    assert f"counts changed: {DRAWS}, ok -> ok {DRAWS}\n" in out


def test_mended_levels_are_checked_against_refined_solves(tmp_path, capsys):
    # a tree whose solves all raise: against it, the levels of src/ are
    # mended, and each lies well within half its tolerance of its refined
    # solve
    failing = _copy(tmp_path, "failing", "_MAX_PASSES = 300\n", "_MAX_PASSES = 0\n")
    code, out = _sweep(failing, ROOT / "src", capsys)
    assert code == 0
    assert "solves changed: 3, ConvergenceError -> ok 3\n" in out
    ratios = re.findall(r"\|dE\|/tolerance to refined (\S+)  \{", out)
    assert len(ratios) == 3 and all(float(r) < 0.01 for r in ratios)
    assert "max |dE|/tolerance to refined over 3 mended levels: " in out

    # the other way round, each level is broken
    code, out = _sweep(ROOT / "src", failing, capsys)
    assert code == 1
    assert "solves changed: 3, ok -> ConvergenceError 3\n" in out

    # a mended level a whole tolerance off is not mended: the refined solve
    # of the same tree is off by a hundredth of it
    shifted = _copy(tmp_path, "shifted", "    return OracleResult(energy_val, ",
                    "    return OracleResult(energy_val + tol, ")
    code, out = _sweep(failing, shifted, capsys)
    assert code == 1
    assert "max |dE|/tolerance to refined over 3 mended levels: 0.99\n" in out


def test_moved_levels_are_checked_against_refined_solves(tmp_path, capsys):
    # both trees return each level off by a share of its tolerance: 0.4 of
    # it apart, which passes, but the new tree's levels lie 0.8 of it from
    # their refined solves, which are off by a hundredth as much
    solve = "    return OracleResult(energy_val, "
    old = _copy(tmp_path, "old", solve, "    return OracleResult(energy_val + 0.4 * tol, ")
    new = _copy(tmp_path, "new", solve, "    return OracleResult(energy_val + 0.8 * tol, ")
    code, out = _sweep(old, new, capsys)
    assert code == 1
    assert "solves changed: 0\n" in out
    assert "solves moved by more than 0.001 of their tolerance: 3\n" in out
    assert "max |dE|/tolerance over 3 levels solved by both: 0.4\n" in out
    assert "max |dE|/tolerance to refined over 3 moved levels: 0.792\n" in out
