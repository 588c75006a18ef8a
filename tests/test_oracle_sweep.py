"""tools/oracle_sweep.py finds the draws whose oracle outcome differs between
two source trees, and only those, and tells a mended level from a broken
one."""

import importlib.util
import math
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
    assert "shots new - old over 3 levels solved by both: 0:3\n" in out
    passes = re.findall(r"^(old|new) passes per solve: (full \d+\.\d\d, chord \d+\.\d\d)$", out,
                        re.M)
    assert [tree for tree, _ in passes] == ["old", "new"] and passes[0][1] == passes[1][1]
    assert ("gamma = 0 levels of new outside energy -/+ residual of their closed form: "
            "0 of 1, ") in out

    counting = _copy(tmp_path, "counting", "            return nodes\n",
                     "            return nodes + 1\n")
    code, out = _sweep(copy, counting, capsys)
    assert code == 1
    assert f"counts changed: {DRAWS}, ok -> ok {DRAWS}\n" in out


def test_change_in_shots_is_shown_per_level(tmp_path, capsys):
    # a solve that counts one shot more on each level changes no outcome,
    # and the histogram of shots(new) - shots(old) shows it on all three
    shooting = _copy(tmp_path, "shooting", "    shots += 2\n", "    shots += 3\n")
    code, out = _sweep(ROOT / "src", shooting, capsys)
    assert code == 0
    assert "solves changed: 0\ncounts changed: 0\n" in out
    assert "shots new - old over 3 levels solved by both: 1:3\n" in out
    code, out = _sweep(shooting, ROOT / "src", capsys)
    assert "shots new - old over 3 levels solved by both: -1:3\n" in out


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


def test_gamma_zero_level_off_its_closed_form_is_found(tmp_path, capsys):
    # both trees return each level 1.5 tolerances off, so neither moved; the
    # gamma = 0 level (draw 2: D = 1, l = 1) lies 3 residuals from its closed
    # form
    shifted = _copy(tmp_path, "shifted", "    return OracleResult(energy_val, ",
                    "    return OracleResult(energy_val + 1.5 * tol, ")
    code, out = _sweep(shifted, shifted, capsys)
    assert code == 1
    assert "solves changed: 0\ncounts changed: 0\n" in out
    assert "max |dE|/tolerance over 3 levels solved by both: 0\n" in out
    assert ("gamma = 0 levels of new outside energy -/+ residual of their closed form: "
            "1 of 1, ") in out
    assert re.search(r"\n  draw 2: \|E - E_closed\|/residual 3 ", out)


def test_refined_solve_keeps_to_the_tolerance_floor():
    # draw 1 of seed 90 lies at E = -449.7 (Z alpha = 0.04): a hundredth of
    # its tolerance 1e-9 is below 128 float spacings of the bracket end
    # 1.2 E, where solve_exact raises, so its refined solve runs at that floor
    refined = oracle_sweep.run(ROOT / "src", 90, 2, [1])["refined"][0]
    floor = 128 * math.ulp(1.2 * -449.6980870785845)
    assert refined["outcome"] == "ok"
    assert refined["tolerance"] == floor > 1e-11
