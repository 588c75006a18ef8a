"""tools/same_bits.py finds the argv sets whose CLI output and the bench
items whose results differ between two source trees, and only those, and
refuses a tree that holds no hulthen package."""

import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = importlib.util.spec_from_file_location("same_bits", ROOT / "tools" / "same_bits.py")
same_bits = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(same_bits)


def test_copy_at_another_path_matches_and_a_change_is_found(copy_src):
    argv_sets = [["spectrum", "--dim", "1"], ["spectrum", "--alpha", "2.5"]]
    assert same_bits.compare_cli(copy_src("same"), ROOT / "src", argv_sets) == []
    edited = copy_src("edited", "cli.py", "EXIT_NO_STATE = 2", "EXIT_NO_STATE = 4")
    assert same_bits.compare_cli(edited, ROOT / "src", argv_sets) == [(argv_sets[1], ["exit"])]


def test_a_change_to_an_out_file_alone_is_found(copy_src):
    argv_sets = [["spectrum", "--dim", "1", "--out", same_bits.OUT], ["spectrum", "--dim", "1"],
                 ["spectrum", "--n-max", "-1", "--out", same_bits.OUT]]
    # the same tree at another path and with another --out path agrees
    assert same_bits.compare_cli(copy_src("same"), ROOT / "src", argv_sets) == []
    edited = copy_src("edited", "cli.py", "fh.write(text)", "fh.write(text + '\\n')")
    assert same_bits.compare_cli(edited, ROOT / "src", argv_sets) == [(argv_sets[0], ["out"])]


def test_a_child_that_hangs_is_reported(copy_src):
    hanging = copy_src("hanging", "cli.py", 'if __name__ == "__main__":\n',
                       'if __name__ == "__main__":\n    __import__("time").sleep(60)\n')
    argv_sets = [["spectrum"]]
    diffs = same_bits.compare_cli(hanging, ROOT / "src", argv_sets, timeout=1.0)
    assert diffs == [(argv_sets[0], ["timeout"])]


def test_copy_at_another_path_matches_and_changes_are_found(copy_src):
    # one round of seed 1: 16 spectra items (the last two raise
    # BracketError), 48 census counts and 48 reports
    assert same_bits.compare_items(copy_src("same"), ROOT / "src", seeds=(1,), rounds=1) == (
        [], 112)
    # a string in the samples' meta
    meta = copy_src("meta", "model.py", '"hbar,mu as given"', '"hbar, mu as given"')
    diffs, total = same_bits.compare_items(meta, ROOT / "src", seeds=(1,), rounds=1)
    assert total == 112
    assert [label for label, _, _ in diffs] == [f"reports seed 1 round 0 item {i}"
                                                for i in range(48)]
    assert {tuple(paths) for _, _, paths in diffs} == {("[1][1].meta.units",)}
    # the message of an exception
    message = copy_src("message", "oracle.py", "lies below the target eigenvalue",
                       "lies below the level")
    diffs, total = same_bits.compare_items(message, ROOT / "src", seeds=(1,), rounds=1)
    assert total == 112
    assert [label for label, _, _ in diffs] == [f"spectra seed 1 round 0 item {i}"
                                                for i in (14, 15)]
    assert {tuple(paths) for _, _, paths in diffs} == {("[2]",)}
    assert diffs[0][1] == {"D": 3, "l": 1, "alpha": 0.1, "n": 2, "k": 2}


def test_reduction_keeps_every_bit():
    import numpy as np

    assert same_bits.reduce([0.1, np.float64(0.1), 3, np.int64(3), None, "x"]) == [
        "0x1.999999999999ap-4", "0x1.999999999999ap-4", 3, 3, None, "x"]
    a = np.array([0.0, 1.0])
    b = np.array([-0.0, 1.0])
    # equal arrays whose bytes differ reduce apart
    assert (a == b).all() and same_bits.reduce(a) != same_bits.reduce(b)
    assert same_bits.reduce(a)[:2] == ["float64", [2]]


def test_a_tree_without_the_package_is_refused(tmp_path, capsys):
    # two trees that fail every child the same way are no evidence that
    # no output bit moved: each side is checked before any child runs
    empty = (tmp_path / "empty").resolve()
    empty.mkdir()
    for args in ([str(empty), str(empty)], [str(empty)], [str(ROOT / "src"), str(empty)]):
        assert same_bits.main(args) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"no hulthen package in {empty}\n"
    refusal = f"no hulthen package in {re.escape(str(empty))}$"
    with pytest.raises(FileNotFoundError, match=refusal):
        same_bits.compare_cli(empty, empty, [["spectrum"], ["validate"]])
    with pytest.raises(FileNotFoundError, match=refusal):
        same_bits.compare_items(empty, empty)
