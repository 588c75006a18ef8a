"""tools/bench_items.py finds the bench items whose results differ between
two source trees, and only those."""

import importlib.util
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPEC = importlib.util.spec_from_file_location("bench_items", ROOT / "tools" / "bench_items.py")
bench_items = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_items)


def edit(copy: Path, module: str, old: str, new: str) -> None:
    path = copy / "hulthen" / module
    text = path.read_text()
    assert text.count(old) == 1
    path.write_text(text.replace(old, new))


def test_copy_at_another_path_matches_and_changes_are_found(tmp_path):
    copy = tmp_path / "src"
    shutil.copytree(ROOT / "src" / "hulthen", copy / "hulthen",
                    ignore=shutil.ignore_patterns("__pycache__"))
    # one round of seed 1: 16 spectra items (the last two raise
    # BracketError), 48 census counts and 48 reports
    assert bench_items.compare(copy, ROOT / "src", seeds=(1,), rounds=1) == ([], 112)
    # a string in the samples' meta, and the message of an exception
    edit(copy, "model.py", '"hbar,mu as given"', '"hbar, mu as given"')
    edit(copy, "oracle.py", "lies below the target eigenvalue", "lies below the level")
    diffs, total = bench_items.compare(copy, ROOT / "src", seeds=(1,), rounds=1)
    assert total == 112
    assert [label for label, _, _ in diffs] == (
        [f"spectra seed 1 round 0 item {i}" for i in (14, 15)]
        + [f"reports seed 1 round 0 item {i}" for i in range(48)])
    assert {tuple(paths) for _, _, paths in diffs} == {("[2]",), ("[1][1].meta.units",)}
    assert diffs[0][1] == {"D": 3, "l": 1, "alpha": 0.1, "n": 2, "k": 2}


def test_reduction_keeps_every_bit():
    import numpy as np

    assert bench_items.reduce([0.1, np.float64(0.1), 3, np.int64(3), None, "x"]) == [
        "0x1.999999999999ap-4", "0x1.999999999999ap-4", 3, 3, None, "x"]
    a = np.array([0.0, 1.0])
    b = np.array([-0.0, 1.0])
    # equal arrays whose bytes differ reduce apart
    assert (a == b).all() and bench_items.reduce(a) != bench_items.reduce(b)
    assert bench_items.reduce(a)[:2] == ["float64", [2]]
