"""tools/oracle_sweep.py finds the draws whose oracle outcome differs between
two source trees, and only those."""

import importlib.util
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPEC = importlib.util.spec_from_file_location("oracle_sweep", ROOT / "tools" / "oracle_sweep.py")
oracle_sweep = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(oracle_sweep)

SEED, DRAWS = 17, 6


def test_copy_at_another_path_matches_and_a_changed_count_is_found(tmp_path, capsys):
    copy = tmp_path / "src"
    shutil.copytree(ROOT / "src" / "hulthen", copy / "hulthen",
                    ignore=shutil.ignore_patterns("__pycache__"))
    args = [str(copy), str(ROOT / "src"), "--seed", str(SEED), "--draws", str(DRAWS)]
    assert oracle_sweep.main(args) == 0
    out = capsys.readouterr().out
    assert "solves changed: 0\ncounts changed: 0\n" in out
    # the draws hold solved levels and levels with no closed form
    assert "new solves: NoBoundState 3, ok 3\n" in out
    assert "max |dE|/tolerance over 3 levels solved by both: 0\n" in out

    oracle = copy / "hulthen" / "oracle.py"
    text = oracle.read_text()
    assert text.count("            return nodes\n") == 1
    oracle.write_text(text.replace("            return nodes\n", "            return nodes + 1\n"))
    assert oracle_sweep.main(args) == 1
    assert f"counts changed: {DRAWS}, ok -> ok {DRAWS}\n" in capsys.readouterr().out
