"""tools/cli_bytes.py finds the argv sets whose CLI output differs between
two source trees, and only those."""

import importlib.util
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPEC = importlib.util.spec_from_file_location("cli_bytes", ROOT / "tools" / "cli_bytes.py")
cli_bytes = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(cli_bytes)


def copy_of_src(tmp_path) -> Path:
    copy = tmp_path / "src"
    shutil.copytree(ROOT / "src" / "hulthen", copy / "hulthen",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return copy


def edit_cli(copy: Path, old: str, new: str) -> None:
    cli = copy / "hulthen" / "cli.py"
    text = cli.read_text()
    assert text.count(old) == 1
    cli.write_text(text.replace(old, new))


def test_copy_at_another_path_matches_and_a_change_is_found(tmp_path):
    copy = copy_of_src(tmp_path)
    argv_sets = [["spectrum", "--dim", "1"], ["spectrum", "--alpha", "2.5"]]
    assert cli_bytes.compare(copy, ROOT / "src", argv_sets) == []
    edit_cli(copy, "EXIT_NO_STATE = 2", "EXIT_NO_STATE = 4")
    assert cli_bytes.compare(copy, ROOT / "src", argv_sets) == [(argv_sets[1], ["exit"])]


def test_a_change_to_an_out_file_alone_is_found(tmp_path):
    copy = copy_of_src(tmp_path)
    argv_sets = [["spectrum", "--dim", "1", "--out", cli_bytes.OUT], ["spectrum", "--dim", "1"],
                 ["spectrum", "--n-max", "-1", "--out", cli_bytes.OUT]]
    # the same tree at another path and with another --out path agrees
    assert cli_bytes.compare(copy, ROOT / "src", argv_sets) == []
    edit_cli(copy, "fh.write(text)", "fh.write(text + '\\n')")
    assert cli_bytes.compare(copy, ROOT / "src", argv_sets) == [(argv_sets[0], ["out"])]


def test_a_child_that_hangs_is_reported(tmp_path):
    copy = copy_of_src(tmp_path)
    edit_cli(copy, 'if __name__ == "__main__":\n',
             'if __name__ == "__main__":\n    __import__("time").sleep(60)\n')
    argv_sets = [["spectrum"]]
    diffs = cli_bytes.compare(copy, ROOT / "src", argv_sets, timeout=1.0)
    assert diffs == [(argv_sets[0], ["timeout"])]
