"""tools/cli_bytes.py finds the argv sets whose CLI output differs between
two source trees, and only those."""

import importlib.util
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPEC = importlib.util.spec_from_file_location("cli_bytes", ROOT / "tools" / "cli_bytes.py")
cli_bytes = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(cli_bytes)


def test_copy_at_another_path_matches_and_a_change_is_found(tmp_path):
    copy = tmp_path / "src"
    shutil.copytree(ROOT / "src" / "hulthen", copy / "hulthen",
                    ignore=shutil.ignore_patterns("__pycache__"))
    argv_sets = [["spectrum", "--dim", "1"], ["spectrum", "--alpha", "2.5"]]
    assert cli_bytes.compare(copy, ROOT / "src", argv_sets) == []
    cli = copy / "hulthen" / "cli.py"
    cli.write_text(cli.read_text().replace("EXIT_NO_STATE = 2", "EXIT_NO_STATE = 4"))
    assert cli_bytes.compare(copy, ROOT / "src", argv_sets) == [(argv_sets[1], ["exit"])]

