"""tools/src_lines.py counts lines and code lines: not blank, not a comment
alone, and not part of a module, class or function docstring."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPEC = importlib.util.spec_from_file_location("src_lines", ROOT / "tools" / "src_lines.py")
src_lines = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(src_lines)

MODULE = '''"""A module docstring
over two lines."""

# a comment alone
import math


class Box:
    """A class docstring."""

    size = "# not a comment"  # a trailing comment

    def area(self):
        """A function docstring
        over

        four lines."""
        # another comment alone
        return math.pi * self.size


TEXT = """a string

that is no docstring"""
'''


def test_counts_of_a_small_module(tmp_path, capsys):
    # code: import, class, size, def, return, and the 3 lines of TEXT
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "box.py").write_text(MODULE)
    (package / "__init__.py").write_text("# nothing but a comment\n")
    assert src_lines.count_lines(MODULE) == (24, 8)
    assert src_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "module         lines    code",
        "pkg.box           24       8",
        "pkg.__init__       1       0",
        "total             25       8",
    ]
