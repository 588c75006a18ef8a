"""Fixtures shared by the tests of the tools that compare two source trees."""

import shutil
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def copy_src(tmp_path):
    """A function copy_src(name, module=None, old=None, new=None) that
    copies the hulthen package of src/ to tmp_path/name, replaces old by
    new (once) in its module if one is named, and returns tmp_path/name."""
    def copy(name: str, module: str | None = None, old: str = "", new: str = "") -> Path:
        dest = tmp_path / name
        shutil.copytree(SRC / "hulthen", dest / "hulthen",
                        ignore=shutil.ignore_patterns("__pycache__"))
        if module is not None:
            path = dest / "hulthen" / module
            text = path.read_text()
            assert text.count(old) == 1
            path.write_text(text.replace(old, new))
        return dest
    return copy
