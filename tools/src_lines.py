"""Count the lines and code lines of each module of a source tree.

    python3 tools/src_lines.py [SRC]

SRC is a directory of Python modules, searched recursively; it defaults
to the `src/` of this checkout.  For each module the table gives its
lines and its code lines, and its last row gives their totals.  A code
line is a line that holds a token of the program: not blank, not a
comment alone, and not part of a module, class or function docstring.
A line of a string that is not a docstring is code, blank or not.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

# tokens that hold no code of their own
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def count_lines(text: str) -> tuple[int, int]:
    """(lines, code lines) of the module source text."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                code.difference_update(range(first.lineno, first.end_lineno + 1))
    return len(text.splitlines()), len(code)


def main(argv: list[str]) -> int:
    src = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "src"
    rows = []
    for path in src.rglob("*.py"):
        name = ".".join(path.relative_to(src).with_suffix("").parts)
        rows.append((name, *count_lines(path.read_text())))
    rows.sort(key=lambda row: (-row[1], row[0]))
    rows.append(("total", sum(row[1] for row in rows), sum(row[2] for row in rows)))
    width = max(len(row[0]) for row in rows)
    print(f"{'module':<{width}}  {'lines':>6}  {'code':>6}")
    for name, lines, code in rows:
        print(f"{name:<{width}}  {lines:>6}  {code:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
