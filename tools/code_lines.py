"""Line counts of a Python package, module by module.

For each module it prints three counts:
- lines, as `wc -l` counts them;
- code lines: non-blank lines that hold a token other than a comment
  and are not part of a docstring;
- docstring lines: the lines of the module's, classes' and functions'
  docstrings.

Usage: python tools/code_lines.py [PACKAGE_DIR]
(default: src/spectra_svi next to this script's directory).
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path
from typing import NamedTuple

DEFAULT_PACKAGE = (Path(__file__).resolve().parent.parent / "src"
                   / "spectra_svi")
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


class Counts(NamedTuple):
    lines: int
    code: int
    docstrings: int


def _docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers spanned by every docstring in the tree."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> Counts:
    """The counts of one module's source text."""
    text = source.splitlines()
    docstrings = _docstring_lines(ast.parse(source))
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    spanned: set[int] = set()
    for tok in tokens:
        if tok.type not in _NOT_CODE:
            spanned.update(range(tok.start[0], tok.end[0] + 1))
    code = {n for n in spanned - docstrings if text[n - 1].strip()}
    return Counts(source.count("\n"), len(code), len(docstrings))


def main(argv: list[str]) -> int:
    package = Path(argv[0]) if argv else DEFAULT_PACKAGE
    rows = [(path.name, count(path.read_text()))
            for path in sorted(package.glob("*.py"))]
    total = Counts(*(sum(c[k] for _, c in rows) for k in range(3)))
    print(f"{'module':<16}{'lines':>8}{'code':>8}{'docstrings':>12}")
    for name, c in rows + [("total", total)]:
        print(f"{name:<16}{c.lines:>8}{c.code:>8}{c.docstrings:>12}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
