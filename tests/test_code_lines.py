"""The line counter of `tools/code_lines.py` on a module of known counts."""

import importlib.util
from pathlib import Path

CODE_LINES_PY = (Path(__file__).resolve().parent.parent / "tools"
                 / "code_lines.py")

# 21 lines: docstrings on lines 1-2, 9 and 17-19 (6 lines); code on
# lines 4, 8, 10, 12, 13, 16 and 21 (7 lines). Line 11 is blank inside a
# string that is not a docstring, and line 7 is a comment.
MODULE = '''"""Module docstring
on two lines."""

import os  # a comment


# a comment line
def f(x):
    """One-line docstring."""
    s = """not a

docstring"""
    return x, s, os


class A:
    """Class
    docstring.
    """

    y = 1
'''


def _code_lines():
    spec = importlib.util.spec_from_file_location("code_lines",
                                                  CODE_LINES_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_of_a_module_with_known_lines(tmp_path, capsys):
    code_lines = _code_lines()
    assert code_lines.count(MODULE) == (21, 7, 6)
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "mod.py").write_text(MODULE)
    assert code_lines.main([str(package)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["module", "lines", "code", "docstrings"],
                    ["mod.py", "21", "7", "6"],
                    ["total", "21", "7", "6"]]
