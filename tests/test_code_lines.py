"""Tests for the code-line counter (tools/code_lines.py)."""

from __future__ import annotations

import importlib.util
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def load_counter():
    spec = importlib.util.spec_from_file_location("code_lines", REPO / "tools" / "code_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SOURCE = '''"""Module docstring,
over two lines."""

# a comment


def f(x):
    """Function docstring."""
    y = (x +  # a trailing comment does not hide the code
         1)
    text = """a string that is
not a docstring"""
    return y, text


class C:
    """Class docstring."""

    z = 1
'''


def test_docstrings_comments_and_blank_lines_are_not_counted():
    counter = load_counter()
    # def f, y = (x +, 1), text = """..., not a docstring""", return,
    # class C, z = 1.
    assert counter.code_lines(SOURCE) == 8
    assert counter.code_lines("") == 0
    assert counter.code_lines('"""Only a docstring."""\n# and a comment\n\n') == 0


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    counter = load_counter()
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SOURCE)
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n")
    assert counter.main([str(tmp_path / "pkg")]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "     8  a.py", "     1  b.py", "     9  total (pkg)",
    ]
