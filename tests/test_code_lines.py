import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

# counted lines are marked 1-9 in the comments below this listing
FIXTURE = '''"""Module docstring,
on two lines."""

import os  # 1


class Box:
    """Class docstring."""

    size = 1  # 3 ("class Box:" is 2)


def grow(x):  # 4
    """Function docstring,
    on two lines."""
    # a comment line
    total = (x +  # 5
             Box.size)  # 6
    "a string statement after the first is code"  # 7
    return total + \\
        len(os.sep)  # 8 and 9
'''


def test_counts_token_lines_only():
    assert code_lines.code_lines(FIXTURE) == 9


def test_multi_line_string_counts_every_line():
    assert code_lines.code_lines('x = """a\nb\nc"""\n') == 3
    assert code_lines.code_lines('"""a\nb\nc"""\n') == 0


def test_main_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(FIXTURE)
    (tmp_path / "b.py").write_text("x = 1\n\n# note\n")
    (tmp_path / "c.txt").write_text("not python\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == (
        f"9 {tmp_path / 'a.py'}\n1 {tmp_path / 'b.py'}\n10 total\n")
