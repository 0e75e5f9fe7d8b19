import importlib.util
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"
_spec = importlib.util.spec_from_file_location("code_lines", TOOLS / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)
# function_lines imports code_lines from its own directory, as when run
sys.path.insert(0, str(TOOLS))
import function_lines  # noqa: E402

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


def test_function_lines_prints_the_counts_that_differ(tmp_path, capsys):
    base, change = tmp_path / "base", tmp_path / "change"
    base.mkdir()
    change.mkdir()
    (base / "a.py").write_text(
        "import os\n\n\ndef f(x):\n    y = x\n    return y\n\n\n"
        "def gone():\n    pass\n\n\nclass Same:\n    z = 1\n")
    (change / "a.py").write_text(
        "import os\nimport sys\n\n\ndef f(x):\n    \"\"\"Doc.\"\"\"\n"
        "    return x\n\n\n@staticmethod\ndef new():\n    pass\n\n\n"
        "class Same:\n    # a comment\n    z = 1\n")
    (change / "b.py").write_text("def g():\n    return 1\n")
    (base / "notes.txt").write_text("not python\n")
    assert function_lines.main([str(base), str(change)]) == 0
    assert capsys.readouterr().out == (
        "a.py:f 3 -> 2\n"
        "a.py:new 0 -> 3\n"
        "a.py:gone 2 -> 0\n"
        "a.py:(module) 1 -> 2\n"
        "b.py:g 0 -> 2\n"
        "total 8 -> 11\n")
