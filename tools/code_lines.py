"""Count the code lines of Python source files.

    python3 tools/code_lines.py src/latfuse [more files or directories]

A code line is a line that holds at least one token other than a comment,
an indent, a dedent or a line break.  Docstrings do not count: the string
that opens a module, class or function body, when it stands alone as an
expression statement.  A token that spans lines, such as a triple-quoted
string, counts on every line it covers.  Blank lines and comment-only lines
hold no such token.  Prints one ``<count> <path>`` line per file, a
directory's ``*.py`` files in name order, then ``<total> total``.
"""

import ast
import io
import os
import sys
import tokenize

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree) -> set:
    """Line numbers covered by the module, class and function docstrings."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in ``source``."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def _python_files(paths):
    for path in paths:
        if os.path.isdir(path):
            for name in sorted(os.listdir(path)):
                if name.endswith(".py"):
                    yield os.path.join(path, name)
        else:
            yield path


def main(argv) -> int:
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 1
    total = 0
    for path in _python_files(argv):
        with open(path, encoding="utf-8") as fh:
            count = code_lines(fh.read())
        print(f"{count} {path}")
        total += count
    print(f"{total} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
