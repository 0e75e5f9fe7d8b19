"""Compare two versions of Python source, function by function.

    python3 tools/function_lines.py BASE_SRC CHANGE_SRC

BASE_SRC and CHANGE_SRC are two versions of one package directory (its
``*.py`` files, matched by name) or of one file.  For every top-level
function or class whose code-line count differs between them, prints
``<file>:<name> <base> -> <change>``, files in name order and names in
source order, a name missing from one side counting 0 there.
``<file>:(module)`` holds the rest of a module (imports, constants, ...),
so the lines add up to the two totals printed last, ``total <base> ->
<change>``.  Lines are counted by ``code_lines.code_lines``: lines holding a
token, without docstrings, comments and blank lines.
"""

import ast
import os
import sys

from code_lines import code_lines

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def counts(source: str) -> dict:
    """Code lines of each top-level function or class of ``source``, in
    source order, decorators included, then ``(module)`` for the rest."""
    lines = source.split("\n")  # as ast numbers lines, unlike splitlines
    out = {}
    for node in ast.parse(source).body:
        if isinstance(node, _DEFS):
            start = min([node.lineno] + [d.lineno for d in node.decorator_list])
            n = code_lines("\n".join(lines[start - 1:node.end_lineno]))
            out[node.name] = out.get(node.name, 0) + n
    out["(module)"] = code_lines(source) - sum(out.values())
    return out


def _files(path: str) -> dict:
    if not os.path.isdir(path):
        return {os.path.basename(path): path}
    return {name: os.path.join(path, name)
            for name in os.listdir(path) if name.endswith(".py")}


def _read_counts(files: dict, name: str) -> dict:
    if name not in files:
        return {}
    with open(files[name], encoding="utf-8") as fh:
        return counts(fh.read())


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 1
    base_files, change_files = _files(argv[0]), _files(argv[1])
    totals = [0, 0]
    for name in sorted(base_files.keys() | change_files.keys()):
        base = _read_counts(base_files, name)
        change = _read_counts(change_files, name)
        # change's order, then the names only base has, then the rest
        keys = [k for k in dict.fromkeys([*change, *base]) if k != "(module)"]
        for key in keys + ["(module)"]:
            if base.get(key, 0) != change.get(key, 0):
                print(f"{name}:{key} {base.get(key, 0)} -> {change.get(key, 0)}")
        totals[0] += sum(base.values())
        totals[1] += sum(change.values())
    print(f"total {totals[0]} -> {totals[1]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
