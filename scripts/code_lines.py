"""Count the code lines of Python modules: physical lines minus blank lines,
comment-only lines and docstring lines.

A docstring is the string literal that opens a module, class or function
body, found by ``ast``; every physical line it spans is left out.  A
directory counts every ``*.py`` file directly in it.  The script prints the
count of each module and then the total:

    python scripts/code_lines.py src/tau_spectra
"""

from __future__ import annotations

import ast
import pathlib
import sys


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Lines of source that are neither blank, comment-only nor docstring."""
    skip = _docstring_lines(ast.parse(source))
    return sum(
        1
        for number, line in enumerate(source.splitlines(), 1)
        if number not in skip and line.strip() and not line.strip().startswith("#")
    )


def main(argv: list[str]) -> int:
    files = []
    for arg in map(pathlib.Path, argv):
        files.extend(sorted(arg.glob("*.py")) if arg.is_dir() else [arg])
    total = 0
    for path in files:
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
