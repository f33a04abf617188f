"""scripts/code_lines.py counts physical lines less blank, comment-only and
docstring lines."""

import pathlib
import subprocess
import sys

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "code_lines.py"

# 7 code lines: the import, the class and def lines, both assignments, the
# return, and the string that is a statement but no docstring.
FIXTURE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment keeps the line


class Thing:
    """Class docstring."""

    # a comment-only line
    size = 3

    def area(self):
        """Function docstring,

        with a blank line inside."""
        side = math.sqrt(self.size)
        "a string statement after the first is code"
        return side * side
'''


def test_counts_code_lines_per_module_and_in_total(tmp_path):
    (tmp_path / "a.py").write_text(FIXTURE)
    (tmp_path / "b.py").write_text("# only a comment\n\nx = 1\n")
    (tmp_path / "notes.txt").write_text("x = 1\n")
    out = subprocess.run(
        [sys.executable, str(SCRIPT), str(tmp_path)], capture_output=True, text=True, check=True
    ).stdout.splitlines()
    assert [line.split() for line in out] == [
        ["7", str(tmp_path / "a.py")],
        ["1", str(tmp_path / "b.py")],
        ["8", "total"],
    ]
