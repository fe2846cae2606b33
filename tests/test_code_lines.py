"""scripts/code_lines.py: the code-line count quoted for src/tailbayes."""

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SCRIPT = REPO / "scripts" / "code_lines.py"


def run(package):
    """The script's rows as module -> count, and its total row."""
    result = subprocess.run([sys.executable, str(SCRIPT), str(package)],
                            capture_output=True, text=True, check=True)
    rows = dict(line.rsplit(None, 1) for line in result.stdout.splitlines())
    total = int(rows.pop("total"))
    return {name: int(lines) for name, lines in rows.items()}, total


def test_module_rows_sum_to_the_total():
    rows, total = run(REPO / "src" / "tailbayes")
    assert set(rows) == {p.name for p in (REPO / "src" / "tailbayes").glob("*.py")}
    assert all(lines > 0 for lines in rows.values())
    assert sum(rows.values()) == total


def test_blank_comment_and_docstring_lines_are_not_code(tmp_path):
    (tmp_path / "m.py").write_text('''"""Module
docstring."""

# a comment
import math  # a trailing comment


class A:
    """Class docstring."""

    def f(self):
        """Function
        docstring."""
        s = """a string that is
        not a docstring"""
        return (s,
                math.pi)
''')
    (tmp_path / "empty.py").write_text("")
    # import, class, def, the two lines of s and the two of the return
    assert run(tmp_path) == ({"empty.py": 0, "m.py": 7}, 7)
