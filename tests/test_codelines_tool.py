import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "codelines.py"

# nine code lines: the docstrings of the module, the class and both
# functions, the comment and the blank lines are left out; a trailing
# comment and a string that is not a docstring are not
FIXTURE = '''"""Module docstring,
on two lines."""
# a comment

import os  # a trailing comment


class A:
    """Class docstring."""

    x = 1

    def f(self):
        """Function
        docstring."""
        s = """not a
docstring"""
        return s


async def g():
    \'\'\'Async docstring.\'\'\'
    pass
'''


def test_codelines_counts_a_fixture_tree(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "mod.py").write_text(FIXTURE)
    (pkg / "empty.py").write_text('"""Only a docstring."""\n\n# and a comment\n')
    run = subprocess.run([sys.executable, str(TOOL), "--src", str(tmp_path)],
                         capture_output=True, text=True, check=True)
    assert run.stdout.splitlines() == [
        "     0  pkg/empty.py",
        "     9  pkg/mod.py",
        "     9  total",
    ]
