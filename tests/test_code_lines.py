import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"

# 8 code lines: the module, class and function docstrings, the comments
# and the blank lines are left out; every line of a multi-line string that
# is not a docstring counts, as do the lines of one bracketed statement
FIXTURE = '''"""A module docstring
over two lines."""

import os  # a comment after code leaves its line counted


# a comment line
class Thing:
    """A class docstring."""

    def method(self):
        """A method
        docstring."""
        text = """not a docstring,
        so both lines count"""
        return os.path.join(
            text,
        )
'''


def test_code_lines_leaves_out_blanks_comments_and_docstrings(tmp_path):
    (tmp_path / "b.py").write_text(FIXTURE)
    (tmp_path / "a.py").write_text("x = 1\n\n# note\n")
    result = subprocess.run(
        [sys.executable, str(TOOL), str(tmp_path)], capture_output=True, text=True, check=True
    )
    assert result.stdout == f"1  {tmp_path / 'a.py'}\n8  {tmp_path / 'b.py'}\n9  total\n"
