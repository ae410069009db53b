"""Count the code lines of the Python modules in a directory.

A code line is a line that holds part of a token other than a comment,
and that is not part of a docstring: blank lines, comment lines and the
docstrings of modules, classes and functions are left out.  `tokenize`
finds the lines that hold code, including every line of a multi-line
string, and `ast` finds the docstrings.

    python tools/code_lines.py src/torbif

prints one line per module, `lines  path`, sorted by path, and then the
total.  It uses only the standard library.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_SKIPPED = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    """The number of code lines in `source`."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _SKIPPED:
            lines.update(range(token.start[0], token.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _SCOPES) and ast.get_docstring(node, clean=False) is not None:
            docstring = node.body[0]
            lines.difference_update(range(docstring.lineno, docstring.end_lineno + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tools/code_lines.py DIRECTORY", file=sys.stderr)
        return 2
    root = Path(argv[0])
    counts = [
        (code_lines(path.read_text(encoding="utf-8")), path) for path in sorted(root.rglob("*.py"))
    ]
    total = sum(count for count, _ in counts)
    width = len(str(total))
    for count, path in counts:
        print(f"{count:>{width}}  {path}")
    print(f"{total:>{width}}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
