#!/usr/bin/env python3
"""Count the code lines of each ``src/`` module and their total.

A code line is a non-blank line that is not a comment and lies outside
every module, class and function docstring.  A line that holds a
statement and a trailing comment counts; a line inside a string that is
not a docstring counts::

    python3 tools/codelines.py
    python3 tools/codelines.py --src ../parent/src

prints one ``lines  path`` row per module, sorted by path, and the
total last.
"""

import argparse
import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree):
    """Line numbers spanned by the module, class and function docstrings."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def count_code_lines(source):
    """Code lines of one module's source text."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIP:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - _docstring_lines(ast.parse(source)))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="tree whose .py files are counted (default: src/)")
    args = parser.parse_args(argv)
    total = 0
    for path in sorted(args.src.rglob("*.py")):
        lines = count_code_lines(path.read_text(encoding="utf-8"))
        total += lines
        print(f"{lines:6d}  {path.relative_to(args.src)}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
