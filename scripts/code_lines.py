#!/usr/bin/env python3
"""Count the code lines of the library's modules.

A code line is a line that holds part of a Python token other than a
comment, a newline or an indent, and is not part of a docstring (or any
other statement that is a bare string).  Blank lines, comments and
docstrings are left out, so the count moves only when code does.

Run from the repository root:

    python scripts/code_lines.py [FILE ...]

With no files it counts ``src/shogi_frieze/*.py``.  It prints one
``<lines> <file>`` row per file, then ``<lines> total``.
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize
from pathlib import Path

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of code lines in ``source``."""
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    lines = {n for tok in tokens if tok.type not in _SKIP
             for n in range(tok.start[0], tok.end[0] + 1)}
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            lines -= set(range(node.lineno, node.end_lineno + 1))
    return len(lines)


def main(argv: list[str]) -> None:
    package = Path(__file__).resolve().parent.parent / "src" / "shogi_frieze"
    total = 0
    for name in argv or sorted(map(str, package.glob("*.py"))):
        n = code_lines(Path(name).read_text("utf-8"))
        total += n
        print(f"{n:5d} {os.path.relpath(name)}")
    print(f"{total:5d} total")


if __name__ == "__main__":
    main(sys.argv[1:])
