"""Print the code tokens and code lines of each module of `src/upsilonkit`,
then of each module of `tests/`, with totals.

A token is every `tokenize` token but COMMENT, NL, NEWLINE, INDENT, DEDENT
and ENDMARKER, so a docstring is one token.  A code line is a line that
holds such a token, less the lines of string-expression statements
(docstrings).  Standard library only; run from anywhere:

    python tools/codesize.py
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TABLES = {"src/upsilonkit": ROOT / "src" / "upsilonkit", "tests": ROOT / "tests"}
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENDMARKER}


def size(source: str) -> tuple[int, int]:
    """The code tokens and code lines of one module's source."""
    tokens = [tok for tok in tokenize.generate_tokens(io.StringIO(source).readline)
              if tok.type not in LAYOUT]
    lines = {line for tok in tokens for line in range(tok.start[0], tok.end[0] + 1)}
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            lines -= set(range(node.lineno, node.end_lineno + 1))
    return len(tokens), len(lines)


def table(title: str, directory: Path) -> None:
    """One row for each module of the directory, then the totals."""
    paths = sorted(directory.glob("*.py"))
    width = max(len(name) for name in [title] + [path.stem for path in paths]) + 2
    total_tokens = total_lines = 0
    print(f"{title:<{width}}{'tokens':>8}{'lines':>8}")
    for path in paths:
        tokens, lines = size(path.read_text(encoding="utf-8"))
        total_tokens += tokens
        total_lines += lines
        print(f"{path.stem:<{width}}{tokens:>8,}{lines:>8,}")
    print(f"{'total':<{width}}{total_tokens:>8,}{total_lines:>8,}")


def main() -> int:
    for i, (title, directory) in enumerate(TABLES.items()):
        if i:
            print()
        table(title, directory)
    return 0


if __name__ == "__main__":
    sys.exit(main())
