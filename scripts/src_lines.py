#!/usr/bin/env python3
"""Count the lines of the library's source files.

For each ``*.py`` file of ``src/biorth`` it prints the physical lines, as
``wc -l`` counts them, and the code lines: every line that is not blank,
not a comment alone, and not part of a module, class or function
docstring.  The last row is the total over the package.

    python scripts/src_lines.py
"""

import ast
import io
import os
import sys
import tokenize

PACKAGE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "biorth")
_DOCSTRING_OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers the docstrings of ``tree`` span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _DOCSTRING_OWNERS) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                if isinstance(first.value.value, str):
                    lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_lines(text: str) -> tuple[int, int]:
    """(physical lines, code lines) of the Python source ``text``."""
    skipped = docstring_lines(ast.parse(text))
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
                              tokenize.DEDENT, tokenize.ENDMARKER):
            code.update(range(token.start[0], token.end[0] + 1))
    return text.count("\n"), len(code - skipped)


def main() -> int:
    total_lines = total_code = 0
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), encoding="utf-8") as handle:
                lines, code = count_lines(handle.read())
            print(f"{name:20s} {lines:6,d} {code:6,d}")
            total_lines += lines
            total_code += code
    print(f"{'total':20s} {total_lines:6,d} {total_code:6,d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
