"""Count code lines: a line counts when it holds a token other than a
comment, outside the docstrings of modules, classes and functions.

Tokens come from ``tokenize`` (a string or expression that spans lines
puts each of its lines on the count), docstrings from ``ast``.  Blank
lines, comment lines and docstring lines do not count.

    python3 tests/code_lines.py [DIR]      # default: src/chowcheck

prints the count per module and the total.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree):
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count_code_lines(source):
    """The number of code lines of the Python text ``source``."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv):
    root = Path(argv[1] if len(argv) > 1 else
                Path(__file__).resolve().parent.parent / "src" / "chowcheck")
    total = 0
    for path in sorted(root.glob("*.py")):
        n = count_code_lines(path.read_text(encoding="utf-8"))
        total += n
        print(f"{path.name:16} {n:6}")
    print(f"{'total':16} {total:6}")


if __name__ == "__main__":
    main(sys.argv)
