"""Count the lines of the topkorders package: total, and code only.

Run from anywhere in a source checkout:

    python scripts/loc.py

It counts the modules of ``src/topkorders`` beside this script. A line
counts as code when it holds a token other than a comment, a docstring
or a line break; a docstring is a string that stands alone as
the first statement of a module, class or function. Prints two lines,
``total <n>`` and ``code <n>``.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree) -> set:
    """The line numbers that the docstrings of ``tree`` span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold a code token."""
    docs = docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            lines.update(r for r in range(tok.start[0], tok.end[0] + 1) if r not in docs)
    return len(lines)


def main() -> int:
    package = Path(__file__).resolve().parents[1] / "src" / "topkorders"
    total = code = 0
    for path in sorted(package.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        total += len(source.splitlines())
        code += code_lines(source)
    print(f"total {total}")
    print(f"code {code}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
