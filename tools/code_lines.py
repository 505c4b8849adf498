"""Count the code lines of each module under ``src/ruleval``.

A code line is a non-blank line outside comments and docstrings: a line
that holds a token other than a comment or a line break (``tokenize``)
and is not part of a module, class or function docstring (``ast``).

    python tools/code_lines.py [directory]

prints each module's count and the total.
"""

import ast
import sys
import tokenize
from pathlib import Path

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    """The number of code lines in the Python file ``path``."""
    source = path.read_text(encoding="utf-8")
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        body = getattr(node, "body", None)
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            docstrings.update(range(body[0].lineno, body[0].end_lineno + 1))
    lines = set()
    with path.open("rb") as fh:
        for token in tokenize.tokenize(fh.readline):
            if token.type not in SKIP:
                lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def main(argv: list[str]) -> int:
    root = Path(argv[0] if argv else Path(__file__).resolve().parents[1] / "src" / "ruleval")
    total = 0
    for path in sorted(root.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total ({root.name})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
