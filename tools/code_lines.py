"""Count code lines of a Python package: python tools/code_lines.py [DIR].

A code line is a physical line that holds at least one token other than a
comment, a newline or an indent change, and that does not belong to a
docstring (the first statement of a module, class or function when it is a
string literal). Blank lines, comment-only lines and docstring lines are
skipped. Prints one line per module of DIR (default ``src/belldistill``),
sorted by name, then the total.
"""

import ast
import pathlib
import sys
import tokenize

#: tokens that do not make a line a code line
SKIPPED = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.Module) -> set:
    """Line numbers covered by the docstrings of ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(path: pathlib.Path) -> int:
    """Number of code lines in the Python file ``path``."""
    source = path.read_text(encoding="utf-8")
    skip = docstring_lines(ast.parse(source))
    lines = set()
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in SKIPPED:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - skip)


def main(argv: list) -> int:
    root = pathlib.Path(argv[0] if argv else "src/belldistill")
    total = 0
    for path in sorted(root.glob("*.py")):
        n = code_lines(path)
        total += n
        print(f"{path.stem:<12s} {n:5d}")
    print(f"{'total':<12s} {total:5d}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
