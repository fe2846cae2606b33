"""Count the code lines of each module of a package directory.

A code line is a source line that holds a token other than a comment, a
line break or an indentation change, outside every docstring (the first
string statement of a module, class or function).  Blank lines, comment
lines and docstring lines are not counted; a line of code that ends in a
comment is.  Prints one row per module, in name order, then the total.

Run:  python3 scripts/code_lines.py src/tailbayes
"""

import argparse
import ast
import io
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers that the docstrings of tree span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of one module's source."""
    rows = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            rows.update(range(tok.start[0], tok.end[0] + 1))
    return len(rows - docstring_lines(ast.parse(source)))


def count(package: Path) -> dict[str, int]:
    """Module name -> code lines, for every .py file under package."""
    return {str(path.relative_to(package)): code_lines(path.read_text())
            for path in sorted(package.rglob("*.py"))}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("package", type=Path, help="directory to count")
    args = parser.parse_args()
    rows = count(args.package)
    width = max(map(len, rows), default=5)
    for name, lines in rows.items():
        print(f"{name:<{width}}  {lines:>5}")
    print(f"{'total':<{width}}  {sum(rows.values()):>5}")


if __name__ == "__main__":
    main()
