"""Count the code lines of the specmix package.

A code line holds at least one token that is not a comment, and is not
part of a docstring (the leading string of a module, class or
function).  Blank lines, comment lines and docstrings are left out; a
statement spread over several lines counts each of them.  Prints one
line per module of src/specmix, then the total.

Usage:
    python3 benchmarks/code_lines.py [package directory]
"""
import ast
import io
import sys
import tokenize
from pathlib import Path

SKIPPED = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENCODING, tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.AST) -> set:
    """The line numbers of every docstring in tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and ast.get_docstring(
            node, clean=False
        ) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of a Python source."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIPPED:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv: list) -> None:
    package = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "specmix"
    if not package.is_dir():
        sys.exit(f"usage: code_lines.py [package directory]; {package} is no directory")
    total = 0
    for path in sorted(package.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{path.name:20} {count:5d}")
    print(f"{'total':20} {total:5d}")


if __name__ == "__main__":
    main(sys.argv[1:])
