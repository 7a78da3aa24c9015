#!/usr/bin/env python3
"""Count the code lines of the repository's Python files.

    python scripts/loc.py                 # every file under src/, tests/,
                                          # scripts/ and perfbench/
    python scripts/loc.py FILE_OR_DIR...  # those files only

Run it from the repository root.  Per file it prints the code lines (not
blank, not only a comment, not part of a docstring), the docstring lines
and the total lines, then the same three sums per directory.  A docstring
is the string that opens a module, class or function body; any other
string, however long, is code.
"""

import ast
import io
import os
import sys
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DIRECTORIES = ("src", "tests", "scripts", "perfbench")
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree) -> set:
    """The line numbers of every docstring in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple:
    """``(code, docstring, total)`` line counts of ``source``."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    docs = docstring_lines(ast.parse(source))
    return len(code - docs), len(docs), len(source.splitlines())


def python_files(paths) -> list:
    files = []
    for path in paths:
        if os.path.isdir(path):
            for top, dirs, names in os.walk(path):
                dirs[:] = sorted(d for d in dirs if not d.startswith((".", "__")))
                files += [os.path.join(top, n) for n in sorted(names) if n.endswith(".py")]
        else:
            files.append(path)
    return files


def main(argv=None) -> int:
    paths = (argv if argv is not None else sys.argv[1:]) or [
        os.path.relpath(os.path.join(ROOT, d)) for d in DIRECTORIES]
    sums: dict = {}
    print(f"{'code':>6} {'doc':>6} {'total':>6}  file")
    for path in python_files(paths):
        with open(path, encoding="utf-8") as f:
            counts = count(f.read())
        print(f"{counts[0]:6d} {counts[1]:6d} {counts[2]:6d}  {path}")
        top = os.path.normpath(path).split(os.sep)[0]
        sums[top] = tuple(map(sum, zip(sums.get(top, (0, 0, 0)), counts)))
    for top, counts in sums.items():
        print(f"{counts[0]:6d} {counts[1]:6d} {counts[2]:6d}  {top}/ (sum)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
