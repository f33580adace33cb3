"""Raw and code line counts of the package sources under ``src/ppgeo``.

Raw lines are every line of every ``.py`` file.  Code lines drop blank
lines, comment-only lines and the line range of every docstring (the first
statement of a module, class or function when it is a string).  It prints
both counts, per file and in total; it checks nothing.  Run from a checkout:

    python scripts/src_lines.py
"""
from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ppgeo"


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers that docstrings span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def counts(path: Path) -> tuple[int, int]:
    """(raw, code) line counts of one source file."""
    text = path.read_text()
    lines = text.splitlines()
    skip = docstring_lines(ast.parse(text, filename=str(path)))
    code = sum(1 for i, line in enumerate(lines, start=1)
               if i not in skip and line.strip() and not line.lstrip().startswith("#"))
    return len(lines), code


def main() -> None:
    total_raw = total_code = 0
    for path in sorted(PACKAGE.glob("*.py")):
        raw, code = counts(path)
        total_raw, total_code = total_raw + raw, total_code + code
        print(f"{path.name:16} {raw:6} {code:6}")
    print(f"{'total':16} {total_raw:6} {total_code:6}")


if __name__ == "__main__":
    main()
