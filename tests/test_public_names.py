"""Every name the package defines is used by product code.

A function, class, constant or method that only tests reach is code that
no command, suite or benchmark runs: it either becomes part of the product
or goes with its test.  The scan reads every top-level function, class and
constant and every non-dunder method under ``src/ppgeo`` (``__init__.py``
only re-exports) and counts it as used when its name is loaded, as a name
or an attribute, somewhere in ``src/ppgeo`` outside its own definition and
``__init__.py``, or in ``perfbench/``.  A string constant that is a dotted
name, such as ``"DualPotential.eval_primal"``, counts for each of its parts,
because the benchmark rebinds functions by name.

The match is by name only: a definition counts as used when anything of the
same name is used, whatever it is bound to, so the scan finds the roots of
dead code, and what only they call shows up once they are gone.
"""
import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ppgeo"
PRODUCT = (PACKAGE, ROOT / "perfbench")

# name -> why it stays without a product caller
ALLOWED = {
    "conjugate_oracle": "the O(N*M) oracle that tests compare conjugate_1d against",
    "iterative_envelope": "the convexify(min(start, f)) oracle that tests compare envelope against",
}
DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def definitions() -> list[tuple[Path, str, ast.AST]]:
    """(file, name, defining node) of each top-level definition and method."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in _parse(path).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                out.append((path, node.name, node))
            if isinstance(node, ast.ClassDef):
                out += [(path, f.name, f) for f in node.body
                        if isinstance(f, ast.FunctionDef) and not _is_dunder(f.name)]
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                out += [(path, t.id, node) for t in targets
                        if isinstance(t, ast.Name) and not _is_dunder(t.id)]
    return out


def uses() -> dict[str, list[tuple[Path, int]]]:
    """name -> (file, line) of each load of it in product code."""
    out: dict[str, list[tuple[Path, int]]] = {}
    for root in PRODUCT:
        for path in sorted(root.rglob("*.py")):
            if path == PACKAGE / "__init__.py":
                continue
            for node in ast.walk(_parse(path)):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    names = [node.id]
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    names = [node.attr]
                elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                        and DOTTED.fullmatch(node.value):
                    names = node.value.split(".")
                else:
                    continue
                for name in names:
                    out.setdefault(name, []).append((path, node.lineno))
    return out


def unused_names() -> set[str]:
    found = uses()

    def outside(path, node, use):
        return use[0] != path or not node.lineno <= use[1] <= node.end_lineno

    return {name for path, name, node in definitions()
            if not any(outside(path, node, use) for use in found.get(name, []))}


def test_every_package_name_is_used_by_product_code():
    unused = sorted(unused_names() - set(ALLOWED))
    assert not unused, "names that only tests use: " + ", ".join(unused)


def test_allowlist_holds_only_unused_names():
    assert set(ALLOWED) <= unused_names(), (
        f"used by product code now: {sorted(set(ALLOWED) - unused_names())}"
    )
