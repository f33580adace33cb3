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

The same scan pins the callers of the conjugate kernels: ``conjugate_1d``
runs only inside ``_conjugate_along_axis``, which ``conjugate_nd`` runs once
per axis and ``DualPotential.eval_primal`` once, at its query points; and
``conjugate_nd`` runs only in the two transforms: ``_dual_values`` (the
forward one, which ``to_duals`` cuts into duals and the distance routes
reduce directly) and ``to_primal``.  A second copy of the conjugate loop
shows up as a new caller.  The stacked layout of a transform is built only
where its grids are: ``grid_stack`` runs in ``MomentGrid`` (a grid's own
stack) and in ``epsilon_family``, so no operation builds one per call.
The hull kernels have one reader: ``lower_facets`` and ``clamped_hull``
run only in ``hull_primals``, which the convexification and every envelope
primal call, and ``max_affine`` there and in the oracle ``conjugate_oracle``.
A load is attributed to the innermost definition whose lines hold it, as
``module.name``, or to the module when no definition holds it.
"""
import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ppgeo"
PRODUCT = (PACKAGE, ROOT / "perfbench")

# name -> why it stays without a product caller
ALLOWED = {
    "conjugate_oracle": "the O(N*M) oracle that tests compare conjugate_1d against",
    "iterative_envelope": "the hull of min(start, f) (convexify_moment_values), the oracle "
                          "that tests compare envelope against",
}
# name -> the only places in the package that may load it
CALLERS = {
    "conjugate_1d": {"duality._conjugate_along_axis"},
    "_conjugate_along_axis": {"duality.conjugate_nd", "duality.eval_primal"},
    "conjugate_nd": {"duality._dual_values", "duality.to_primal"},
    "grid_stack": {"grids.MomentGrid", "bodies.epsilon_family"},
    "lower_facets": {"duality.hull_primals"},
    "clamped_hull": {"duality.hull_primals"},
    "max_affine": {"duality.hull_primals", "duality.conjugate_oracle"},
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


def callers(name: str) -> set[str]:
    """Where ``name`` is loaded in the package: module.name of the innermost
    definition around each load, or the module alone."""
    spans = definitions()
    found = set()
    for path, line in uses().get(name, []):
        if path.parent != PACKAGE:
            continue
        around = [(node.end_lineno - node.lineno, defined)
                  for where, defined, node in spans
                  if where == path and node.lineno <= line <= node.end_lineno]
        found.add(f"{path.stem}.{min(around)[1]}" if around else path.stem)
    return found


@pytest.mark.parametrize("name", sorted(CALLERS))
def test_conjugate_kernel_has_only_its_designed_callers(name):
    assert callers(name) == CALLERS[name]
