"""Every defaulted parameter of the package is set by some caller.

A default that no call overrides is a constant in disguise: it multiplies
the configurations that tests would have to cover while none of them
does.  The scan reads every function definition under ``src/ppgeo`` and
every call under ``src/``, ``tests/`` and ``perfbench/``; a parameter
counts as set when a call to a function of the same name passes it by
keyword or by position, or passes ``*args``/``**kwargs``.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ppgeo"
CALLERS = ("src", "tests", "perfbench")

# function -> (parameters no caller sets yet, why their defaults stay)
ALLOWED = {
    "make_lab": (("ndim", "seed"), "the library entry point for a lab in 2d or "
                                   "on another corpus seed"),
}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def defaulted_parameters() -> list[tuple[str, str, str, int | None, bool]]:
    """(module, function, parameter, position or None if keyword-only, is a method)."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = _parse(path)
        methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                   for f in c.body if isinstance(f, ast.FunctionDef)}
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            a = fn.args
            pos = a.posonlyargs + a.args
            first = len(pos) - len(a.defaults)
            for i in range(first, len(pos)):
                out.append((path.stem, fn.name, pos[i].arg, i, id(fn) in methods))
            for arg, default in zip(a.kwonlyargs, a.kw_defaults):
                if default is not None:
                    out.append((path.stem, fn.name, arg.arg, None, id(fn) in methods))
    return out


def calls_by_name() -> dict[str, list[ast.Call]]:
    out: dict[str, list[ast.Call]] = {}
    for sub in CALLERS:
        for path in sorted((ROOT / sub).rglob("*.py")):
            for node in ast.walk(_parse(path)):
                if isinstance(node, ast.Call):
                    f = node.func
                    name = getattr(f, "id", None) or getattr(f, "attr", None)
                    if name:
                        out.setdefault(name, []).append(node)
    return out


def _sets(call: ast.Call, param: str, position: int | None, method: bool) -> bool:
    if any(k.arg in (param, None) for k in call.keywords):
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    # a method called through an instance does not pass self
    return position is not None and len(call.args) > position - int(method)


def unset_parameters() -> list[tuple[str, str, str]]:
    calls = calls_by_name()
    return [
        (mod, fn, param)
        for mod, fn, param, position, method in defaulted_parameters()
        if not any(_sets(c, param, position, method) for c in calls.get(fn, []))
    ]


def test_every_defaulted_parameter_is_set_by_a_caller():
    unset = [f"{mod}.{fn}({param})" for mod, fn, param in unset_parameters()
             if param not in ALLOWED.get(fn, ((), ""))[0]]
    assert not unset, "defaulted parameters that no caller sets: " + ", ".join(unset)


def test_allowlist_holds_only_unset_parameters():
    unset = {(fn, param) for _, fn, param in unset_parameters()}
    allowed = {(fn, param) for fn, (params, _) in ALLOWED.items() for param in params}
    assert allowed <= unset, f"set by a caller now: {sorted(allowed - unset)}"
