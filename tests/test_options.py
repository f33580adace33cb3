"""Every defaulted parameter of the package is set by product code and left out by some call.

A default that no product call overrides is a constant in disguise: it
multiplies the configurations that tests would have to cover while no
command, suite or benchmark runs them.  A default that every call overrides
is never used: the parameter is required in all but name.  The scan reads
every function definition under ``src/ppgeo`` and every dataclass field
with a default, as a parameter of a call to the class; a bare ``field(...)``
without ``default`` or ``default_factory`` is required.  A parameter counts as set
when a call under ``src/`` or ``perfbench/`` to a function of the same name
passes it by keyword or by position, or passes ``*args``/``**kwargs``; its
default counts as used when some call under ``src/``, ``tests/`` or
``perfbench/`` does none of these.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ppgeo"
PRODUCT = ("src", "perfbench")
CALLERS = PRODUCT + ("tests",)

# function -> (parameters that a check flags, why their defaults stay)
ALLOWED: dict[str, tuple[tuple[str, ...], str]] = {}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _is_dataclass(cls: ast.ClassDef) -> bool:
    return any(getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
               for d in cls.decorator_list)


def _has_default(value: ast.expr | None) -> bool:
    if value is None:
        return False
    if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field":
        return any(k.arg in ("default", "default_factory") for k in value.keywords)
    return True


def dataclass_fields(tree: ast.Module) -> list[tuple[str, str, int]]:
    """(class, field, position in the constructor) of each dataclass field with a default."""
    out = []
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef) and _is_dataclass(cls):
            fields = [a for a in cls.body if isinstance(a, ast.AnnAssign)]
            out += [(cls.name, a.target.id, i) for i, a in enumerate(fields)
                    if _has_default(a.value)]
    return out


def defaulted_parameters() -> list[tuple[str, str, str, int | None, bool]]:
    """(module, function or class, parameter, position or None if keyword-only, is a method)."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = _parse(path)
        out += [(path.stem, cls, name, i, False) for cls, name, i in dataclass_fields(tree)]
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


def calls_by_name(subdirs: tuple[str, ...]) -> dict[str, list[ast.Call]]:
    out: dict[str, list[ast.Call]] = {}
    for sub in subdirs:
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
    """Defaulted parameters that no product call sets."""
    calls = calls_by_name(PRODUCT)
    return [
        (mod, fn, param)
        for mod, fn, param, position, method in defaulted_parameters()
        if not any(_sets(c, param, position, method) for c in calls.get(fn, []))
    ]


def unused_defaults() -> list[tuple[str, str, str]]:
    """Defaulted parameters that every call sets, so that no call uses the default."""
    calls = calls_by_name(CALLERS)
    return [
        (mod, fn, param)
        for mod, fn, param, position, method in defaulted_parameters()
        if all(_sets(c, param, position, method) for c in calls.get(fn, []))
    ]


def _not_allowed(found: list[tuple[str, str, str]]) -> list[str]:
    return [f"{mod}.{fn}({param})" for mod, fn, param in found
            if param not in ALLOWED.get(fn, ((), ""))[0]]


def test_every_defaulted_parameter_is_set_by_a_caller():
    unset = _not_allowed(unset_parameters())
    assert not unset, "defaulted parameters that no product caller sets: " + ", ".join(unset)


def test_every_default_is_left_out_by_some_call():
    unused = _not_allowed(unused_defaults())
    assert not unused, "defaults that every call overrides: " + ", ".join(unused)


def test_allowlist_holds_only_unset_parameters():
    flagged = {(fn, param) for _, fn, param in unset_parameters() + unused_defaults()}
    allowed = {(fn, param) for fn, (params, _) in ALLOWED.items() for param in params}
    assert allowed <= flagged, f"no check flags these now: {sorted(allowed - flagged)}"
