"""Spans and counters around the ppgeo layer boundaries, installed from outside.

Each timed function is rebound, for the length of a traced op, in every
``ppgeo`` module that holds a reference to it, so a call lands in the wrapper
whichever import path the caller used.  Methods are rebound on their class,
and the harness suites are rebound inside ``harness.SUITES``.  Spans stay in
memory and are written out once, when the run ends.

A span is ``[name, start, end, parent, op, self_s, failed, extra]``; ``self_s``
is the span's duration minus the time its child spans cover, and ``extra``
holds the counters measured at that call.
"""
from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict

import numpy as np

# timed functions per module, grouped as the ROADMAP layers:
# L0/L1 duality + measures, L2 envelopes + geodesics, L3 metric, L4 harness + cli
OP_TARGETS = {
    "duality": ("lower_hull_indices", "conjugate_1d", "conjugate_nd", "to_dual",
                "to_primal", "DualPotential.eval_primal", "convexify_moment_values"),
    "measures": ("ma_atomic", "ma_density", "energy", "i_p", "ma_mixed_pair"),
    "envelopes": ("envelope", "measure_identity_residual", "rooftop"),
    "geodesics": ("curve_checks", "GeodesicCurve.primal_at"),
    "metric": ("dp_limit", "dp_fixed_body", "dp_endpoint", "dp_dual_oracle",
               "d1_energy", "dp_singular", "truncate_dual"),
    "harness": ("run_suites",),
    "cli": ("main",),
}
# set-up functions are timed over one traced set-up build, not inside ops
SETUP_TARGETS = {
    "grids": ("moment_grid",),
    "bodies": ("epsilon_family",),
    "corpus": ("random_dual_pairs",),
}
SUITES = ("pythagorean", "max_inequality", "geodesic_metric", "completeness",
          "monotone_continuity", "epsilon_lemmas")
CLI_IMPORT = "cli.import"
# a CLI process as its parent sees it, spawn to exit; its self time is
# interpreter start-up and shut-down, which no span inside the process covers
CLI_PROCESS = "cli.process"
SETUP_OP = "setup"


def _hull_counts(args, kwargs, out):
    n_in = len(args[0])
    return {"points_in": n_in, "points_out": len(out)}


def _conjugate_rows(args, kwargs, out):
    values, node_axes, query_axes = args[:3]
    # 1d passes: one in 1d; in 2d one per column, then one per first-axis query
    rows = 1 if len(node_axes) == 1 else values.shape[1] + len(query_axes[0])
    return {"rows": rows}


def _eval_products(args, kwargs, out):
    self, points = args[0], args[1]
    n_points = np.atleast_2d(np.asarray(points)).shape[0]
    return {"products": n_points * int(np.isfinite(self.values).sum())}


def _envelope_key(args, kwargs, out):
    f, body = args[0], args[1]
    return {"key": f"{hash(f.values.tobytes())}|{body.vertices}"}


COUNTERS = {
    "duality.lower_hull_indices": _hull_counts,
    "duality.conjugate_nd": _conjugate_rows,
    "duality.DualPotential.eval_primal": _eval_products,
    "envelopes.envelope": _envelope_key,
}


class Tracer:
    """In-memory span recorder; one per process."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self._child: list[float] = []
        self.op = None

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op, 0.0, False, None])
        self._open.append(idx)
        self._child.append(0.0)
        return idx

    def end(self, idx: int, failed: bool = False, extra=None):
        now = time.perf_counter()
        span = self.spans[idx]
        self._open.pop()
        covered = self._child.pop()
        dur = now - span[1]
        span[2], span[5], span[6], span[7] = now, dur - covered, failed, extra
        if self._child:
            self._child[-1] += dur

    def record(self, name: str, start: float, end: float) -> int:
        """A finished top-level span timed by the caller; returns its index."""
        self.spans.append([name, start, end, None, self.op, end - start, False, None])
        return len(self.spans) - 1

    def absorb(self, path, parent: int):
        """Append the spans another process dumped, as children of ``parent``.

        perf_counter is the system-wide monotonic clock, so the other
        process's times share this process's time line.
        """
        offset = len(self.spans)
        with open(path) as fh:
            for span in json.load(fh):
                if span[3] is None:
                    span[3] = parent
                    self.spans[parent][5] -= span[2] - span[1]
                else:
                    span[3] += offset
                span[4] = self.op
                self.spans.append(span)

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def _wrap(tracer: Tracer, name: str, fn):
    counter = COUNTERS.get(name)

    def wrapper(*args, **kwargs):
        idx = tracer.begin(name)
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            tracer.end(idx, failed=True)
            raise
        tracer.end(idx, extra=counter(args, kwargs, out) if counter else None)
        return out

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", name)
    return wrapper


def install(tracer: Tracer, targets: dict):
    """Rebind every target, and each harness suite with harness; returns an undo."""
    mods = [m for n, m in list(sys.modules.items())
            if m is not None and (n == "ppgeo" or n.startswith("ppgeo."))]
    saved = []
    for modname, names in targets.items():
        home = importlib.import_module(f"ppgeo.{modname}")
        for qual in names:
            name = f"{modname}.{qual}"
            if "." in qual:
                cls_name, attr = qual.split(".")
                cls = getattr(home, cls_name)
                orig = cls.__dict__[attr]
                saved.append((cls, attr, orig))
                setattr(cls, attr, _wrap(tracer, name, orig))
                continue
            orig = getattr(home, qual)
            wrapped = _wrap(tracer, name, orig)
            for mod in mods:
                if mod.__dict__.get(qual) is orig:
                    saved.append((mod, qual, orig))
                    setattr(mod, qual, wrapped)
    if "harness" in targets:
        table = importlib.import_module("ppgeo.harness").SUITES
        for key in SUITES:
            orig = table[key]
            saved.append((table, key, orig))
            table[key] = _wrap(tracer, f"harness.check_{key}", orig)

    def undo():
        for owner, attr, orig in reversed(saved):
            if isinstance(owner, dict):
                owner[attr] = orig
            else:
                setattr(owner, attr, orig)

    return undo


def metric_names() -> list[str]:
    """Every per-layer metric the traced run prints, in print order."""
    names = []
    for modname, quals in OP_TARGETS.items():
        for qual in quals:
            names += [f"{modname}.{qual}.calls", f"{modname}.{qual}.self_s"]
        if modname == "harness":
            names += [f"harness.check_{key}.self_s" for key in SUITES]
    names += [f"{CLI_PROCESS}.calls", f"{CLI_PROCESS}.self_s"]
    for modname, quals in SETUP_TARGETS.items():
        for qual in quals:
            names += [f"{modname}.{qual}.calls", f"{modname}.{qual}.self_s"]
    names += [
        "duality.lower_hull_indices.points_in",
        "duality.lower_hull_indices.points_out",
        "duality.lower_hull_indices.keep_ratio",
        "duality.conjugate_nd.rows",
        "duality.DualPotential.eval_primal.products",
        "envelopes.envelope.distinct_ratio",
        "cli.import_s",
    ]
    names += [f"{m}.failed" for m in (*OP_TARGETS, *SETUP_TARGETS)]
    names += ["trace.overhead_frac", "trace.coverage"]
    return names


def _unit(name: str) -> str:
    stat = name.rsplit(".", 1)[1]
    if stat in ("self_s", "import_s"):
        return "s"
    if stat in ("keep_ratio", "distinct_ratio", "overhead_frac", "coverage"):
        return "ratio"
    return "count"


def layer_metrics(spans: list, op_walls: dict, untraced_p50: float,
                  traced_p50: float) -> dict:
    """Per-layer metrics from the spans of a traced run.

    Counts and times are means per traced op (``op_walls`` maps each traced
    op id to its wall time), except that set-up functions report the traced
    set-up build, ``cli.import_s`` is a mean per CLI process, and
    ``<module>.failed`` counts failed calls over the whole run.
    """
    n_ops = max(1, len(op_walls))
    totals = defaultdict(float)
    failed = defaultdict(int)
    hull_in = hull_out = 0
    env_calls = imports = 0
    env_keys = defaultdict(set)
    top_level = 0.0
    for name, start, end, parent, op, self_s, fail, extra in spans:
        module = name.split(".", 1)[0]
        failed[module] += int(bool(fail))
        setup_fn = module in SETUP_TARGETS
        if setup_fn != (op == SETUP_OP) or (not setup_fn and op not in op_walls):
            continue
        if name == CLI_IMPORT:
            totals["cli.import_s"] += self_s
            imports += 1
        else:
            totals[f"{name}.calls"] += 1
            totals[f"{name}.self_s"] += self_s
        if parent is None and op in op_walls:
            top_level += end - start
        if extra:
            if name == "duality.lower_hull_indices":
                hull_in += extra["points_in"]
                hull_out += extra["points_out"]
            elif name == "envelopes.envelope":
                env_calls += 1
                env_keys[op].add(extra["key"])
            else:
                for key, val in extra.items():
                    totals[f"{name}.{key}"] += val
    env_distinct = sum(len(k) for k in env_keys.values())
    out = {}
    for name in metric_names():
        setup_fn = name.split(".", 1)[0] in SETUP_TARGETS
        if name.endswith(".failed"):
            val = failed[name.split(".", 1)[0]]
        elif name == "duality.lower_hull_indices.points_in":
            val = hull_in / n_ops
        elif name == "duality.lower_hull_indices.points_out":
            val = hull_out / n_ops
        elif name == "duality.lower_hull_indices.keep_ratio":
            val = hull_out / hull_in if hull_in else 0.0
        elif name == "envelopes.envelope.distinct_ratio":
            val = env_distinct / env_calls if env_calls else 0.0
        elif name == "cli.import_s":
            val = totals[name] / imports if imports else 0.0
        elif name == "trace.overhead_frac":
            val = traced_p50 / untraced_p50 - 1.0
        elif name == "trace.coverage":
            val = top_level / sum(op_walls.values())
        elif setup_fn:
            val = totals[name]
        else:
            val = totals[name] / n_ops
        out[name] = {"value": float(val), "unit": _unit(name)}
    return out
