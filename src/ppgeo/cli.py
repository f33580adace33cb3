"""Command line front end.

Experiments are described by a JSON config file: dimension, grid sizes,
an epsilon schedule, and potentials referenced by catalog id (no expression
parsing).  All outputs are deterministic for a fixed config and seed; JSON
reports are strict and print floats to 12 significant digits.

Exit codes: 0 success (all checks passed), 1 verification failure,
2 configuration error.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .bodies import Body, ClassBody, default_class_body, epsilon_family
from .corpus import (
    CLOSED_FORMS,
    PAIR_CATALOG,
    dual_from_form,
    obstacle_from_form,
    pair_from_catalog,
    random_dual_pairs,
)
from .duality import to_primal
from .envelopes import envelope, measure_identity_residual
from .geodesics import curve_checks, geodesic
from .grids import ConfigurationError, SpatialGrid, check_p
from .harness import SUITES, Lab, run_suites
from .measures import energy, ma_atomic, ma_density
from .metric import (
    FORMAT_VERSION,
    DistanceReport,
    d1_energy,
    dp_dual_oracle,
    dp_endpoint,
    dp_limit,
    dp_singular,
    sig12,
)

DEFAULT_CONFIG = {
    "dimension": 1,
    "moment_cells": 1024,
    "spatial": {"lo": [-4.0], "hi": [5.0], "cells": [2048]},
    "epsilon_schedule": None,
    "pair": "ramp_pair",
    "obstacles": ["quadratic", "quadratic_bump"],
    "potential": "dual_quadratic",
    "p": 2.0,
    "seed": 20240,
    "t_samples": [0.0, 0.25, 0.5, 0.75, 1.0],
    "suite_pairs": 20,
}


def _dump(payload: dict) -> str:
    payload = dict(payload)
    payload.setdefault("format_version", FORMAT_VERSION)
    return json.dumps(sig12(payload), indent=2, sort_keys=True, allow_nan=False) + "\n"


def load_config(path: str | None) -> dict:
    cfg = dict(DEFAULT_CONFIG)
    if path is not None:
        try:
            with open(path) as fh:
                user = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigurationError(f"cannot read config {path!r}: {exc}")
        if not isinstance(user, dict):
            raise ConfigurationError("config must be a JSON object")
        unknown = set(user) - set(cfg) - {"p_body", "q_body"}
        if unknown:
            raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
        cfg.update(user)
    return cfg


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _is_real(x) -> bool:
    return _is_number(x) and math.isfinite(x)


def _is_str(x) -> bool:
    return isinstance(x, str)


def _at_least(lo: int):
    return lambda x: _is_int(x) and x >= lo


def _list_of(ok, n: int | None = None):
    return lambda x: (isinstance(x, list) and (n is None or len(x) == n)
                      and all(ok(e) for e in x))


def check_config(cfg: dict) -> None:
    """Required keys, types and ranges of a config; ConfigurationError if not."""
    missing = set(DEFAULT_CONFIG) - set(cfg)
    if missing:
        raise ConfigurationError(f"missing config keys: {sorted(missing)}")
    if ("p_body" in cfg) != ("q_body" in cfg):
        raise ConfigurationError("p_body and q_body must be given together")
    n = cfg["dimension"]
    if not _is_int(n) or n not in (1, 2):
        raise ConfigurationError(f"dimension must be 1 or 2, got {n!r}")
    cells, reals, vertices = _at_least(8), _list_of(_is_real, n), _list_of(_list_of(_is_real, n))
    rules = {
        "moment_cells": (lambda c: cells(c) or _list_of(cells, n)(c),
                         f"an integer >= 8 or a list of {n} of them"),
        "spatial": (lambda s: isinstance(s, dict) and set(s) == {"lo", "hi", "cells"}
                    and reals(s["lo"]) and reals(s["hi"]) and _list_of(cells, n)(s["cells"]),
                    f"an object with exactly lo, hi and cells, each a list of {n} "
                    "finite numbers, cells integers >= 8"),
        "epsilon_schedule": (lambda e: e is None or _list_of(_is_real)(e),
                             "null or a list of numbers"),
        "pair": (lambda s: _is_str(s) or _list_of(_is_str, 2)(s)
                 or isinstance(s, dict) and set(s) == {"seed_index"}
                 and _at_least(0)(s["seed_index"]),
                 'a catalog name, two closed-form ids or {"seed_index": k} with '
                 "k a non-negative integer"),
        "obstacles": (lambda o: _list_of(_is_str)(o) and len(o) > 0,
                      "a nonempty list of closed-form ids"),
        "potential": (_is_str, "a closed-form id"),
        "p": (_is_number, "a number"),
        "seed": (_at_least(0), "a non-negative integer"),
        "t_samples": (_list_of(lambda t: _is_real(t) and 0 <= t <= 1),
                      "a list of numbers in [0, 1]"),
        "suite_pairs": (_at_least(1), "a positive integer"),
        "p_body": (vertices, f"a list of vertices of {n} finite numbers each"),
        "q_body": (vertices, f"a list of vertices of {n} finite numbers each"),
    }
    for key, (ok, what) in rules.items():
        if key in cfg and not ok(cfg[key]):
            raise ConfigurationError(f"{key} must be {what}, got {cfg[key]!r}")
    check_p(cfg["p"])


class Experiment:
    """Grids, bodies and potentials resolved from a config dict."""

    def __init__(self, cfg: dict):
        check_config(cfg)
        self.cfg = cfg
        if "p_body" in cfg:
            klass = ClassBody(Body(cfg["p_body"]), Body(cfg["q_body"]))
        else:
            klass = default_class_body(cfg["dimension"])
        sp = cfg["spatial"]
        self.spatial = SpatialGrid(tuple(sp["lo"]), tuple(sp["hi"]), tuple(sp["cells"]))
        self.family = epsilon_family(klass, cfg["moment_cells"], cfg["epsilon_schedule"])
        self.p = float(cfg["p"])
        self.seed = cfg["seed"]

    def resolve_pair(self):
        spec, grid = self.cfg["pair"], self.family.base_grid
        if isinstance(spec, str):
            return pair_from_catalog(spec, grid)
        if isinstance(spec, dict):
            k = spec["seed_index"]
            return random_dual_pairs(self.seed, k + 1, grid.body, grid)[k]
        return dual_from_form(spec[0], grid), dual_from_form(spec[1], grid)

    def resolve_obstacles(self):
        return [obstacle_from_form(name, self.spatial) for name in self.cfg["obstacles"]]

    def resolve_dual(self):
        return dual_from_form(self.cfg["potential"], self.family.base_grid)

    def lab(self) -> Lab:
        """The verification suites' fixtures: these grids and seeded pairs."""
        grid = self.family.base_grid
        pairs = random_dual_pairs(self.seed, self.cfg["suite_pairs"], grid.body, grid)
        return Lab(self.spatial, self.family, tuple(pairs))


def _check_out(out: str | None) -> None:
    """Fail before any work if ``--out`` cannot be written; leave no new file."""
    if out is None:
        return
    existed = os.path.exists(out)
    try:
        open(out, "a").close()
    except OSError as exc:
        raise ConfigurationError(f"cannot write {out!r}: {exc}")
    if not existed:
        os.remove(out)


def _write(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
        return
    with open(out, "w") as fh:
        fh.write(text)


def cmd_distance(exp: Experiment, args) -> int:
    route = args.route
    if route == "limit":
        fs = exp.resolve_obstacles()
        if len(fs) < 2:
            raise ConfigurationError("the limit route needs two obstacles")
        report = dp_limit(fs[0], fs[1], exp.family, exp.p)
    elif route == "singular":
        u0, u1 = exp.resolve_pair()
        report = dp_singular(u0, u1, exp.p)
    else:
        u0, u1 = exp.resolve_pair()
        if route == "endpoint":
            value = dp_endpoint(u0, u1, exp.p)
        elif route == "oracle":
            value = dp_dual_oracle(u0, u1, exp.p)
        else:  # "energy"; argparse rejects any other route
            if exp.p != 1.0:
                raise ConfigurationError("the energy route computes d_1 only")
            value = d1_energy(u0, u1, exp.spatial)
        report = DistanceReport(p=exp.p, value=value, route=route)
    text = report.to_csv() if (args.out or "").endswith(".csv") else _dump(report.to_dict())
    _write(text, args.out)
    return 0


def cmd_geodesic(exp: Experiment, args) -> int:
    u0, u1 = exp.resolve_pair()
    curve = geodesic(u0, u1)
    base = dp_endpoint(u0, u1, exp.p)
    ts = [float(t) for t in exp.cfg["t_samples"]]
    rows = [
        {"t": t, "distance_from_start": dp_endpoint(u0, curve.potential_at(t), exp.p)}
        for t in ts
    ]
    checks = curve_checks(curve, exp.spatial)
    payload = {
        "p": exp.p,
        "endpoint_distance": base,
        "samples": rows,
        "checks": checks,
    }
    _write(_dump(payload), args.out)
    return 0


def cmd_envelope(exp: Experiment, args) -> int:
    f = exp.resolve_obstacles()[0]
    grid = exp.family.base_grid
    rec = envelope(f, grid.body, grid,
                   hessian_bound=CLOSED_FORMS[f.provenance].hessian_bound)
    payload = {
        "obstacle": f.provenance,
        "hessian_bound": rec.hessian_bound,
        "contact_tolerance": rec.contact_tol,
        "contact_fraction": float(np.mean(rec.contact_mask)),
        "measure_identity_residual": measure_identity_residual(rec),
        "envelope_min": float(rec.primal.values.min()),
        "envelope_max": float(rec.primal.values.max()),
    }
    _write(_dump(payload), args.out)
    return 0


def cmd_ma(exp: Experiment, args) -> int:
    u = exp.resolve_dual()
    atoms = ma_atomic(u)
    payload = {
        "potential": u.provenance,
        "total_mass": atoms.total_mass,
        "class_volume": exp.family.base.volume,
        "atom_count": int(atoms.masses.size),
    }
    if u.has_minimal_singularities:
        field = ma_density(to_primal(u, exp.spatial))
        payload["density_sup"] = float(field.density.max())
        payload["density_total"] = field.total
        payload["clamped_mass"] = field.clamped_mass
    _write(_dump(payload), args.out)
    return 0


def cmd_energy(exp: Experiment, args) -> int:
    u = exp.resolve_dual()
    payload = {"potential": u.provenance, "energy": energy(u, exp.spatial)}
    _write(_dump(payload), args.out)
    return 0


def cmd_verify(exp: Experiment, args) -> int:
    names = args.suite or ["all"]
    if "all" in names:
        names = list(SUITES)
    reports = run_suites(names, exp.lab(), exp.p)
    for rep in reports:
        print(rep.to_text())
    if args.out:
        combined = {
            "format_version": FORMAT_VERSION,
            "seed": exp.seed,
            "p": exp.p,
            "suites": [r.to_dict() for r in reports],
        }
        _write(_dump(combined), args.out)
    return 0 if all(r.verdict == "pass" for r in reports) else 1


def cmd_corpus(exp: Experiment, args) -> int:
    payload = {
        "closed_forms": {
            name: {"kind": f.kind, "note": f.note, "singular": f.singular}
            for name, f in sorted(CLOSED_FORMS.items())
        },
        "pairs": {
            name: {"dual_0": a, "dual_1": b, "note": note}
            for name, (a, b, note) in sorted(PAIR_CATALOG.items())
        },
    }
    _write(_dump(payload), args.out)
    return 0


COMMANDS = {
    "distance": cmd_distance,
    "geodesic": cmd_geodesic,
    "envelope": cmd_envelope,
    "ma": cmd_ma,
    "energy": cmd_energy,
    "verify": cmd_verify,
    "corpus": cmd_corpus,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ppgeo",
        description="finite-energy metric geometry on polytope models",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", help="JSON experiment config")
    parser.add_argument("--p", type=float, help="metric exponent (overrides config)")
    parser.add_argument(
        "--route",
        default="endpoint",
        choices=["endpoint", "oracle", "limit", "energy", "singular"],
        help="distance computation route",
    )
    parser.add_argument("--out", help="write output to this file instead of stdout")
    parser.add_argument("--seed", type=int, help="corpus seed (overrides config)")
    parser.add_argument(
        "--suite",
        action="append",
        choices=sorted(SUITES) + ["all"],
        help="verification suite (repeatable; default all)",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_out(args.out)
        cfg = load_config(args.config)
        if args.p is not None:
            cfg["p"] = args.p
        if args.seed is not None:
            cfg["seed"] = args.seed
        exp = Experiment(cfg)
        return COMMANDS[args.command](exp, args)
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
