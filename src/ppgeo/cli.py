"""Command line front end.

Experiments are described by a JSON config file: dimension, grid sizes,
an epsilon schedule, and potentials referenced by catalog id (no expression
parsing).  All outputs are deterministic for a fixed config and seed, with
floats printed to 12 significant digits.

Exit codes: 0 success (all checks passed), 1 verification failure,
2 configuration error.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .bodies import Body, ClassBody, default_class_body, epsilon_family
from .corpus import (
    CLOSED_FORMS,
    PAIR_CATALOG,
    dual_from_form,
    pair_from_catalog,
    random_dual_pairs,
    sample_closed_form,
)
from .duality import to_primal
from .envelopes import envelope, measure_identity_residual
from .geodesics import curve_checks, geodesic
from .grids import ConfigurationError, SampledFunction, SpatialGrid, moment_grid
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


def _sig12(x):
    """Round floats (recursively) to 12 significant digits for stable output."""
    if isinstance(x, float):
        return float(f"{x:.12g}")
    if isinstance(x, dict):
        return {k: _sig12(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_sig12(v) for v in x]
    if isinstance(x, (np.floating,)):
        return float(f"{float(x):.12g}")
    if isinstance(x, (np.integer,)):
        return int(x)
    if isinstance(x, np.ndarray):
        return _sig12(x.tolist())
    return x


def _dump(payload: dict) -> str:
    payload = dict(payload)
    payload.setdefault("format_version", FORMAT_VERSION)
    return json.dumps(_sig12(payload), indent=2, sort_keys=True) + "\n"


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


class Experiment:
    """Grids, bodies and potentials resolved from a config dict."""

    def __init__(self, cfg: dict):
        self.cfg = cfg
        ndim = int(cfg["dimension"])
        if "p_body" in cfg or "q_body" in cfg:
            try:
                self.klass = ClassBody(
                    Body(cfg["p_body"]), Body(cfg["q_body"])
                )
            except KeyError as exc:
                raise ConfigurationError(f"p_body/q_body must be given together: {exc}")
        else:
            self.klass = default_class_body(ndim)
        self.grid = moment_grid(self.klass.p_body, cfg["moment_cells"])
        sp = cfg["spatial"]
        self.spatial = SpatialGrid(tuple(sp["lo"]), tuple(sp["hi"]), tuple(sp["cells"]))
        self.family = epsilon_family(
            self.klass, cfg["moment_cells"], cfg["epsilon_schedule"]
        )
        self.p = float(cfg["p"])
        self.seed = int(cfg["seed"])

    def resolve_pair(self):
        spec = self.cfg["pair"]
        if isinstance(spec, str):
            if spec in PAIR_CATALOG:
                return pair_from_catalog(spec, self.klass.p_body, self.grid)
            raise ConfigurationError(f"unknown bundled pair {spec!r}")
        if isinstance(spec, dict) and "seed_index" in spec:
            k = spec["seed_index"]
            if not isinstance(k, int) or isinstance(k, bool) or k < 0:
                raise ConfigurationError(f"seed_index must be a non-negative integer, got {k!r}")
            pairs = random_dual_pairs(self.seed, k + 1, self.klass.p_body, self.grid)
            return pairs[k]
        if isinstance(spec, (list, tuple)) and len(spec) == 2:
            return (
                dual_from_form(spec[0], self.klass.p_body, self.grid),
                dual_from_form(spec[1], self.klass.p_body, self.grid),
            )
        raise ConfigurationError(f"cannot interpret pair spec {spec!r}")

    def resolve_obstacles(self):
        out = []
        for name in self.cfg["obstacles"]:
            vals = sample_closed_form(name, self.spatial)
            out.append(SampledFunction(self.spatial, vals, provenance=name))
        bounds = tuple(CLOSED_FORMS[n].hessian_bound for n in self.cfg["obstacles"])
        return out, bounds

    def resolve_dual(self):
        return dual_from_form(self.cfg["potential"], self.klass.p_body, self.grid)


def _write(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def cmd_distance(exp: Experiment, args) -> int:
    route = args.route
    if route == "limit":
        fs, bounds = exp.resolve_obstacles()
        report = dp_limit(fs[0], fs[1], exp.family, exp.p, hessian_bounds=bounds)
    elif route == "singular":
        u0, u1 = exp.resolve_pair()
        report = dp_singular(u0, u1, exp.p)
    else:
        u0, u1 = exp.resolve_pair()
        if route == "endpoint":
            value = dp_endpoint(u0, u1, exp.p)
        elif route == "oracle":
            value = dp_dual_oracle(u0, u1, exp.p)
        elif route == "energy":
            if exp.p != 1.0:
                raise ConfigurationError("the energy route computes d_1 only")
            value = d1_energy(u0, u1, exp.spatial)
        else:
            raise ConfigurationError(f"unknown route {route!r}")
        report = DistanceReport(p=exp.p, value=value, route=route)
    text = report.to_csv() if (args.out or "").endswith(".csv") else report.to_json() + "\n"
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
    fs, bounds = exp.resolve_obstacles()
    f, bound = fs[0], bounds[0]
    rec = envelope(f, exp.klass.p_body, exp.grid, hessian_bound=bound)
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
        "class_volume": exp.klass.volume,
        "atom_count": int(atoms.masses.size),
    }
    if not u.is_singular:
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
    threads = int(os.environ.get("PPGEO_THREADS", "1"))
    pairs = tuple(
        random_dual_pairs(
            exp.seed, int(exp.cfg["suite_pairs"]), exp.klass.p_body, exp.grid
        )
    )
    lab = Lab(exp.klass, exp.grid, exp.spatial, exp.family, exp.seed, pairs)
    reports = run_suites(names, lab, exp.p, max_workers=max(1, threads))
    for rep in reports:
        print(rep.to_text())
    if args.out:
        combined = {
            "format_version": FORMAT_VERSION,
            "seed": exp.seed,
            "p": exp.p,
            "suites": [json.loads(r.to_json()) for r in reports],
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
