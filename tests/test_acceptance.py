"""Acceptance gate: one check per shipped guarantee, tolerances pinned here.

Each test prints a single PASS/FAIL line so the gate can be read off the
log; the assertions carry the same numbers.
"""
import json
import math

import numpy as np
import pytest

from ppgeo import (
    SampledFunction,
    SpatialGrid,
    curve_checks,
    d1_energy,
    default_class_body,
    dp_dual_oracle,
    dp_endpoint,
    dp_limit,
    dp_singular,
    dual_from_form,
    envelope,
    epsilon_family,
    geodesic,
    i_p,
    ma_atomic,
    ma_density,
    measure_identity_residual,
    moment_grid,
    pair_from_catalog,
    rooftop,
    to_dual,
    to_primal,
)
from ppgeo.cli import DEFAULT_CONFIG, Experiment
from ppgeo.cli import main as cli_main
from ppgeo.corpus import obstacle_from_form, random_dual_pairs
from ppgeo.harness import check_completeness, check_epsilon_lemmas

KLASS = default_class_body(1)
GRID = moment_grid(KLASS.p_body, 1024)
SPATIAL = SpatialGrid((-4.0,), (5.0,), (2048,))
FAMILY = epsilon_family(KLASS, 1024)
H = max(max(SPATIAL.spacing), max(GRID.spacing))
SEED = 20240

OBSTACLES = [("quadratic", 1.0), ("quadratic_bump", 2.8), ("soft_ramp", 1.0)]


def _report(num, label, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] acceptance {num:02d} {label} {detail}".rstrip())
    assert ok, f"acceptance {num} ({label}) failed: {detail}"


@pytest.fixture(scope="module")
def pairs():
    return random_dual_pairs(SEED, 50, KLASS.p_body, GRID)


def test_01_legendre_involution(pairs):
    worst = 0.0
    for u, v in pairs[:25]:  # 50 potentials
        for w in (u, v):
            back = to_dual(to_primal(w, SPATIAL), GRID)
            worst = max(worst, float(np.abs(back.values - w.values).max()))
    tol = 2 * H * 1.0  # diam(P) = 1
    _report(1, "dual involution", worst <= tol, f"worst={worst:.2e} tol={tol:.2e}")


def test_02_mass_conservation(pairs):
    worst = 0.0
    for u, v in pairs:
        for w in (u, v):
            mass = ma_atomic(w).total_mass
            worst = max(worst, abs(mass - KLASS.volume) / KLASS.volume)
    _report(2, "measure mass conservation", worst <= 1e-12, f"worst rel={worst:.2e}")


def test_03_envelope_measure_identity():
    ok = True
    details = []
    for name, c in OBSTACLES:
        f = obstacle_from_form(name, SPATIAL)
        rec = envelope(f, KLASS.p_body, GRID, hessian_bound=c)
        res = measure_identity_residual(rec)
        sup = float(ma_density(rec.primal).density.max())
        h = max(SPATIAL.spacing)
        ok = ok and res <= 10 * h * c and sup <= c * 1.01
        details.append(f"{name}: res={res:.4f}<=?{10 * h * c:.4f} sup={sup:.4f}")
    _report(3, "envelope measure identity", ok, "; ".join(details))


def test_04_route_agreement(pairs):
    worst_rel = 0.0
    worst_oracle = 0.0
    for u, v in pairs[:20]:
        fu = SampledFunction(SPATIAL, to_primal(u, SPATIAL).values, "u")
        fv = SampledFunction(SPATIAL, to_primal(v, SPATIAL).values, "v")
        for p in (1.0, 2.0, 3.0):
            d_end = dp_endpoint(u, v, p)  # one dual-cell quadrature; the fsum oracle checks it
            worst_oracle = max(
                worst_oracle,
                abs(d_end - dp_dual_oracle(u, v, p)) / max(d_end, 1e-15),
            )
            rep = dp_limit(fu, fv, FAMILY, p)
            worst_rel = max(
                worst_rel,
                abs(rep.value - d_end) / max(d_end, 5 * max(SPATIAL.spacing) / 0.02),
            )
    ok = worst_rel <= 0.02 and worst_oracle <= 1e-9
    _report(4, "distance route agreement", ok,
            f"limit-vs-endpoint rel={worst_rel:.4f} oracle rel={worst_oracle:.2e}")


def test_05_pythagorean(pairs):
    worst = 0.0
    for u, v in pairs:
        roof = rooftop(u, v)
        lhs = dp_endpoint(u, v, 2.0) ** 2
        rhs = dp_endpoint(u, roof, 2.0) ** 2 + dp_endpoint(v, roof, 2.0) ** 2
        worst = max(worst, abs(lhs - rhs) / max(1.0, lhs))
    # hand value: crossing pair splits 0.5 = 0.25 + 0.25 at p=1
    u, v = pair_from_catalog("crossing_pair", GRID)
    roof = rooftop(u, v)
    hand = (
        abs(dp_endpoint(u, roof, 1.0) - 0.25) <= 1e-3
        and abs(dp_endpoint(v, roof, 1.0) - 0.25) <= 1e-3
    )
    worst_eps = 0.0
    for u, v in pairs[:10]:
        fu = SampledFunction(SPATIAL, to_primal(u, SPATIAL).values, "u")
        fv = SampledFunction(SPATIAL, to_primal(v, SPATIAL).values, "v")
        fmin = SampledFunction(SPATIAL, np.minimum(fu.values, fv.values), "min")
        lhs = dp_limit(fu, fv, FAMILY, 2.0).value ** 2
        rhs = (
            dp_limit(fu, fmin, FAMILY, 2.0).value ** 2
            + dp_limit(fv, fmin, FAMILY, 2.0).value ** 2
        )
        worst_eps = max(worst_eps, abs(lhs - rhs) / max(abs(lhs), 1e-12))
    ok = worst <= 1e-9 and hand and worst_eps <= 0.02
    _report(5, "pythagorean identity", ok,
            f"dual={worst:.2e} eps-route={worst_eps:.4f} hand={hand}")


def test_06_geodesic_metric_property(pairs):
    ts = np.linspace(0.0, 1.0, 5)
    worst = 0.0
    for u, v in pairs[:20]:
        curve = geodesic(u, v)
        base = dp_endpoint(u, v, 2.0)
        for t in ts:
            for s in ts:
                d = dp_endpoint(curve.potential_at(t), curve.potential_at(s), 2.0)
                worst = max(worst, abs(d - abs(t - s) * base) / max(base, 1e-15))
    _report(6, "geodesic constant speed", worst <= 1e-6, f"worst rel={worst:.2e}")


def test_07_energy_distance_route(pairs):
    u, v = pair_from_catalog("ramp_pair", GRID)
    hand = abs(d1_energy(u, v, SPATIAL) - 0.5) <= 0.01
    worst = 0.0
    for u, v in pairs[:20]:
        d_e = d1_energy(u, v, SPATIAL)
        d_1 = dp_endpoint(u, v, 1.0)
        worst = max(worst, abs(d_e - d_1) / max(d_1, 1e-15))
    ok = hand and worst <= 0.01
    _report(7, "energy route for d_1", ok, f"worst rel={worst:.4f} hand={hand}")


def test_08_comparability_with_ip(pairs):
    c_pinned = 4.0
    lo, hi = np.inf, 0.0
    for u, v in pairs[:20]:
        for p in (1.0, 2.0, 3.0):
            ip = i_p(u, v, p)
            if ip <= 1e-12:
                continue
            ratio = dp_endpoint(u, v, p) ** p / ip
            lo, hi = min(lo, ratio), max(hi, ratio)
    ok = lo >= 1 / c_pinned and hi <= c_pinned
    _report(8, "d_p^p comparable to I_p", ok,
            f"ratios in [{lo:.3f}, {hi:.3f}], pinned C={c_pinned}")


def test_09_epsilon_approximation():
    lab = Experiment(dict(DEFAULT_CONFIG, suite_pairs=4)).lab()
    rep = check_epsilon_lemmas(lab, 2.0)
    fracs = rep.details["density_monotone_fractions"]
    gap = rep.details["ip_final_gap"]
    # V_eps must follow a degree-n polynomial in eps
    eps = np.array(FAMILY.schedule)
    vols = np.array(FAMILY.volumes)
    coeffs = np.polyfit(eps, vols, deg=1)
    fit = np.polyval(coeffs, eps)
    ss_res = float(np.sum((vols - fit) ** 2))
    ss_tot = float(np.sum((vols - vols.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot
    ok = min(fracs) >= 0.99 and gap <= 0.02 and r2 >= 0.999
    _report(9, "class-opening lemmas", ok,
            f"monotone>={min(fracs):.4f} ip gap={gap:.4f} R2={r2:.6f}")


def test_10_completeness():
    # the suite replays both the monotone and the oscillating sequence
    lab = Experiment(dict(DEFAULT_CONFIG, suite_pairs=2)).lab()
    worst = max(check_completeness(lab, p).worst_slack for p in (1.0, 2.0))
    _report(10, "rooftop completeness", worst <= 0.05,
            f"worst excess over 2^(1-j)={worst:.2e}")


def test_11_singular_limits():
    u = dual_from_form("dual_zero", GRID)
    v = dual_from_form("dual_log_barrier", GRID)
    d1 = dp_singular(u, v, 1.0).value
    d2 = dp_singular(u, v, 2.0).value
    ok = abs(d1 - 1.0) <= 0.02 and abs(d2 - math.sqrt(2)) <= 0.02 * math.sqrt(2)
    _report(11, "singular potential limits", ok, f"d1={d1:.4f} d2={d2:.4f}")


def test_12_curve_inequalities(pairs):
    h = max(SPATIAL.spacing)
    c_pinned = 1.0  # measured worst residual/h ~ 0.27 over this corpus
    ok = True
    worst = {"convexity": 0.0, "lipschitz": 0.0, "residual": 0.0}
    for u, v in pairs[:20]:
        ck = curve_checks(geodesic(u, v), SPATIAL)
        worst["convexity"] = max(worst["convexity"], ck["convexity_violation"])
        worst["lipschitz"] = max(
            worst["lipschitz"],
            ck["lipschitz_measured"] / max(ck["lipschitz_bound"], 1e-15),
        )
        worst["residual"] = max(worst["residual"], ck["spacetime_ma_residual"])
    ok = (
        worst["convexity"] <= 1e-9
        and worst["lipschitz"] <= 1 + 1e-6
        and worst["residual"] <= c_pinned * h
    )
    _report(12, "geodesic curve inequalities", ok,
            f"convexity={worst['convexity']:.2e} lip ratio={worst['lipschitz']:.8f} "
            f"residual={worst['residual']:.2e}<=?{c_pinned * h:.2e}")


def test_13_deterministic_reports(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "moment_cells": 256,
        "spatial": {"lo": [-4.0], "hi": [5.0], "cells": [512]},
        "suite_pairs": 5,
        "seed": 99,
    }))
    outs = []
    files = []
    for i in (0, 1):
        out_file = tmp_path / f"rep{i}.json"
        rc = cli_main(["verify", "--suite", "pythagorean", "--suite",
                       "monotone_continuity", "--config", str(cfg),
                       "--out", str(out_file)])
        assert rc == 0
        outs.append(capsys.readouterr().out)
        files.append(out_file.read_bytes())
    ok = outs[0] == outs[1] and files[0] == files[1]
    _report(13, "byte-identical verification reports", ok)
