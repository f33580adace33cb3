import dataclasses
import json

import pytest

import ppgeo.harness
from ppgeo import DualPotential, Lab, TheoremReport, run_suites
from ppgeo.cli import DEFAULT_CONFIG, Experiment
from ppgeo.harness import (
    SUITES,
    check_completeness,
    check_epsilon_lemmas,
    check_monotone_continuity,
    check_pythagorean,
)


@pytest.fixture(scope="module")
def lab():
    return Experiment(dict(DEFAULT_CONFIG, moment_cells=512, suite_pairs=8,
                           spatial={"lo": [-4.0], "hi": [5.0], "cells": [1024]})).lab()


def test_every_suite_passes(lab):
    reports = run_suites(list(SUITES), lab, p=2.0)
    for rep in reports:
        assert rep.verdict == "pass", rep.to_text()


def test_report_serialization_roundtrip(lab):
    rep = check_pythagorean(lab, 2.0)
    payload = json.loads(json.dumps(rep.to_dict(), allow_nan=False))
    assert payload["verdict"] == "pass"
    assert payload["worst_slack"] == rep.worst_slack
    assert "[PASS]" in rep.to_text()


def test_verdict_flips_on_tolerance():
    rep = TheoremReport("x", "d", "c", slacks=[0.5], tolerance=0.1)
    assert rep.verdict == "fail"
    rep.tolerance = 1.0
    assert rep.verdict == "pass"


def test_completeness_budget_and_limits(lab):
    rep = check_completeness(lab, 2.0)
    assert rep.verdict == "pass"
    assert sorted(rep.details) == ["monotone", "oscillating"]
    for details in rep.details.values():
        assert details["budget_ok"]
        assert details["rooftop_monotone_violation"] <= 1e-12
        assert details["limit_decreasing"]


def test_completeness_sees_a_rooftop_violation_on_a_triangle(monkeypatch):
    # off the triangle every dual is +inf: the check must read the body only
    lab = Experiment(dict(
        DEFAULT_CONFIG, dimension=2, moment_cells=16, suite_pairs=1,
        spatial={"lo": [-4.0, -4.0], "hi": [5.0, 5.0], "cells": [32, 32]},
        p_body=[[0.0, 0.0], [1.0, 0.0], [0.3, 1.0]],
        q_body=[[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]],
    )).lab()
    real = ppgeo.harness.rooftop

    def undone(*us):
        # every other rooftop's dual drops by 0.1, so it no longer grows in k
        roof = real(*us)
        return DualPotential(roof.body, roof.grid, roof.values - 0.1 * (len(us) % 2), "undone")

    monkeypatch.setattr(ppgeo.harness, "rooftop", undone)
    rep = check_completeness(lab, 2.0)
    for details in rep.details.values():
        assert details["rooftop_monotone_violation"] > 0.05


def test_monotone_continuity_details(lab):
    rep = check_monotone_continuity(lab, 2.0)
    assert rep.details["ip_decreasing"]
    gaps = rep.details["cap_gaps"]
    assert gaps[-1] <= gaps[0]


def test_epsilon_lemmas_monotone_density(lab):
    rep = check_epsilon_lemmas(lab, 2.0)
    assert min(rep.details["density_monotone_fractions"]) >= 0.99
    assert rep.details["ip_final_gap"] <= 0.02


SQUARE_32 = {"dimension": 2, "moment_cells": 32, "suite_pairs": 1,
             "spatial": {"lo": [-4.0, -4.0], "hi": [5.0, 5.0], "cells": [64, 64]}}
TRIANGLE_32 = dict(SQUARE_32, p_body=[[0, 0], [1, 0], [0.3, 1]],
                   q_body=[[-1, -1], [1, -1], [1, 1], [-1, 1]])


@pytest.mark.parametrize("cfg", [SQUARE_32, TRIANGLE_32], ids=["square", "triangle"])
def test_epsilon_lemmas_velocity_gaps_decay_along_the_schedule(cfg):
    # both ends of the difference quotient come off the one geodesic, so the
    # gap to the limit body's integrand shrinks as the class closes; against
    # the exact envelope primal the O(h) gap between the two samplings swamps it
    gaps = check_epsilon_lemmas(Experiment(dict(DEFAULT_CONFIG, **cfg)).lab(), 2.0) \
        .details["velocity_l1_gaps"]
    assert len(gaps) == 7
    assert all(b < a for a, b in zip(gaps, gaps[1:])), gaps


@pytest.mark.parametrize("cfg", [{}, SQUARE_32], ids=["1d", "square"])
def test_epsilon_lemmas_density_bound_is_the_measured_obstacles(cfg):
    # only the quadratic obstacle's envelope densities are measured: its bound, 1, per axis
    lab = Experiment(dict(DEFAULT_CONFIG, **cfg)).lab()
    bound = ppgeo.harness.CLOSED_FORMS["quadratic"].hessian_bound
    assert ppgeo.harness.EPSILON_OBSTACLES[0] == "quadratic" and bound == 1.0
    rep = check_epsilon_lemmas(lab, 2.0)
    assert rep.details["density_bound"] == bound ** lab.klass.ndim * 1.01 == 1.01


def test_unknown_suite_rejected(lab):
    with pytest.raises(KeyError):
        run_suites(["nope"], lab, 2.0)


def test_lab_reads_its_class_and_grid_off_its_family(lab):
    assert lab.grid is lab.family.base_grid
    assert lab.klass is lab.family.base
    assert [f.name for f in dataclasses.fields(Lab)] == ["spatial", "family", "pairs"]
