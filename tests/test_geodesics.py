import itertools
import math
import warnings

import numpy as np
import pytest

from ppgeo import (
    Body,
    DualPotential,
    SpatialGrid,
    curve_checks,
    default_class_body,
    dual_from_form,
    geodesic,
    moment_grid,
    pair_from_catalog,
)
from ppgeo.corpus import random_dual_pairs
from ppgeo.geodesics import T_SAMPLES

KLASS = default_class_body(1)
GRID = moment_grid(KLASS.p_body, 1024)
SPATIAL = SpatialGrid((-4.0,), (5.0,), (2048,))


def test_endpoints_are_exact():
    u, v = pair_from_catalog("quadratic_pair", GRID)
    c = geodesic(u, v)
    assert np.array_equal(c.dual_at(0.0), u.values)
    assert np.array_equal(c.dual_at(1.0), v.values)


def test_reversal_is_bitwise():
    u, v = pair_from_catalog("cusp_pair", GRID)
    c, r = geodesic(u, v), geodesic(v, u)
    for t in (0.0, 0.25, 0.5, 1.0):
        assert np.array_equal(c.dual_at(t), r.dual_at(1.0 - t))


def test_restriction_is_a_geodesic():
    u, v = pair_from_catalog("quadratic_pair", GRID)
    c = geodesic(u, v)
    sub = geodesic(u, c.potential_at(0.5))
    assert np.allclose(sub.dual_at(1.0), c.dual_at(0.5), atol=1e-15)
    assert np.allclose(sub.dual_at(0.5), c.dual_at(0.25), atol=1e-15)


def test_known_geodesic_between_supports():
    # from the reference potential to max(0, x-1): u_t(x) = max(0, x - t)
    u = dual_from_form("dual_zero", GRID)
    v = dual_from_form("dual_ramp", GRID)
    c = geodesic(u, v)
    vals = c.primal_at(0.5, SPATIAL)
    x = SPATIAL.axes()[0]
    i = np.argmin(np.abs(x - 2.0))
    # slopes live at cell centers, so primal values carry an O(h |x|) offset
    tol = 3 * max(GRID.spacing) * float(np.abs(x).max())
    assert vals[i] == pytest.approx(1.5, abs=tol)
    assert np.abs(vals - np.maximum(0.0, x - 0.5)).max() <= tol


def test_crossing_pair_midpoint_value():
    u, v = pair_from_catalog("crossing_pair", GRID)
    c = geodesic(u, v)
    vals = c.primal_at(0.5, SPATIAL)
    x = SPATIAL.axes()[0]
    i = np.argmin(np.abs(x))
    assert vals[i] == pytest.approx(-0.5, abs=1e-6)


def test_curve_checks_on_corpus():
    h = max(SPATIAL.spacing)
    for u, v in random_dual_pairs(13, 5, KLASS.p_body, GRID):
        ck = curve_checks(geodesic(u, v), SPATIAL)
        assert ck["chord_slack"] <= 1e-9
        assert ck["convexity_violation"] <= 1e-9
        assert ck["lipschitz_measured"] <= ck["lipschitz_bound"] * (1 + 1e-6)
        assert ck["spacetime_ma_residual"] <= 1.0 * h


def test_spacetime_residual_scales_with_h():
    u, v = pair_from_catalog("crossing_pair", GRID)
    res = []
    for cells in (512, 2048):
        sp = SpatialGrid((-4.0,), (5.0,), (cells,))
        res.append(curve_checks(geodesic(u, v), sp)["spacetime_ma_residual"])
    # quadrupling the resolution should cut the weak residual down ~4x
    assert res[1] <= 0.5 * res[0]


def _masked_triangle_pair():
    triangle = Body([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
    grid = moment_grid(triangle, 16)
    p = grid.nodes().reshape(grid.shape + (2,))
    u = DualPotential(triangle, grid, (p**2).sum(-1))
    v = DualPotential(triangle, grid, p[..., 0] - p[..., 1])
    assert (~grid.mask).any()
    return grid, u, v


def test_masked_endpoints_stay_singular_without_warnings():
    grid, u, v = _masked_triangle_pair()
    curve = geodesic(u, v)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t, end in ((0.0, u), (1.0, v)):
            mid = curve.potential_at(t)
            assert np.array_equal(mid.values, end.values)
            assert np.isposinf(mid.values[~grid.mask]).all()
        assert np.isinf(curve.dual_at(0.5)[~grid.mask]).all()
        ck = curve_checks(curve, SpatialGrid((-2.0, -2.0), (2.0, 2.0), (16, 16)))
    finite = grid.mask
    assert ck["lipschitz_bound"] == np.abs(u.values[finite] - v.values[finite]).max()
    assert all(np.isfinite(value) for value in ck.values())


def _lipschitz_cases():
    """The seeded 1d corpus, the masked triangle pair and the singular catalog pair."""
    for u, v in random_dual_pairs(13, 5, KLASS.p_body, GRID):
        yield geodesic(u, v), SPATIAL
    _, u, v = _masked_triangle_pair()
    yield geodesic(u, v), SpatialGrid((-2.0, -2.0), (2.0, 2.0), (16, 16))
    yield geodesic(*pair_from_catalog("log_barrier_singular", GRID)), SPATIAL


def test_lipschitz_pair_equals_the_all_pairs_and_both_finite_maxima():
    # the adjacent sample times bound every chord, so reading only them changes no float
    for curve, grid in _lipschitz_cases():
        samples = [curve.primal_at(t, grid) for t in T_SAMPLES]
        all_pairs = max(
            float(np.abs(samples[j] - samples[i]).max()) / (T_SAMPLES[j] - T_SAMPLES[i])
            for i, j in itertools.combinations(range(len(T_SAMPLES)), 2)
        )
        both_finite = max(
            (abs(b - a) for a, b in zip(curve.u0.values.ravel().tolist(),
                                        curve.u1.values.ravel().tolist())
             if math.isfinite(a) and math.isfinite(b)),
            default=0.0,
        )
        ck = curve_checks(curve, grid)
        assert ck["lipschitz_measured"] == all_pairs
        assert ck["lipschitz_bound"] == both_finite
