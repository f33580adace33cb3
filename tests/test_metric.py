import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ppgeo.duality
import ppgeo.envelopes
from ppgeo import (
    Body,
    ClassBody,
    ConfigurationError,
    DualPotential,
    SampledFunction,
    SpatialGrid,
    d1_energy,
    default_class_body,
    dp_dual_oracle,
    dp_endpoint,
    dp_limit,
    dp_singular,
    dual_from_form,
    energy,
    envelope,
    epsilon_family,
    geodesic,
    grid_stack,
    ma_atomic,
    ma_mixed_pair,
    minkowski_sum,
    moment_grid,
    pair_from_catalog,
    rooftop,
    to_dual,
    to_duals,
    to_primal,
    truncate_dual,
)
from ppgeo.cli import DEFAULT_CONFIG, Experiment
from ppgeo.corpus import obstacle_from_form, random_dual_pairs
from ppgeo.envelopes import envelopes
from ppgeo.harness import check_epsilon_lemmas
from ppgeo.measures import RequiresTruncationError, i_p
from ppgeo.metric import CSV_HEADER

KLASS = default_class_body(1)
GRID = moment_grid(KLASS.p_body, 1024)
SPATIAL = SpatialGrid((-4.0,), (5.0,), (2048,))
FAMILY = epsilon_family(KLASS, 1024)


def test_ramp_pair_hand_values():
    u, v = pair_from_catalog("ramp_pair", GRID)
    assert dp_endpoint(u, v, 1.0) == pytest.approx(0.5, abs=1e-12)
    assert dp_endpoint(u, v, 2.0) == pytest.approx(3 ** -0.5, rel=1e-5)


def test_crossing_pair_hand_values():
    u, v = pair_from_catalog("crossing_pair", GRID)
    assert dp_endpoint(u, v, 1.0) == pytest.approx(0.5, abs=1e-12)
    assert dp_endpoint(u, v, 2.0) == pytest.approx(3 ** -0.5, rel=1e-5)


def test_metric_axioms_on_corpus():
    pairs = random_dual_pairs(23, 5, KLASS.p_body, GRID)
    for u, v in pairs:
        assert dp_endpoint(u, u, 2.0) == 0.0
        assert dp_endpoint(u, v, 2.0) == dp_endpoint(v, u, 2.0)
    (u, v), (w, _) = pairs[0], pairs[1]
    assert dp_endpoint(u, v, 2.0) <= (
        dp_endpoint(u, w, 2.0) + dp_endpoint(w, v, 2.0) + 1e-12
    )


def test_holder_ordering_in_p():
    u, v = random_dual_pairs(5, 1, KLASS.p_body, GRID)[0]
    d1, d2, d3 = (dp_endpoint(u, v, p) for p in (1.0, 2.0, 3.0))
    assert d1 <= d2 + 1e-12 <= d3 + 1e-12


def test_oracle_agrees_with_endpoint():
    for u, v in random_dual_pairs(31, 5, KLASS.p_body, GRID):
        for p in (1.0, 2.0, 3.0):
            a = dp_endpoint(u, v, p)
            b = dp_dual_oracle(u, v, p)
            assert a == pytest.approx(b, rel=1e-12, abs=1e-300)


def _numpy_scalar_oracle(u0, u1, p):
    """The fsum oracle as it looped over numpy scalars, kept as the reference."""
    w, a, b = u0.grid.weights.ravel(), u0.values.ravel(), u1.values.ravel()
    terms = []
    for j in range(len(w)):
        if w[j] > 0.0:
            terms.append(w[j] * abs(b[j] - a[j]) ** p)
    return (math.fsum(terms) / u0.body.volume()) ** (1.0 / p)


def test_oracle_matches_numpy_scalar_loop():
    # the triangle's grid has zero weights and +inf duals off its cells
    triangle = Body([(0.0, 0.0), (1.0, 0.0), (0.3, 1.0)])
    pairs = (random_dual_pairs(31, 3, KLASS.p_body, GRID)
             + random_dual_pairs(20240, 2, triangle, moment_grid(triangle, 24)))
    for u, v in pairs:
        for p in (1.0, 1.5, 2.0, 3.0):
            assert dp_dual_oracle(u, v, p) == _numpy_scalar_oracle(u, v, p)


def test_d1_energy_route():
    u, v = pair_from_catalog("ramp_pair", GRID)
    assert d1_energy(u, v, SPATIAL) == pytest.approx(0.5, rel=1e-2)
    for u, v in random_dual_pairs(17, 5, KLASS.p_body, GRID):
        assert d1_energy(u, v, SPATIAL) == pytest.approx(
            dp_endpoint(u, v, 1.0), rel=1e-2
        )


def test_limit_route_matches_endpoint():
    f = obstacle_from_form("quadratic", SPATIAL)
    g = obstacle_from_form("soft_ramp", SPATIAL)
    rep = dp_limit(f, g, FAMILY, 2.0)
    assert rep.route == "epsilon_limit"
    assert len(rep.table) == 7
    dev = rep.cross_route["deviation_endpoint"]
    assert dev <= max(0.02 * rep.value, 5 * max(SPATIAL.spacing))


def test_limit_route_ramp_pair_value():
    # primal obstacles of the ramp pair: 0-dual and p-dual potentials
    u, v = pair_from_catalog("ramp_pair", GRID)
    fu = SampledFunction(SPATIAL, to_primal(u, SPATIAL).values, "u")
    fv = SampledFunction(SPATIAL, to_primal(v, SPATIAL).values, "v")
    rep = dp_limit(fu, fv, FAMILY, 1.0)
    assert rep.value == pytest.approx(0.5, rel=0.02)


def test_singular_limits():
    u = dual_from_form("dual_zero", GRID)
    v = dual_from_form("dual_log_barrier", GRID)
    r1 = dp_singular(u, v, 1.0)
    r2 = dp_singular(u, v, 2.0)
    assert r1.value == pytest.approx(1.0, rel=0.02)
    assert r2.value == pytest.approx(math.sqrt(2.0), rel=0.02)
    assert r1.converged and r2.converged
    # increments dominated by the I_p Cauchy bounds
    for inc, bound in zip(r1.cross_route["increments"], r1.cross_route["cauchy_bounds"]):
        assert inc <= bound + 1e-12


def test_endpoint_on_a_singular_dual_requires_truncation():
    u, v = pair_from_catalog("log_barrier_singular", GRID)
    # the log barrier is +inf at p = 1; put that node on the last cell
    vals = v.values.copy()
    vals[-1] = np.inf
    v = DualPotential(KLASS.p_body, GRID, vals, "singular")
    with pytest.raises(RequiresTruncationError):
        dp_endpoint(u, v, 2.0)
    assert math.isfinite(dp_singular(u, v, 2.0).value)


def test_2d_energy_on_a_triangle_raises():
    # the midpoint polarization of the mixed term needs a box body, and the
    # check is made at the boundary, before any polarization can go wrong
    body = Body([(0.0, 0.0), (1.0, 0.0), (0.3, 1.0)])
    grid = moment_grid(body, 32)
    sp = SpatialGrid((-2.0, -2.0), (2.0, 2.0), (32, 32))
    p = grid.nodes().reshape(grid.shape + (2,))
    u = DualPotential(body, grid, 0.5 * (p**2).sum(-1))
    zero = DualPotential(body, grid, np.zeros(grid.shape))
    with pytest.raises(ConfigurationError, match="fills its bounding box"):
        energy(u, sp)
    with pytest.raises(ConfigurationError, match="fills its bounding box"):
        d1_energy(u, zero, sp)


def test_truncation_is_monotone():
    v = dual_from_form("dual_log_barrier", GRID)
    t4 = truncate_dual(v, 4.0)
    t8 = truncate_dual(v, 8.0)
    finite = np.isfinite(v.values)
    assert (t4.values <= t8.values + 1e-12).all()
    assert (t8.values[finite] <= v.values[finite] + 1e-12).all()


def test_report_serialization():
    f = obstacle_from_form("quadratic", SPATIAL)
    g = obstacle_from_form("soft_ramp", SPATIAL)
    rep = dp_limit(f, g, FAMILY, 2.0)
    payload = json.loads(json.dumps(rep.to_dict(), allow_nan=False))
    assert payload["format_version"] == 1
    assert len(payload["table"]) == 7
    csv_text = rep.to_csv()
    assert csv_text.splitlines()[0] == ",".join(CSV_HEADER)
    assert len(csv_text.splitlines()) == 8


def test_endpoint_matches_oracle_on_a_triangle():
    # +inf envelope duals sit on the zero-weight cells outside the triangle
    body = Body([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
    grid = moment_grid(body, 16)
    sp = SpatialGrid((-2.0, -2.0), (3.0, 3.0), (32, 32))
    x, y = np.meshgrid(*sp.axes(), indexing="ij")
    e0 = envelope(SampledFunction(sp, 0.5 * (x**2 + y**2)), body, grid)
    e1 = envelope(SampledFunction(sp, 0.5 * ((x - 0.3) ** 2 + 2 * y**2)), body, grid)
    assert np.isposinf(e0.dual.values).any()
    for p in (1.0, 2.0, 3.0):
        d = dp_endpoint(e0.dual, e1.dual, p)
        assert math.isfinite(d) and d > 0
        assert abs(d - dp_dual_oracle(e0.dual, e1.dual, p)) <= 1e-9 * d


SQUARE = default_class_body(2).p_body
# the paper's non-Kahler triangle: its bounding box is the unit square's
TRIANGLE = Body([(0.0, 0.0), (1.0, 0.0), (0.3, 1.0)])


@pytest.mark.parametrize("route", [dp_endpoint, dp_dual_oracle, i_p, rooftop, geodesic,
                                   ma_mixed_pair],
                         ids=["dp_endpoint", "dp_dual_oracle", "i_p", "rooftop", "geodesic",
                              "ma_mixed_pair"])
@pytest.mark.parametrize("order", [1, -1], ids=["square_first", "triangle_first"])
def test_duals_of_two_bodies_with_one_box_do_not_pair(route, order):
    square, triangle = (dual_from_form("dual_quadratic", moment_grid(b, 16))
                        for b in (SQUARE, TRIANGLE))
    assert square.grid.lo == triangle.grid.lo and square.grid.hi == triangle.grid.hi
    assert square.grid != triangle.grid
    last = {dp_endpoint: (2.0,), dp_dual_oracle: (2.0,), i_p: (2.0,),
            ma_mixed_pair: (SpatialGrid((-2.0, -2.0), (3.0, 3.0), (16, 16)),)}
    args = (square, triangle)[::order] + last.get(route, ())
    with pytest.raises(ConfigurationError, match="common moment grid"):
        route(*args)


def test_a_dual_and_an_envelope_need_the_body_of_their_grid():
    grid = moment_grid(TRIANGLE, 16)
    with pytest.raises(ConfigurationError, match="body of the moment grid"):
        DualPotential(SQUARE, grid, np.zeros(grid.shape))
    sp = SpatialGrid((-2.0, -2.0), (3.0, 3.0), (16, 16))
    f = SampledFunction(sp, 0.5 * (sp.nodes() ** 2).sum(axis=1).reshape(sp.shape))
    with pytest.raises(ConfigurationError, match="body of the moment grid"):
        envelope(f, SQUARE, grid)
    with pytest.raises(ConfigurationError, match="body of the moment grid"):
        random_dual_pairs(0, 1, SQUARE, grid)
    assert envelope(f, TRIANGLE, grid).dual.body == TRIANGLE


def count_calls(monkeypatch, module, name) -> list:
    """Positional arguments of each call of ``module.name``, through every ppgeo module holding it."""
    real, calls = getattr(module, name), []

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("ppgeo") and vars(mod).get(name) is real:
            monkeypatch.setattr(mod, name, wrapper)
    return calls


def test_limit_hulls_each_obstacle_once(monkeypatch):
    sp = SpatialGrid((-4.0,), (5.0,), (256,))
    family = epsilon_family(KLASS, 128)
    hulls = count_calls(monkeypatch, ppgeo.duality, "lower_hull_indices")
    envelopes = count_calls(monkeypatch, ppgeo.envelopes, "envelope")
    grids = count_calls(monkeypatch, ppgeo.grids, "moment_grid")
    cut = count_calls(monkeypatch, ppgeo.duality, "to_duals")
    built, measured = [], []
    post_init, volume = DualPotential.__post_init__, Body.volume
    monkeypatch.setattr(DualPotential, "__post_init__",
                        lambda self: built.append(self) or post_init(self))
    monkeypatch.setattr(Body, "volume", lambda self: measured.append(self) or volume(self))
    # fresh obstacles: no hull can come from an earlier call
    f = obstacle_from_form("quadratic", sp)
    g = obstacle_from_form("soft_ramp", sp)
    dp_limit(f, g, family, 2.0)
    # one transform per obstacle serves the 7 perturbed bodies and the base
    # body, whose grid the family holds; the table is priced off the stacked
    # transforms, and only the base pair becomes duals, for the oracle; the
    # family holds its stacked cells, weights and volumes, so only the oracle
    # measures a body
    assert len(family.stack.grids[:-1]) == 7
    assert (len(hulls), len(envelopes), len(grids)) == (2, 0, 0)
    assert (len(built), len(cut), len(measured)) == (2, 0, 1)


def test_limit_searches_the_hull_slopes_among_the_stacked_queries(monkeypatch):
    # the obstacles of the limit_1d benchmark: primals of a piecewise affine dual
    # pair, whose hulls have a few dozen vertices
    (u, v), = random_dual_pairs(20240, 1, KLASS.p_body, GRID)
    f0, f1 = (SampledFunction(SPATIAL, to_primal(w, SPATIAL).values) for w in (u, v))
    searched, real = [], np.searchsorted
    monkeypatch.setattr(np, "searchsorted",
                        lambda a, keys, **kw: searched.append(np.size(keys)) or real(a, keys, **kw))
    dp_limit(f0, f1, FAMILY, 2.0)
    # the family's 8192 stacked queries ascend, so each of the 2 forward transforms
    # fills its hull pieces: no binary search per query
    assert len(FAMILY.stack.queries[0]) == 8192
    assert 8192 not in searched


def test_1d_epsilon_lemmas_hulls_its_obstacle_once_per_transform(monkeypatch):
    lab = Experiment(dict(DEFAULT_CONFIG)).lab()
    hulls = count_calls(monkeypatch, ppgeo.duality, "lower_hull_indices")
    check_epsilon_lemmas(lab, 2.0)
    # on the obstacle's nodes: its transform, the other obstacle's, and one
    # hull that the envelope primals of the base body and the 7 perturbed ones share
    nodes = len(lab.spatial.axes()[0])
    assert (nodes, len(lab.family.stack.grids[:-1])) == (2049, 7)
    assert sum(len(x) == nodes for x, _ in hulls) == 3


def test_2d_epsilon_lemmas_hulls_its_obstacle_once(monkeypatch):
    lab = Experiment(dict(DEFAULT_CONFIG, dimension=2, moment_cells=16, suite_pairs=1,
                          spatial={"lo": [-4.0, -4.0], "hi": [5.0, 5.0], "cells": [32, 32]})).lab()
    facets = count_calls(monkeypatch, ppgeo.duality, "lower_facets")
    planes = count_calls(monkeypatch, ppgeo.duality, "max_affine")
    # the suite samples its obstacles afresh; the base body and the 7 perturbed ones share a hull,
    # and each of the 8 envelope primals reads its facet planes in one max over planes
    check_epsilon_lemmas(lab, 2.0)
    assert len(lab.family.stack.grids[:-1]) == 7
    assert (len(facets), len(planes)) == (1, 8)


def _compressed_endpoint(u0, u1, p):
    """The endpoint formula as one pair's own compressed sum, kept as the reference."""
    w = u0.grid.weights
    pos = w > 0
    d = u1.values[pos] - u0.values[pos]
    return float((np.sum(w[pos] * np.abs(d) ** p) / u0.body.volume()) ** (1.0 / p))


def _assert_limit_matches_full_envelopes(f0, f1, family, ps=(1.0, 1.5, 2.0, 3.0)):
    """dp_limit against its table and cross routes built from full envelope records, at each p."""
    base_grid = moment_grid(family.base.p_body, family.cells)
    *duals, (b0, b1) = [
        (envelope(f0, grid.body, grid).dual, envelope(f1, grid.body, grid).dual)
        for grid in family.stack.grids[:-1] + (base_grid,)
    ]
    for p in ps:
        rep = dp_limit(f0, f1, family, p)
        table = [(eps, vol, _compressed_endpoint(a, b, p))
                 for eps, vol, (a, b) in zip(family.schedule, family.volumes, duals)]
        assert rep.table == table
        assert [dp_endpoint(a, b, p) for a, b in duals] == [d for *_, d in table]
        d_end, d_oracle = _compressed_endpoint(b0, b1, p), dp_dual_oracle(b0, b1, p)
        assert rep.cross_route == {
            "endpoint": d_end,
            "dual_oracle": d_oracle,
            "deviation_endpoint": abs(rep.value - d_end),
            "deviation_oracle": abs(rep.value - d_oracle),
        }


@pytest.mark.parametrize("seed", [20240, 861317])
def test_limit_matches_full_envelopes_1d(seed):
    (u, v), = random_dual_pairs(seed, 1, KLASS.p_body, GRID)
    fu = SampledFunction(SPATIAL, to_primal(u, SPATIAL).values, "u")
    fv = SampledFunction(SPATIAL, to_primal(v, SPATIAL).values, "v")
    _assert_limit_matches_full_envelopes(fu, fv, FAMILY)


def _quadratic_obstacles():
    sp = SpatialGrid((-2.0, -2.0), (3.0, 3.0), (32, 32))
    x, y = np.meshgrid(*sp.axes(), indexing="ij")
    return (SampledFunction(sp, 0.5 * (x**2 + y**2), "round"),
            SampledFunction(sp, 0.5 * ((x - 0.3) ** 2 + 2 * y**2), "shifted"))


def test_limit_matches_full_envelopes_2d():
    _assert_limit_matches_full_envelopes(*_quadratic_obstacles(),
                                         epsilon_family(default_class_body(2), 16))


def test_limit_matches_full_envelopes_triangle():
    klass = ClassBody(Body([(0, 0), (1, 0), (0.3, 1)]), default_class_body(2).q_body)
    family = epsilon_family(klass, 16)
    # each eps-grid has its own mask, so the table's rows sum over different cells
    assert len({int(g.mask.sum()) for g in family.stack.grids[:-1]}) == len(family.stack.grids[:-1])
    _assert_limit_matches_full_envelopes(*_quadratic_obstacles(), family)


def test_limit_matches_full_envelopes_on_two_spatial_grids():
    # each obstacle is transformed from its own nodes onto the family's grids
    f = obstacle_from_form("quadratic", SpatialGrid((-4.0,), (5.0,), (256,)))
    g = obstacle_from_form("soft_ramp", SpatialGrid((-3.0,), (4.5,), (301,)))
    _assert_limit_matches_full_envelopes(f, g, epsilon_family(KLASS, 64))
    sp = SpatialGrid((-2.0, -2.5), (3.0, 3.5), (24, 28))
    x, y = np.meshgrid(*sp.axes(), indexing="ij")
    f2 = SampledFunction(sp, 0.5 * (x**2 + y**2) + 0.2 * np.cos(2 * x + y), "ripple")
    klass = ClassBody(Body([(0, 0), (1, 0), (0.3, 1)]), default_class_body(2).q_body)
    _assert_limit_matches_full_envelopes(f2, _quadratic_obstacles()[1], epsilon_family(klass, 16),
                                         ps=(1.0, 2.0))


def test_limit_on_a_two_entry_schedule_does_not_claim_convergence():
    # the fit passes through both points and one increment has nothing to be compared with
    f = obstacle_from_form("quadratic", SPATIAL)
    g = obstacle_from_form("soft_ramp", SPATIAL)
    rep = dp_limit(f, g, epsilon_family(KLASS, 64, (0.2, 0.1)), 2.0)
    assert (len(rep.table), rep.fit_residual, rep.converged) == (2, None, False)
    assert dp_limit(f, g, epsilon_family(KLASS, 64, (0.2, 0.1, 0.05)), 2.0).table[:2] == rep.table


def _random_triangle(rng) -> Body:
    """A triangle inside the unit square with an area of at least 0.05."""
    area = 0.0
    while abs(area) < 0.05:  # a sliver may hold no cell centre
        v = rng.random((3, 2))
        e1, e2 = v[1] - v[0], v[2] - v[0]
        area = 0.5 * (e1[0] * e2[1] - e1[1] * e2[0])
    return Body(v if area > 0 else v[::-1])


def _random_triangle_pair(seed):
    """A triangle inside the unit square, its 16-24 cell moment grid and two max-of-affine duals."""
    rng = np.random.default_rng(seed)
    body = _random_triangle(rng)
    grid = moment_grid(body, int(rng.integers(16, 25)))

    def dual():
        k = int(rng.integers(2, 6))
        vals = (grid.nodes() @ rng.uniform(-2.0, 3.0, (k, 2)).T + rng.uniform(-1.0, 1.0, k)).max(axis=1)
        return DualPotential(body, grid, vals.reshape(grid.shape))

    return grid, dual(), dual()


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), p=st.floats(1.0, 4.0),
       t=st.floats(0.0, 1.0), s=st.floats(0.0, 1.0))
def test_2d_metric_identities_on_random_triangles(seed, p, t, s):
    grid, u, v = _random_triangle_pair(seed)
    # the box holds every slope of the duals, so every argmax of the involution is inside it
    sp = SpatialGrid((-2.5, -2.5), (3.5, 3.5), (64, 64))
    h = max(max(sp.spacing), max(grid.spacing))
    corners = u.body.vertex_array
    diam = max(np.linalg.norm(a - b) for a in corners for b in corners)
    for w in (u, v):
        assert ma_atomic(w).total_mass == pytest.approx(grid.weights.sum(), rel=1e-12, abs=1e-12)
        back = to_dual(to_primal(w, sp), grid).values
        assert np.array_equal(np.isfinite(back), grid.mask)
        assert (back[~grid.mask] == np.inf).all()
        on_body = w.values[grid.mask]
        assert np.abs(back[grid.mask] - on_body).max() <= 2.0 * h * diam
        capped = truncate_dual(w, float(on_body.max()) + 1.0).values[grid.mask]
        assert np.abs(capped - on_body).max() <= 1e-12 * max(1.0, np.abs(on_body).max())
    d = dp_endpoint(u, v, p)
    assert d == pytest.approx(dp_dual_oracle(u, v, p), rel=1e-9)
    roof = rooftop(u, v)
    rhs = dp_endpoint(u, roof, p) ** p + dp_endpoint(v, roof, p) ** p
    assert abs(d**p - rhs) <= 1e-9 * max(1.0, d**p)
    curve = geodesic(u, v)
    speed = dp_endpoint(curve.potential_at(t), curve.potential_at(s), p)
    assert speed == pytest.approx(abs(t - s) * d, rel=1e-6, abs=1e-6)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), shape=st.sampled_from(["interval", "triangle", "square"]))
def test_one_transform_for_many_bodies_matches_one_per_body(seed, shape):
    """Every dual of one ``to_duals`` call, and every ``envelopes`` record, is bit for bit
    what a one-body call gives, on an opening class of grids of unequal sizes."""
    rng = np.random.default_rng(seed)
    ndim = 1 if shape == "interval" else 2
    klass = default_class_body(ndim)
    if shape == "interval":
        a = rng.uniform(-1.0, 1.0)
        base = Body([[a], [a + rng.uniform(0.5, 2.0)]])
    else:
        base = _random_triangle(rng) if shape == "triangle" else klass.p_body
    epsilons = np.sort(rng.uniform(0.0, 0.5, int(rng.integers(1, 4))))[::-1]
    bodies = [minkowski_sum(base, klass.q_body, e) for e in epsilons] + [base]
    grids = [moment_grid(b, tuple(int(c) for c in rng.integers(16, 25, ndim))) for b in bodies]
    sp = SpatialGrid((-2.5,) * ndim, (3.5,) * ndim, (257,) if ndim == 1 else (24, 20))
    x = sp.nodes()
    waves = rng.uniform(-4.0, 4.0, (2, ndim))
    ripple = 0.3 * np.cos(x @ waves.T + rng.uniform(0.0, 2 * np.pi, 2)).sum(axis=1)
    f = SampledFunction(sp, (0.5 * (x**2).sum(axis=1) + ripple).reshape(sp.shape), "ripple")
    bound = None if rng.random() < 0.5 else float(rng.uniform(0.5, 3.0))
    stack = grid_stack(grids)
    duals = to_duals(f, stack)
    records = envelopes(f, stack, bound)
    for body, grid, dual, rec in zip(bodies, grids, duals, records, strict=True):
        one = to_dual(f, grid)
        assert dual.body == body and dual.grid == grid
        # the +inf off the body's cells included
        assert np.array_equal(dual.values, one.values)
        alone = envelope(f, body, grid, hessian_bound=bound)
        assert np.array_equal(rec.dual.values, one.values)
        assert np.array_equal(rec.primal.values, alone.primal.values)
        assert np.array_equal(rec.contact_mask, alone.contact_mask)


def _ripple(sp, rng):
    """A random quadratic bowl, tilt and cosine ripple, sampled on ``sp``."""
    x = sp.nodes()
    waves = rng.uniform(-3.0, 3.0, (2, sp.ndim))
    ripple = 0.3 * np.cos(x @ waves.T + rng.uniform(0.0, 2 * np.pi, 2)).sum(axis=1)
    values = 0.5 * rng.uniform(0.5, 2.0) * (x**2).sum(axis=1) + x @ rng.uniform(-1.0, 1.0, sp.ndim)
    return SampledFunction(sp, (values + ripple).reshape(sp.shape), "ripple")


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), shape=st.sampled_from(["interval", "triangle"]),
       schedule=st.lists(st.floats(1e-3, 0.5), min_size=2, max_size=4, unique=True),
       cells=st.integers(16, 24), p=st.floats(1.0, 4.0))
def test_limit_matches_full_envelopes_on_random_families(seed, shape, schedule, cells, p):
    """The table and cross routes of ``dp_limit``, priced off the family's stacked layout, are
    bit for bit the endpoint formula on each grid's own envelope duals."""
    rng = np.random.default_rng(seed)
    if shape == "interval":
        a = rng.uniform(-1.0, 1.0)
        klass = ClassBody(Body([[a], [a + rng.uniform(0.25, 2.0)]]),
                          Body([[-rng.uniform(0.25, 2.0)], [rng.uniform(0.25, 2.0)]]))
        sp = SpatialGrid((-4.0,), (5.0,), (int(rng.integers(64, 257)),))
    else:
        klass = ClassBody(_random_triangle(rng), default_class_body(2).q_body)
        sp = SpatialGrid((-2.5, -2.5), (3.5, 3.5), (24, 20))
    family = epsilon_family(klass, cells, sorted(schedule, reverse=True))
    _assert_limit_matches_full_envelopes(_ripple(sp, rng), _ripple(sp, rng), family, ps=(p,))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_2d_mass_is_the_triangle_weight(seed):
    grid, u, _ = _random_triangle_pair(seed)
    assert ma_atomic(u).total_mass == pytest.approx(grid.weights.sum(), rel=1e-12, abs=1e-12)
