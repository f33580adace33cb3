import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ppgeo.envelopes
import ppgeo.metric
from ppgeo import (
    Body,
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
    envelope,
    epsilon_family,
    geodesic,
    ma_atomic,
    moment_grid,
    pair_from_catalog,
    rooftop,
    to_primal,
    truncate_dual,
)
from ppgeo.corpus import random_dual_pairs, sample_closed_form
from ppgeo.measures import RequiresTruncationError
from ppgeo.metric import CSV_HEADER

KLASS = default_class_body(1)
GRID = moment_grid(KLASS.p_body, 1024)
SPATIAL = SpatialGrid((-4.0,), (5.0,), (2048,))
FAMILY = epsilon_family(KLASS, 1024)


def test_ramp_pair_hand_values():
    u, v = pair_from_catalog("ramp_pair", KLASS.p_body, GRID)
    assert dp_endpoint(u, v, 1.0) == pytest.approx(0.5, abs=1e-12)
    assert dp_endpoint(u, v, 2.0) == pytest.approx(3 ** -0.5, rel=1e-5)


def test_crossing_pair_hand_values():
    u, v = pair_from_catalog("crossing_pair", KLASS.p_body, GRID)
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


def test_d1_energy_route():
    u, v = pair_from_catalog("ramp_pair", KLASS.p_body, GRID)
    assert d1_energy(u, v, SPATIAL) == pytest.approx(0.5, rel=1e-2)
    for u, v in random_dual_pairs(17, 5, KLASS.p_body, GRID):
        assert d1_energy(u, v, SPATIAL) == pytest.approx(
            dp_endpoint(u, v, 1.0), rel=1e-2
        )


def test_limit_route_matches_endpoint():
    f = SampledFunction(SPATIAL, sample_closed_form("quadratic", SPATIAL), "quadratic")
    g = SampledFunction(SPATIAL, sample_closed_form("soft_ramp", SPATIAL), "soft_ramp")
    rep = dp_limit(f, g, FAMILY, 2.0)
    assert rep.route == "epsilon_limit"
    assert len(rep.table) == 7
    dev = rep.cross_route["deviation_endpoint"]
    assert dev <= max(0.02 * rep.value, 5 * max(SPATIAL.spacing))


def test_limit_route_ramp_pair_value():
    # primal obstacles of the ramp pair: 0-dual and p-dual potentials
    u, v = pair_from_catalog("ramp_pair", KLASS.p_body, GRID)
    fu = SampledFunction(SPATIAL, to_primal(u, SPATIAL).values, "u")
    fv = SampledFunction(SPATIAL, to_primal(v, SPATIAL).values, "v")
    rep = dp_limit(fu, fv, FAMILY, 1.0)
    assert rep.value == pytest.approx(0.5, rel=0.02)


def test_singular_limits():
    u = dual_from_form("dual_zero", KLASS.p_body, GRID)
    v = dual_from_form("dual_log_barrier", KLASS.p_body, GRID)
    r1 = dp_singular(u, v, 1.0)
    r2 = dp_singular(u, v, 2.0)
    assert r1.value == pytest.approx(1.0, rel=0.02)
    assert r2.value == pytest.approx(math.sqrt(2.0), rel=0.02)
    assert r1.converged and r2.converged
    # increments dominated by the I_p Cauchy bounds
    for inc, bound in zip(r1.cross_route["increments"], r1.cross_route["cauchy_bounds"]):
        assert inc <= bound + 1e-12


def test_endpoint_on_a_singular_dual_requires_truncation():
    u, v = pair_from_catalog("log_barrier_singular", KLASS.p_body, GRID)
    # the log barrier is +inf at p = 1; put that node on the last cell
    vals = v.values.copy()
    vals[-1] = np.inf
    v = DualPotential(KLASS.p_body, GRID, vals, "singular")
    with pytest.raises(RequiresTruncationError):
        dp_endpoint(u, v, 2.0)
    assert math.isfinite(dp_singular(u, v, 2.0).value)


def test_truncation_is_monotone():
    v = dual_from_form("dual_log_barrier", KLASS.p_body, GRID)
    t4 = truncate_dual(v, 4.0)
    t8 = truncate_dual(v, 8.0)
    finite = np.isfinite(v.values)
    assert (t4.values <= t8.values + 1e-12).all()
    assert (t8.values[finite] <= v.values[finite] + 1e-12).all()


def test_report_serialization():
    f = SampledFunction(SPATIAL, sample_closed_form("quadratic", SPATIAL), "quadratic")
    g = SampledFunction(SPATIAL, sample_closed_form("soft_ramp", SPATIAL), "soft_ramp")
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


def test_limit_builds_envelope_duals_only(monkeypatch):
    calls = {"envelope_dual": 0, "envelope": 0}

    def counting(name):
        real = getattr(ppgeo.envelopes, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(ppgeo.metric, name, counting(name), raising=False)
        monkeypatch.setattr(ppgeo.envelopes, name, counting(name))
    sp = SpatialGrid((-4.0,), (5.0,), (256,))
    family = epsilon_family(KLASS, 128)
    f = SampledFunction(sp, sample_closed_form("quadratic", sp), "quadratic")
    g = SampledFunction(sp, sample_closed_form("soft_ramp", sp), "soft_ramp")
    dp_limit(f, g, family, 2.0)
    # two per perturbed body, two for the base body
    assert len(family.bodies) == 7
    assert calls == {"envelope_dual": 16, "envelope": 0}


def _assert_limit_matches_full_envelopes(f0, f1, family, p):
    """dp_limit against its table and cross routes built from full envelope records."""
    rep = dp_limit(f0, f1, family, p)
    table = []
    for eps, body, grid, vol in zip(
        family.schedule, family.bodies, family.grids, family.volumes
    ):
        e0, e1 = envelope(f0, body, grid), envelope(f1, body, grid)
        table.append((eps, vol, dp_endpoint(e0.dual, e1.dual, p)))
    assert rep.table == table
    base_grid = moment_grid(family.base.p_body, family.cells)
    e0 = envelope(f0, family.base.p_body, base_grid)
    e1 = envelope(f1, family.base.p_body, base_grid)
    d_end, d_oracle = dp_endpoint(e0.dual, e1.dual, p), dp_dual_oracle(e0.dual, e1.dual, p)
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
    _assert_limit_matches_full_envelopes(fu, fv, FAMILY, 2.0)


def test_limit_matches_full_envelopes_2d():
    klass = default_class_body(2)
    sp = SpatialGrid((-2.0, -2.0), (3.0, 3.0), (32, 32))
    x, y = np.meshgrid(*sp.axes(), indexing="ij")
    f0 = SampledFunction(sp, 0.5 * (x**2 + y**2), "round")
    f1 = SampledFunction(sp, 0.5 * ((x - 0.3) ** 2 + 2 * y**2), "shifted")
    _assert_limit_matches_full_envelopes(f0, f1, epsilon_family(klass, 16), 2.0)


def _random_triangle_pair(seed):
    """A triangle inside the unit square, its 16-24 cell moment grid and two max-of-affine duals."""
    rng = np.random.default_rng(seed)
    area = 0.0
    while abs(area) < 0.05:  # a sliver may hold no cell centre
        v = rng.random((3, 2))
        e1, e2 = v[1] - v[0], v[2] - v[0]
        area = 0.5 * (e1[0] * e2[1] - e1[1] * e2[0])
    body = Body(v if area > 0 else v[::-1])
    grid = moment_grid(body, int(rng.integers(16, 25)))

    def dual():
        k = int(rng.integers(2, 6))
        vals = (grid.nodes() @ rng.uniform(-2.0, 3.0, (k, 2)).T + rng.uniform(-1.0, 1.0, k)).max(axis=1)
        return DualPotential(body, grid, np.where(grid.mask, vals.reshape(grid.shape), np.inf))

    return grid, dual(), dual()


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), p=st.floats(1.0, 4.0),
       t=st.floats(0.0, 1.0), s=st.floats(0.0, 1.0))
def test_2d_metric_identities_on_random_triangles(seed, p, t, s):
    _, u, v = _random_triangle_pair(seed)
    d = dp_endpoint(u, v, p)
    assert d == pytest.approx(dp_dual_oracle(u, v, p), rel=1e-9)
    roof = rooftop(u, v)
    rhs = dp_endpoint(u, roof, p) ** p + dp_endpoint(v, roof, p) ** p
    assert abs(d**p - rhs) <= 1e-9 * max(1.0, d**p)
    curve = geodesic(u, v)
    speed = dp_endpoint(curve.potential_at(t), curve.potential_at(s), p)
    assert speed == pytest.approx(abs(t - s) * d, rel=1e-6, abs=1e-6)


@pytest.mark.xfail(strict=True, reason="ma_atomic drops the weight of a cell with no "
                                       "finite neighbour along an axis (nan gradient)")
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_2d_mass_is_the_triangle_weight(seed):
    grid, u, _ = _random_triangle_pair(seed)
    assert ma_atomic(u).total_mass == pytest.approx(grid.weights.sum(), rel=1e-12, abs=1e-12)
