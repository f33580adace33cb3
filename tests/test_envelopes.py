import itertools
import math

import numpy as np
import pytest

from ppgeo import (
    Body,
    SampledFunction,
    SpatialGrid,
    default_class_body,
    dual_from_form,
    envelope,
    ma_atomic,
    ma_density,
    measure_identity_residual,
    minkowski_sum,
    moment_grid,
    rooftop,
)
from ppgeo.corpus import obstacle_from_form
from ppgeo.duality import (
    clamped_hull,
    conjugate_nd,
    conjugate_oracle,
    lower_facets,
    lower_hull,
    lower_hull_indices,
    to_duals,
)
from ppgeo.envelopes import (
    estimate_hessian_bound,
    iterative_envelope,
)
from ppgeo.grids import ConfigurationError, tensor_nodes

KLASS = default_class_body(1)
GRID = moment_grid(KLASS.p_body, 1024)
SPATIAL = SpatialGrid((-4.0,), (5.0,), (2048,))


def obstacle(name):
    return obstacle_from_form(name, SPATIAL)


def test_obstacles_are_primal_closed_forms_as_duals_are_dual_ones():
    for name in ("dual_quadratic", "dual_ramp", "dual_log_barrier"):
        with pytest.raises(ConfigurationError, match=f"'{name}' is not a primal closed form"):
            obstacle_from_form(name, SPATIAL)
    with pytest.raises(ConfigurationError, match="'quadratic' is not a dual closed form"):
        dual_from_form("quadratic", GRID)


def test_admissible_obstacle_is_its_own_envelope():
    f = obstacle("support_[0,1]")
    rec = envelope(f, KLASS.p_body, GRID)
    assert np.abs(rec.primal.values - f.values).max() <= 1e-9
    assert rec.contact_mask.all()


def test_envelope_of_quadratic_closed_form():
    f = obstacle("quadratic")
    rec = envelope(f, KLASS.p_body, GRID, hessian_bound=1.0)
    x = SPATIAL.axes()[0]
    exact = np.where(x < 0, 0.0, np.where(x < 1, 0.5 * x * x, x - 0.5))
    assert np.abs(rec.primal.values - exact).max() <= 1e-5


def test_contact_set_of_quadratic_over_perturbed_body():
    eps = 0.25
    body = minkowski_sum(KLASS.p_body, KLASS.q_body, eps)
    grid = moment_grid(body, 1024)
    f = obstacle("quadratic")
    rec = envelope(f, body, grid, hessian_bound=1.0)
    x = SPATIAL.axes()[0]
    h = max(SPATIAL.spacing)
    contact_x = x[rec.contact_mask]
    # contact where f' = x lands in [-0.25, 1.25], up to a cell
    assert abs(contact_x.min() - (-eps)) <= 2 * h
    assert abs(contact_x.max() - (1 + eps)) <= 2 * h


def test_envelope_monotone_in_body():
    f = obstacle("quadratic")
    small = envelope(f, KLASS.p_body, GRID, hessian_bound=1.0)
    big_body = minkowski_sum(KLASS.p_body, KLASS.q_body, 0.5)
    big = envelope(f, big_body, moment_grid(big_body, 1024), hessian_bound=1.0)
    # more admissible slopes lift the envelope
    assert (big.primal.values >= small.primal.values - 1e-9).all()


def test_envelope_below_obstacle():
    f = obstacle("quadratic_bump")
    rec = envelope(f, KLASS.p_body, GRID, hessian_bound=2.8)
    assert (rec.primal.values <= f.values + rec.contact_tol).all()


SQUARE = default_class_body(2).p_body
SLANTED = Body([(0.0, 0.0), (1.0, 0.0), (0.3, 1.0)])


def separable_ripple(spatial):
    """Per axis x^2/2 + 0.1 cos(7x + phase), summed over the two axes."""
    axes = spatial.axes()
    parts = [0.5 * a**2 + 0.1 * np.cos(7 * a + ph) for a, ph in zip(axes, (0.4, 1.9))]
    return parts, SampledFunction(spatial, parts[0][:, None] + parts[1][None, :], "ripple")


def test_iterative_envelope_cross_check():
    f = obstacle("quadratic")
    direct = envelope(f, KLASS.p_body, GRID, hessian_bound=1.0)
    iterated = iterative_envelope(f, direct.primal)
    assert np.abs(direct.primal.values - iterated.values).max() <= 1e-6
    # 2d: the exact envelope is a fixpoint of the exact hull
    _, f = separable_ripple(SpatialGrid((-4.0, -4.0), (5.0, 5.0), (64, 64)))
    direct = envelope(f, SQUARE, moment_grid(SQUARE, 32), hessian_bound=1.0)
    iterated = iterative_envelope(f, direct.primal)
    assert np.abs(direct.primal.values - iterated.values).max() <= 1e-12


def refined_primal(f, body, grid, refine):
    """The 2d envelope primal over a slope grid refined ``refine`` times, kept as the oracle."""
    verts = body.vertex_array
    lo, hi = body.bounding_box()
    axes = []
    for i in range(grid.ndim):
        fine = np.linspace(lo[i], hi[i], refine * grid.cells[i] + 1)
        axes.append(np.sort(np.unique(np.concatenate([fine, verts[:, i]]))))
    star = conjugate_nd(f.values, f.grid.axes(), axes)
    inside = body.contains(tensor_nodes(axes)).reshape(star.shape)
    star = np.where(inside, star, np.inf)
    return conjugate_nd(star, axes, f.grid.axes())


def test_2d_envelope_primal_dominates_a_refined_slope_grid():
    spatial = SpatialGrid((-4.0, -4.0), (5.0, 5.0), (32, 32))
    x = spatial.nodes().reshape(spatial.shape + (2,))
    ripple = 0.2 * np.cos(2.3 * x[..., 0] + 0.7) * np.cos(1.7 * x[..., 1] + 2.1)
    f = SampledFunction(spatial, 0.5 * (x**2).sum(-1) + ripple, "ripple")
    grid = moment_grid(SLANTED, 16)
    primal = envelope(f, SLANTED, grid).primal.values
    assert (primal >= refined_primal(f, SLANTED, grid, 64) - 1e-12).all()
    assert (primal <= f.values + 1e-12).all()


def test_2d_envelope_primal_of_a_separable_obstacle_is_separable():
    spatial = SpatialGrid((-4.0, -4.0), (5.0, 5.0), (64, 64))
    x1, x2 = spatial.axes()
    # the steep obstacle's lower-facet slopes all lie outside the square (first
    # coordinate near 10), so no facet plane enters and the body's edges give it all
    steep = (10 * x1 + 0.01 * x1**2 + 0.2 * np.cos(2.3 * x1), x2**2 / 2 + 0.2 * np.cos(1.7 * x2))
    for g1, g2 in (separable_ripple(spatial)[0], steep):
        f = SampledFunction(spatial, g1[:, None] + g2[None, :], "separable")
        primal = envelope(f, SQUARE, moment_grid(SQUARE, 32)).primal.values
        exact = (clamped_hull(x1, lower_hull(x1, g1), 0.0, 1.0)[:, None]
                 + clamped_hull(x2, lower_hull(x2, g2), 0.0, 1.0)[None, :])
        assert np.abs(primal - exact).max() <= 1e-12
    assert not SQUARE.contains(lower_facets(spatial.nodes(), f.values.ravel())[0]).any()


def brute_force_primal(f, body):
    """The 2d envelope primal as a max over candidate slopes, f* a max over all samples.

    Kept as the reference: the sup of the concave, piecewise affine
    q -> <q,x> - f*(q) over a polygon is attained at a corner, at a
    lower-facet slope inside it or at a kink of f* along an edge.
    """
    x, v = f.grid.nodes(), f.values.ravel()
    corners = body.vertex_array
    slopes = lower_facets(x, v)[0]
    q = [corners, slopes[body.contains(slopes)]]
    for a, b in zip(corners, np.roll(corners, -1, axis=0)):
        # t -> f*(a + t (b - a)) is the 1d conjugate of (<b - a, x_i>, f_i - <a, x_i>)
        s, w = x @ (b - a), v - x @ a
        order = np.lexsort((w, s))
        first = order[np.unique(s[order], return_index=True)[1]]
        t = lower_hull(s[first], w[first])[2]
        q.append(a + t[(t > 0) & (t < 1), None] * (b - a))
    q = np.concatenate(q)
    star = (q @ x.T - v).max(axis=1)
    return (x @ q.T - star).max(axis=1).reshape(f.grid.shape)


def test_2d_envelope_primal_on_a_polygon_is_exact():
    spatial = SpatialGrid((-4.0, -4.0), (5.0, 5.0), (64, 64))
    x = spatial.nodes().reshape(spatial.shape + (2,))
    ripple = 0.2 * np.cos(2.3 * x[..., 0] + 0.7) * np.cos(1.7 * x[..., 1] + 2.1)
    f = SampledFunction(spatial, 0.5 * (x**2).sum(-1) + ripple, "ripple")
    primal = envelope(f, SLANTED, moment_grid(SLANTED, 32)).primal.values
    scale = max(1.0, np.abs(f.values).max())
    assert np.abs(primal - brute_force_primal(f, SLANTED)).max() <= 1e-12 * scale


def test_rooftop_is_pointwise_dual_max():
    u = dual_from_form("dual_quadratic", GRID)
    v = dual_from_form("dual_vee", GRID)
    r = rooftop(u, v)
    assert np.array_equal(r.values, np.maximum(u.values, v.values))


def test_rooftop_commutes_with_envelope_of_min():
    u = dual_from_form("dual_quadratic", GRID)
    v = dual_from_form("dual_vee", GRID)
    r = rooftop(u, v)
    fmin = SampledFunction(
        SPATIAL,
        np.minimum(u.eval_primal(SPATIAL.nodes()), v.eval_primal(SPATIAL.nodes())),
        "min",
    )
    rec = envelope(fmin, KLASS.p_body, GRID)
    # slope quantization tilts the reconstruction by O(h_m * |x|)
    tol = 3 * max(GRID.spacing) * float(np.abs(SPATIAL.axes()[0]).max())
    assert np.abs(rec.primal.values - r.eval_primal(SPATIAL.nodes())).max() <= tol


def test_multi_rooftop_associative():
    forms = ["dual_zero", "dual_quadratic", "dual_vee"]
    us = [dual_from_form(f, GRID) for f in forms]
    a = rooftop(*us)
    b = rooftop(rooftop(us[0], us[1]), us[2])
    assert np.array_equal(a.values, b.values)


@pytest.mark.parametrize(
    "name,c", [("quadratic", 1.0), ("quadratic_bump", 2.8), ("soft_ramp", 1.0)]
)
def test_measure_identity(name, c):
    f = obstacle(name)
    rec = envelope(f, KLASS.p_body, GRID, hessian_bound=c)
    h = max(SPATIAL.spacing)
    assert measure_identity_residual(rec) <= 10 * h * c
    assert ma_density(rec.primal).density.max() <= c * 1.01


PRIMAL_FORMS = ["support_[0,1]", "shifted_support", "quadratic", "quadratic_bump", "soft_ramp"]


def body_at(eps):
    return minkowski_sum(KLASS.p_body, KLASS.q_body, eps) if eps else KLASS.p_body


@pytest.mark.parametrize("name", PRIMAL_FORMS)
@pytest.mark.parametrize("eps", [0.0, 0.0125, 0.2])
def test_1d_envelope_density_is_the_hull_atoms(name, eps):
    body = body_at(eps)
    f = obstacle(name)
    rec = envelope(f, body, moment_grid(body, 1024))
    rho = ma_density(rec.primal).density
    (a,), (b,) = body.bounding_box()
    x, h = SPATIAL.axes()[0], SPATIAL.spacing[0]
    # oracle: the vertex with incoming slope s_{i-1} and outgoing slope s_i
    # carries |[s_{i-1}, s_i] ∩ [a, b]|, spread over its cell
    nodes, _, slopes = lower_hull(x, f.values)
    edges = np.concatenate([[-np.inf], slopes, [np.inf]])
    atoms = np.zeros_like(x)
    atoms[np.searchsorted(x, nodes)] = np.clip(
        np.minimum(edges[1:], b) - np.maximum(edges[:-1], a), 0.0, None)
    assert np.abs(rho[1:-1] - atoms[1:-1] / h).max() <= 1e-9
    if atoms[0] == atoms[-1] == 0.0:
        assert abs(rho.sum() * h - (b - a)) <= 1e-9


@pytest.mark.parametrize("name", ["soft_ramp", "support_[0,1]", "shifted_support"])
@pytest.mark.parametrize("eps", [0.0, 0.2])
def test_measure_identity_is_exact_for_admissible_obstacles(name, eps):
    body = body_at(eps)
    rec = envelope(obstacle(name), body, moment_grid(body, 1024))
    assert measure_identity_residual(rec) <= 1e-12


def pushforward_density(rec):
    """Oracle: the body pushed forward through a 16x-refined f*, cloud-in-cell deposit."""
    fine = moment_grid(rec.dual.body, tuple(16 * c for c in rec.dual.grid.cells))
    atoms = ma_atomic(to_duals(rec.obstacle, fine.stack)[0])
    points, masses, grid = atoms.locations, atoms.masses, rec.obstacle.grid
    dens = np.zeros(grid.shape)
    pos = [(points[:, i] - grid.lo[i]) / grid.spacing[i] for i in range(grid.ndim)]
    i0 = [np.clip(np.floor(q).astype(int), 0, s - 2) for q, s in zip(pos, grid.shape)]
    fr = [np.clip(q - j, 0.0, 1.0) for q, j in zip(pos, i0)]
    for corner in itertools.product((0, 1), repeat=grid.ndim):
        w = math.prod(f if c else 1 - f for f, c in zip(fr, corner))
        np.add.at(dens, tuple(j + c for j, c in zip(i0, corner)), masses * w)
    return dens / float(np.prod(grid.spacing))


def test_2d_measure_identity_matches_the_refined_pushforward():
    square = default_class_body(2).p_body
    spatial = SpatialGrid((-2.0, -2.0), (3.0, 3.0), (64, 64))
    x = spatial.nodes().reshape(spatial.shape + (2,))
    waves = np.random.default_rng(20240).uniform([1.0, 1.0, 0.0], [4.0, 4.0, 2 * np.pi], (2, 3))
    ripple = sum(0.1 * np.cos(kx * x[..., 0] + ky * x[..., 1] + ph) for kx, ky, ph in waves)
    f = SampledFunction(spatial, 0.5 * (x**2).sum(-1) + ripple, "ripple")
    rec = envelope(f, square, moment_grid(square, 32))
    rho_f = ma_density(f).density
    cell = float(np.prod(spatial.spacing))
    old = float(np.sum(np.abs(pushforward_density(rec) - rec.contact_mask * rho_f)) * cell)
    assert abs(measure_identity_residual(rec) - old) <= 0.01 * old


def test_hessian_bound_estimate():
    f = obstacle("quadratic")
    assert estimate_hessian_bound(f) == pytest.approx(1.0, rel=1e-6)


def test_contact_never_empty():
    # the discrete envelope attains the obstacle at the conjugacy argmax
    # nodes, so contact survives even a kink placed between nodes and a
    # zero curvature allowance
    x = SPATIAL.axes()[0]
    off = x[100] + 0.4 * (x[101] - x[100])
    f = SampledFunction(SPATIAL, 10.0 * np.abs(x - off) + 3.0, "steep")
    rec = envelope(f, KLASS.p_body, GRID, hessian_bound=0.0)
    assert rec.contact_mask.any()
    assert (rec.primal.values <= f.values + 1e-9).all()


SMALL_SPATIAL = SpatialGrid((-4.0,), (5.0,), (256,))


@pytest.mark.parametrize("name", ["quadratic", "quadratic_bump", "soft_ramp", "support_[0,1]"])
@pytest.mark.parametrize("eps", [0.0, 0.3])
def test_1d_envelope_primal_is_the_exact_double_conjugate(name, eps):
    body = minkowski_sum(KLASS.p_body, KLASS.q_body, eps) if eps else KLASS.p_body
    grid = moment_grid(body, 128)
    x = SMALL_SPATIAL.axes()[0]
    f = obstacle_from_form(name, SMALL_SPATIAL)
    primal = envelope(f, body, grid).primal.values
    (a,), (b,) = body.bounding_box()

    def double_conjugate(q):
        return conjugate_oracle(q, conjugate_oracle(x, f.values, q), x)

    # q x - f*(q) is concave and piecewise affine in q with kinks at the
    # hull slopes, so these slopes attain the sup over [a, b]
    hull = lower_hull_indices(x, f.values)
    slopes = np.diff(f.values[hull]) / np.diff(x[hull])
    q = np.unique(np.concatenate([[a, b], slopes[(slopes >= a) & (slopes <= b)]]))
    assert np.abs(primal - double_conjugate(q)).max() <= 1e-12
    # the refined slope grid the 1d envelope used to sample can only miss the sup
    fine = np.linspace(a, b, 16 * grid.cells[0] + 1)
    assert (primal >= double_conjugate(fine) - 1e-12).all()


def _envelope_duals(f, body, grid):
    return to_duals(f, grid.stack)


@pytest.mark.parametrize("build", [envelope, _envelope_duals], ids=["envelope", "to_duals"])
def test_obstacle_and_grid_must_share_a_dimension(build):
    body = default_class_body(2).p_body
    with pytest.raises(ConfigurationError):
        build(obstacle("quadratic"), body, moment_grid(body, 16))
