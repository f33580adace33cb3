import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppgeo import (
    Body,
    DualPotential,
    SampledFunction,
    SpatialGrid,
    conjugate_1d,
    conjugate_nd,
    convexify,
    default_class_body,
    dual_from_form,
    moment_grid,
    to_dual,
    to_primal,
    truncate_dual,
)
from ppgeo.corpus import random_dual
from ppgeo.duality import (
    clamped_hull,
    conjugate_oracle,
    convexify_moment_values,
    gradient,
    lower_hull_indices,
    second_difference_slack,
    second_differences,
)
from ppgeo.geodesics import T_SAMPLES, geodesic

BODY = default_class_body(1).p_body
GRID = moment_grid(BODY, 256)
SPATIAL = SpatialGrid((-4.0,), (5.0,), (512,))


def _convex_values(x, slopes, anchor=0.0):
    """max of affine pieces through a common envelope; always convex."""
    return np.max(slopes[None, :] * (x[:, None]) - anchor * slopes[None, :] ** 2, axis=1)


def test_conjugate_of_quadratic_is_quadratic():
    x = np.linspace(-6, 6, 1201)
    q = np.linspace(-3, 3, 601)
    star = conjugate_1d(x, 0.5 * x**2, q)
    assert np.allclose(star, 0.5 * q**2, atol=1e-4)


def test_conjugate_brute_oracle_agrees():
    x = np.linspace(-2, 3, 301)
    rng = np.random.default_rng(0)
    v = np.abs(x - 0.3) + 0.2 * x**2 + rng.uniform(0, 1)
    q = np.linspace(-1, 2, 97)
    fast = conjugate_1d(x, v, q)
    assert np.allclose(fast, conjugate_oracle(x, v, q), atol=1e-12)


def test_lower_hull_of_convex_data_keeps_everything():
    x = np.linspace(0, 1, 50)
    idx = lower_hull_indices(x, (x - 0.4) ** 2)
    assert len(idx) == 50


def test_infinite_nodes_drop_out():
    x = np.linspace(0, 1, 33)
    v = x.copy()
    v[-1] = np.inf
    star = conjugate_1d(x, v, np.array([0.5]))
    finite = conjugate_1d(x[:-1], v[:-1], np.array([0.5]))
    assert star[0] == finite[0]


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_double_conjugate_is_identity_on_convex(seed):
    u = random_dual(np.random.default_rng(seed), BODY, GRID)
    back = to_dual(to_primal(u, SPATIAL), GRID)
    h = max(max(SPATIAL.spacing), max(GRID.spacing))
    assert np.abs(back.values - u.values).max() <= 2 * h * 1.0


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_order_reversal(seed):
    rng = np.random.default_rng(seed)
    u = random_dual(rng, BODY, GRID)
    # v = u + nonnegative offset, so primal(v) <= primal(u) and v* >= u*
    v = DualPotential(BODY, GRID, u.values + rng.uniform(0.0, 1.0), "shifted")
    pu = to_primal(u, SPATIAL).values
    pv = to_primal(v, SPATIAL).values
    assert (pv <= pu + 1e-12).all()


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_min_max_exchange(seed):
    rng = np.random.default_rng(seed)
    u, v = random_dual(rng, BODY, GRID), random_dual(rng, BODY, GRID)
    # conjugate of the pointwise max of duals = min of primals, convexified
    roof = DualPotential(BODY, GRID, np.maximum(u.values, v.values), "roof")
    proof = to_primal(roof, SPATIAL).values
    pmin = np.minimum(to_primal(u, SPATIAL).values, to_primal(v, SPATIAL).values)
    assert (proof <= pmin + 1e-9).all()
    hull = convexify(SampledFunction(SPATIAL, pmin), body=BODY).values
    # slope quantization tilts the reconstruction by O(h_m * |x|)
    tol = 3 * max(GRID.spacing) * float(np.abs(SPATIAL.axes()[0]).max())
    assert np.abs(proof - hull).max() <= tol


def test_conjugate_nd_separable_quadratic():
    axes = [np.linspace(-3, 3, 301), np.linspace(-3, 3, 301)]
    X, Y = np.meshgrid(*axes, indexing="ij")
    vals = 0.5 * (X**2 + Y**2)
    q = [np.linspace(-1, 1, 41), np.linspace(-1, 1, 41)]
    star = conjugate_nd(vals, axes, q)
    QX, QY = np.meshgrid(*q, indexing="ij")
    assert np.allclose(star, 0.5 * (QX**2 + QY**2), atol=1e-3)


def test_2d_double_conjugate_of_affine():
    body = default_class_body(2).p_body
    grid = moment_grid(body, 32)
    ax = grid.axes()
    P1, P2 = np.meshgrid(ax[0], ax[1], indexing="ij")
    u = DualPotential(body, grid, 0.7 * P1 - 0.3 * P2, "affine")
    sp = SpatialGrid((-3.0, -3.0), (3.0, 3.0), (96, 96))
    back = to_dual(to_primal(u, sp), grid)
    h = max(max(sp.spacing), max(grid.spacing))
    assert np.abs(back.values - u.values)[grid.mask].max() <= 2 * h * 2**0.5


def test_eval_primal_matches_to_primal():
    u = random_dual(np.random.default_rng(11), BODY, GRID)
    pts = SPATIAL.nodes()
    direct = u.eval_primal(pts)
    via_grid = to_primal(u, SPATIAL).values
    assert np.allclose(direct, via_grid, atol=1e-12)


def test_convexify_moment_values_idempotent_on_convex():
    u = random_dual(np.random.default_rng(3), BODY, GRID)
    out = convexify_moment_values(GRID, u.values)
    assert np.allclose(out, u.values, atol=1e-10)


def test_dual_potential_convexity_guard():
    vals = GRID.axes()[0] ** 2
    vals[40] += 1.0  # a spike breaks convexity
    u = DualPotential(BODY, GRID, vals, "broken")
    assert u.convexity_slack() < 0


def _explicit_second_differences(v):
    """The slice formulas the shared stencil replaced, kept as the reference."""
    if v.ndim == 1:
        return [v[2:] - 2 * v[1:-1] + v[:-2]]
    if v.ndim == 2:
        return [
            v[2:, :] - 2 * v[1:-1, :] + v[:-2, :],
            v[:, 2:] - 2 * v[:, 1:-1] + v[:, :-2],
            v[2:, 2:] - 2 * v[1:-1, 1:-1] + v[:-2, :-2],
            v[2:, :-2] - 2 * v[1:-1, 1:-1] + v[:-2, 2:],
        ]
    c = v[1:-1, 1:-1, 1:-1]
    return [
        v[2:, :, :] - 2 * v[1:-1, :, :] + v[:-2, :, :],
        v[:, 2:, :] - 2 * v[:, 1:-1, :] + v[:, :-2, :],
        v[:, :, 2:] - 2 * v[:, :, 1:-1] + v[:, :, :-2],
        v[2:, 2:, 2:] - 2 * c + v[:-2, :-2, :-2],
        v[2:, 2:, :-2] - 2 * c + v[:-2, :-2, 2:],
        v[2:, :-2, 2:] - 2 * c + v[:-2, 2:, :-2],
        v[:-2, 2:, 2:] - 2 * c + v[2:, :-2, :-2],
    ]


@pytest.mark.parametrize("shape", [(40,), (17, 23), (9, 11, 6)])
def test_second_differences_match_explicit_stencils(shape):
    v = np.random.default_rng(sum(shape)).normal(size=shape) * 1e3
    got = list(second_differences(v))
    want = _explicit_second_differences(v)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.array_equal(g, w)


def _slack_by_loops(v):
    """The most negative second difference over stencils of three finite nodes, in loops."""
    v = np.atleast_2d(v)
    worst = 0.0
    for i, j in np.ndindex(v.shape):
        for di, dj in ((1, 0), (0, 1), (1, 1), (1, -1)):
            a, b = (i - di, j - dj), (i + di, j + dj)
            if 0 <= min(a + b) and max(a[0], b[0]) < v.shape[0] and max(a[1], b[1]) < v.shape[1]:
                trio = v[a], v[i, j], v[b]
                if np.isfinite(trio).all():
                    worst = min(worst, trio[0] - 2 * trio[1] + trio[2])
    return worst


_HOLES = np.random.default_rng(20).normal(size=(20, 20))
_HOLES[np.random.default_rng(21).random((20, 20)) < 0.2] = np.inf


@pytest.mark.parametrize("values", [
    np.array([0.0, 1.0, np.inf, np.inf]),
    np.array([0.0, 1.0, 0.5, np.inf, 3.0]),
    _HOLES,
], ids=["inf_tail", "inf_inside", "2d_holes"])
def test_second_difference_slack_skips_infinite_nodes_without_warnings(values):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        slack = second_difference_slack(values)
    assert slack == _slack_by_loops(values)


def _numpy_scalar_chain(x, v):
    """The monotone chain as it ran on numpy scalars, kept as the reference."""
    stack = []
    for i in range(len(x)):
        while len(stack) >= 2:
            j, k = stack[-2], stack[-1]
            if (v[k] - v[j]) * (x[i] - x[k]) <= (v[i] - v[k]) * (x[k] - x[j]):
                break
            stack.pop()
        stack.append(i)
    return np.asarray(stack, dtype=int)


# small integer values give ties and collinear runs; the floats give
# arbitrary non-convex data
_HULL_POINTS = st.lists(
    st.tuples(
        st.sampled_from([0.1, 0.25, 1 / 3, 1.0]),
        st.one_of(st.integers(-4, 4).map(float), st.floats(-1e3, 1e3)),
    ),
    min_size=1,
    max_size=60,
)


@settings(max_examples=300, deadline=None)
@given(_HULL_POINTS)
def test_lower_hull_indices_match_numpy_scalar_chain(points):
    steps, v = zip(*points)
    x, v = np.cumsum(steps), np.array(v)
    assert np.array_equal(lower_hull_indices(x, v), _numpy_scalar_chain(x, v))


def test_lower_hull_indices_match_numpy_scalar_chain_on_a_ripple():
    x = SPATIAL.axes()[0]
    for v in (0.5 * x**2 + 0.2 * np.cos(3 * x), np.abs(x - 0.5), np.zeros_like(x)):
        assert np.array_equal(lower_hull_indices(x, v), _numpy_scalar_chain(x, v))


def _blocked_eval_primal(u, pts):
    """The O(N*M) blocked product the separable path replaced, kept as the reference."""
    nodes, vals = u.grid.nodes(), u.values.ravel()
    finite = np.isfinite(vals)
    nodes, vals = nodes[finite], vals[finite]
    out = np.empty(pts.shape[0])
    step = max(1, 2**22 // nodes.shape[0])
    for s in range(0, pts.shape[0], step):
        out[s : s + step] = (pts[s : s + step] @ nodes.T - vals[None, :]).max(axis=1)
    return out


SQUARE = default_class_body(2).p_body
TRIANGLE = Body([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])


def _max_of_quadratic_and_affine(body, rng):
    """A convex 2d dual on a 64^2 moment grid, +inf off the body's cells."""
    grid = moment_grid(body, 64)
    p1, p2 = np.meshgrid(*grid.axes(), indexing="ij")
    a, b, c = rng.normal(size=3)
    vals = np.maximum(0.5 * (p1**2 + 2 * p2**2), a * p1 + b * p2 + c)
    return DualPotential(body, grid, np.where(grid.mask, vals, np.inf), "2d")


@pytest.mark.parametrize(
    "form", ["random", "dual_vee", "dual_log_barrier", "infinite_tail", "square", "triangle"]
)
def test_eval_primal_1d_matches_blocked_products(form):
    rng = np.random.default_rng(5)
    if form in ("random", "infinite_tail"):
        u = random_dual(rng, BODY, GRID)
    elif form in ("square", "triangle"):
        u = _max_of_quadratic_and_affine(SQUARE if form == "square" else TRIANGLE, rng)
    else:
        u = dual_from_form(form, BODY, GRID)
    if form == "infinite_tail":
        vals = u.values.copy()
        vals[-40:] = np.inf
        u = DualPotential(BODY, GRID, vals, "singular")
    # unsorted, and reaching well outside the spatial box [-4, 5] (per axis)
    pts = rng.uniform(-12.0, 14.0, size=(777, u.grid.ndim))
    assert np.abs(u.eval_primal(pts) - _blocked_eval_primal(u, pts)).max() <= 1e-12


@pytest.mark.parametrize("body", [SQUARE, TRIANGLE], ids=["square", "triangle"])
def test_2d_convexification_keeps_a_convex_dual(body):
    grid = moment_grid(body, 32)
    p1, p2 = np.meshgrid(*grid.axes(), indexing="ij")
    vals = np.where(grid.mask, 5 * (p1 - 0.2) ** 2 + 3 * p2, np.inf)
    u = DualPotential(body, grid, vals, "convex")
    hull = convexify_moment_values(grid, vals)
    on = grid.mask
    assert np.abs(hull[on] - vals[on]).max() <= 1e-12
    assert np.isposinf(hull[~on]).all()
    capped = truncate_dual(u, cap=1e9)
    assert np.abs(capped.values[on] - vals[on]).max() <= 1e-12
    assert np.isposinf(capped.values[~on]).all()


def test_2d_convexification_of_a_separable_input_is_the_sum_of_1d_hulls():
    grid = moment_grid(SQUARE, 32)
    p1, p2 = grid.axes()
    wavy = lambda p: np.cos(7 * p) + 2 * p**2  # noqa: E731
    hull = convexify_moment_values(grid, wavy(p1)[:, None] + wavy(p2)[None, :])
    exact = clamped_hull(p1, wavy(p1))[:, None] + clamped_hull(p2, wavy(p2))[None, :]
    assert np.abs(hull - exact).max() <= 1e-12


@pytest.mark.parametrize("body", [SQUARE, TRIANGLE], ids=["square", "triangle"])
def test_2d_convexification_keeps_an_affine_input(body):
    # every sample lies on one plane, so the hull is flat but for the apex
    grid = moment_grid(body, 32)
    p1, p2 = np.meshgrid(*grid.axes(), indexing="ij")
    vals = np.where(grid.mask, 0.3 + 2 * p1 - 1.5 * p2, np.inf)
    hull = convexify_moment_values(grid, vals)
    assert np.abs(hull[grid.mask] - vals[grid.mask]).max() <= 1e-12
    assert np.isposinf(hull[~grid.mask]).all()


def test_2d_convexification_on_a_needle_is_the_1d_hull_along_it():
    # at 8 cells only the diagonal cell centres lie in this needle
    needle = Body([(0.0, 0.0), (1.0, 0.97), (0.97, 1.0)])
    grid = moment_grid(needle, 8)
    assert np.array_equal(grid.mask, np.eye(8, dtype=bool))
    p = grid.axes()[0]
    vals = np.where(grid.mask, np.cos(9 * p)[:, None], np.inf)
    hull = convexify_moment_values(grid, vals)
    assert np.abs(np.diag(hull) - clamped_hull(p, np.cos(9 * p))).max() <= 1e-12
    assert np.isposinf(hull[~grid.mask]).all()


def _slope_box_hull(grid, values):
    """The slope-box double conjugate the exact 2d hull replaced, kept as the oracle."""
    axes = grid.axes()
    # nan marks +inf, so differences that touch it drop out without a warning
    marked = np.where(np.isfinite(values), values, np.nan)
    slopes = []
    for i, (h, c) in enumerate(zip(grid.spacing, grid.cells)):
        d = np.abs(np.diff(marked, axis=i))
        g = d[~np.isnan(d)].max(initial=0.0) / h
        slopes.append(np.linspace(-g - 1.0, g + 1.0, 2 * c + 1))
    star = conjugate_nd(values, axes, slopes)
    hull = np.minimum(conjugate_nd(star, slopes, axes), values)
    return np.where(np.isposinf(values), np.inf, hull)


@pytest.mark.parametrize("body", [SQUARE, TRIANGLE], ids=["square", "triangle"])
@pytest.mark.parametrize("cap", [2.0, 8.0])
def test_2d_truncation_is_the_exact_hull_of_the_capped_barrier(body, cap):
    grid = moment_grid(body, 32)
    on = grid.mask
    p1, p2 = np.meshgrid(*grid.axes(), indexing="ij")
    barrier = np.where(on, -np.log(1 - p1) + p2**2 / 2, np.inf)
    capped = np.where(on, np.minimum(barrier, cap), np.inf)
    out = truncate_dual(DualPotential(body, grid, barrier, "barrier"), cap).values
    box = _slope_box_hull(grid, capped)
    # any double conjugate over fewer slopes lies below the hull; the box by 1e-2 or more
    assert (out[on] >= box[on] - 1e-12).all()
    assert (out[on] - box[on]).max() > 1e-3
    assert (out[on] <= capped[on]).all()
    assert second_difference_slack(out) >= -1e-12
    assert np.isposinf(out[~on]).all()


def test_2d_to_primal_skips_grid_lines_outside_the_body():
    # at 64 cells no cell centre of the top row (p2 near 1) lies in this triangle
    body = Body([(0.0, 0.0), (1.0, 0.3), (0.2, 1.0)])
    grid = moment_grid(body, 64)
    assert not grid.mask[:, -1].any()
    p1, p2 = np.meshgrid(*grid.axes(), indexing="ij")
    u = DualPotential(body, grid, np.where(grid.mask, p1**2 + p2**2 - p1 * p2, np.inf), "skew")
    sp = SpatialGrid((-2.0, -2.0), (3.0, 3.0), (32, 32))
    assert np.abs(to_primal(u, sp).values.ravel() - u.eval_primal(sp.nodes())).max() <= 1e-12


def _dual_gradient(u: DualPotential) -> np.ndarray:
    """The roll-and-mask dual gradient ``gradient`` replaced, kept as the reference."""
    v = u.values
    out = np.full(v.shape + (u.grid.ndim,), np.nan)
    for axis in range(u.grid.ndim):
        h = u.grid.spacing[axis]
        vm = np.moveaxis(v, axis, 0)
        fin = np.isfinite(vm)
        has_prev = np.zeros_like(fin)
        has_prev[1:] = fin[:-1]
        has_next = np.zeros_like(fin)
        has_next[:-1] = fin[1:]
        vprev = np.roll(vm, 1, axis=0)
        vnext = np.roll(vm, -1, axis=0)
        g = np.full(vm.shape, np.nan)
        with np.errstate(invalid="ignore"):
            central = fin & has_prev & has_next
            g[central] = ((vnext - vprev) / (2 * h))[central]
            fwd = fin & has_next & ~central
            g[fwd] = ((vnext - vm) / h)[fwd]
            bwd = fin & has_prev & ~central
            g[bwd] = ((vm - vprev) / h)[bwd]
        out[..., axis] = np.moveaxis(g, 0, axis)
    return out


def _spacetime_central_slices(samples, grid, dt):
    """The space-time central differences ``gradient`` replaced, kept as the reference."""
    v = samples
    grads = []
    for axis in range(v.ndim):
        step = grid.spacing[axis] if axis < grid.ndim else dt
        sl2 = [slice(1, -1)] * v.ndim
        sl0 = [slice(1, -1)] * v.ndim
        sl2[axis], sl0[axis] = slice(2, None), slice(None, -2)
        grads.append(((v[tuple(sl2)] - v[tuple(sl0)]) / (2 * step)).ravel())
    return np.stack(grads, axis=1)


def _holed_dual(body, grid, rng):
    """Signed zeros, small integers, normals, nan and scattered +inf holes on the body."""
    vals = np.where(rng.random(grid.shape) < 0.5, rng.normal(size=grid.shape),
                    rng.choice([-1.0, -0.0, 0.0, 1.0], grid.shape))
    vals[rng.random(grid.shape) < 0.1] = np.nan
    vals[rng.random(grid.shape) < 0.2] = np.inf
    return DualPotential(body, grid, np.where(grid.mask, vals, np.inf), "holed")


@pytest.mark.parametrize("body", [BODY, SQUARE, TRIANGLE], ids=["1d", "square", "triangle"])
def test_gradient_matches_the_roll_and_mask_dual_gradient(body):
    rng = np.random.default_rng(11)
    seen = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for cells in (8, 16, 33, 64):
            u = _holed_dual(body, moment_grid(body, cells), rng)
            got, want = gradient(u.values, u.grid.spacing), _dual_gradient(u)
            assert np.array_equal(got, want, equal_nan=True)
            assert np.array_equal(np.signbit(got), np.signbit(want))
            seen.append(got.ravel())
    seen = np.concatenate(seen)
    # the inputs reach the signed-zero and nan cases
    assert np.signbit(seen[seen == 0]).any() and np.isnan(seen).any()


@pytest.mark.parametrize("body", [BODY, SQUARE], ids=["1d", "square"])
def test_gradient_interior_matches_spacetime_central_slices(body):
    rng = np.random.default_rng(12)
    if body.ndim == 1:
        u0, u1 = random_dual(rng, BODY, GRID), random_dual(rng, BODY, GRID)
        grid = SPATIAL
    else:
        u0, u1 = (_max_of_quadratic_and_affine(SQUARE, rng) for _ in range(2))
        grid = SpatialGrid((-4.0, -4.0), (5.0, 5.0), (24, 24))
    curve = geodesic(u0, u1)
    samples = np.stack([curve.primal_at(t, grid) for t in T_SAMPLES], axis=-1)
    dt = T_SAMPLES[1] - T_SAMPLES[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        inner = (slice(1, -1),) * samples.ndim
        got = gradient(samples, grid.spacing + (dt,))[inner].reshape(-1, samples.ndim)
        assert np.array_equal(got, _spacetime_central_slices(samples, grid, dt))
