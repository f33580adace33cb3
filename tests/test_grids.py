import dataclasses

import numpy as np
import pytest

from ppgeo import (
    Body,
    ClassBody,
    ConfigurationError,
    MomentGrid,
    SampledFunction,
    SpatialGrid,
    conjugate_nd,
    default_class_body,
    epsilon_family,
    moment_grid,
)
from ppgeo.duality import _dual_values


def test_spatial_grid_axes_include_endpoints():
    g = SpatialGrid((-1.0,), (2.0,), (12,))
    ax = g.axes()[0]
    assert ax[0] == -1.0 and ax[-1] == 2.0
    assert len(ax) == 13
    assert g.spacing == (0.25,)


@pytest.mark.parametrize("dims", [1, 2])
def test_grids_store_their_axes(dims):
    lo, hi, cells = (-1.0, 0.25)[:dims], (2.0, 1.5)[:dims], (12, 9)[:dims]
    body = Body([[lo[0]], [hi[0]]] if dims == 1 else [lo, (hi[0], lo[1]), hi, (lo[0], hi[1])])
    spatial, moment = SpatialGrid(lo, hi, cells), moment_grid(body, cells)
    fresh = [
        (spatial, [np.linspace(l, h, c + 1) for l, h, c in zip(lo, hi, cells)]),
        (moment, [l + (np.arange(c) + 0.5) * ((h - l) / c) for l, h, c in zip(lo, hi, cells)]),
    ]
    for grid, expected in fresh:
        axes = grid.axes()
        assert all(np.array_equal(a, e) for a, e in zip(axes, expected, strict=True))
        assert all(a is b for a, b in zip(axes, grid.axes(), strict=True))
        for a in axes:
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0


@pytest.mark.parametrize("body", [Body([[-1.0], [2.0]]), Body([(0.0, 0.0), (1.0, 0.0), (0.3, 1.0)])],
                         ids=["interval", "triangle"])
def test_a_moment_grid_is_its_body_and_cells(body):
    built = moment_grid(body, 16)
    for grid in (MomentGrid(body, 16), MomentGrid(body, (16,) * body.ndim),
                 dataclasses.replace(built)):
        assert grid == built and hash(grid) == hash(built) and grid.body == body
        assert (grid.lo, grid.hi, grid.cells) == (built.lo, built.hi, built.cells)
        assert all(np.array_equal(a, b) for a, b in zip(grid.axes(), built.axes(), strict=True))
        assert np.array_equal(grid.mask, built.mask)
        assert np.array_equal(grid.weights, built.weights)
    assert dataclasses.replace(built, cells=24) != built


def test_moment_grids_of_bodies_with_one_box_differ():
    square = Body([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
    triangle = Body([(0.0, 0.0), (1.0, 0.0), (0.3, 1.0)])
    a, b = moment_grid(square, 16), moment_grid(triangle, 16)
    assert (a.lo, a.hi, a.cells) == (b.lo, b.hi, b.cells)
    assert a != b


def test_spatial_grid_validation():
    with pytest.raises(ConfigurationError):
        SpatialGrid((0.0,), (0.0,), (16,))
    with pytest.raises(ConfigurationError):
        SpatialGrid((0.0,), (1.0,), (4,))
    with pytest.raises(ConfigurationError):
        SpatialGrid((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (16, 16, 16))


def test_moment_grid_weights_sum_to_volume_interval():
    body = Body([[0.0], [1.0]])
    g = moment_grid(body, 64)
    assert g.weights.sum() == pytest.approx(1.0, abs=1e-15)
    assert g.mask.all()


def test_moment_grid_polygon_mask():
    # right triangle of area 1/2 inside the unit square's bounding box
    body = Body([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
    g = moment_grid(body, 128)
    assert g.weights.sum() == pytest.approx(0.5, rel=2e-2)
    assert g.mask.sum() < g.mask.size


def test_sampled_function_rejects_inf_on_spatial_grid():
    g = SpatialGrid((0.0,), (1.0,), (16,))
    vals = np.zeros(17)
    vals[3] = np.inf
    with pytest.raises(ConfigurationError):
        SampledFunction(g, vals)


@pytest.mark.parametrize("spatial,value", [(False, 0.0), (False, np.inf), (True, np.nan)],
                         ids=["moment_grid", "moment_grid_inf", "nan"])
def test_sampled_function_is_finite_on_a_spatial_grid(spatial, value):
    grid = SpatialGrid((0.0,), (1.0,), (16,)) if spatial else moment_grid(Body([[0.0], [1.0]]), 16)
    vals = np.zeros(grid.shape)
    vals[3] = value
    with pytest.raises(ConfigurationError):
        SampledFunction(grid, vals)


_SQUARE_Q = default_class_body(2).q_body


@pytest.mark.parametrize("klass", [
    default_class_body(1), default_class_body(2),
    ClassBody(Body([(0.0, 0.0), (1.0, 0.0), (0.3, 1.0)]), _SQUARE_Q),
], ids=["interval", "square", "triangle"])
def test_a_stack_stores_its_queries_ascending_and_reads_each_block_back(klass):
    family = epsilon_family(klass, 64)  # 8 grids: 512 queries per axis, enough to fill pieces
    grids, stack = family.grids + (family.base_grid,), family.stack
    assert stack.grids == grids
    for g in grids:  # a grid's transform is its block, and its axes ascend: stored as they stand
        assert g.stack.take is None and g.stack.grids == (g,)
        assert all(q is a for q, a in zip(g.stack.queries, g.axes(), strict=True))
    end_to_end = [np.concatenate(axes) for axes in zip(*(g.axes() for g in grids))]
    for queries, axis in zip(stack.queries, end_to_end, strict=True):
        assert (queries[1:] >= queries[:-1]).all()
        assert np.array_equal(queries, np.sort(axis))
    # the transform on the ascending queries, gathered through take, is bit for bit
    # the blocks of the transform on the axes end to end, grid after grid
    sp = SpatialGrid((-3.0,) * klass.ndim, (4.0,) * klass.ndim, (24,) * klass.ndim)
    nodes = sp.nodes()
    f = SampledFunction(sp, (0.5 * (nodes**2).sum(axis=1) + 0.2 * np.cos(3 * nodes[:, 0]))
                        .reshape(sp.shape))
    full = conjugate_nd(f.values, sp.axes(), end_to_end)
    ends = np.cumsum([g.shape for g in grids], axis=0)
    blocks = [full[tuple(slice(e - n, e) for e, n in zip(end, g.shape))].ravel()
              for g, end in zip(grids, ends)]
    gathered = conjugate_nd(f.values, sp.axes(), stack.queries).ravel()[stack.take]
    assert gathered.tobytes() == np.concatenate(blocks).tobytes()
    assert _dual_values(f, stack).tobytes() == gathered.tobytes()
