"""Spatial samples, Legendre duals and the discrete transforms between them.

A ``SampledFunction`` is finite on a spatial grid (a potential, an obstacle,
an envelope); a ``DualPotential`` is +inf off its body's moment cells, and
its body is its moment grid's.  ``_dual_values`` is the one forward
transform: one ``conjugate_nd`` call gives the dual of a sampled function
on any number of moment grids, read grid after grid through their
``GridStack``'s one gather (a family and every moment grid hold theirs).
``to_duals`` takes a stack and cuts that into duals, one per grid
(``to_dual`` is its one-grid case, on the grid's own stack), and the
distance routes reduce it as it stands.
``to_primal`` is the one transform that samples a dual back on a spatial
grid.

The forward transform of a sampled function equals the transform of its
lower convex hull, so each 1d pass reads the hull's vertices
(``lower_hull``, the one reader of ``lower_hull_indices``, where one
vectorised chord test drops the samples that cannot be vertices before the
monotone chain runs) and then finds each query slope's hull piece: many
ascending queries per vertex (a ``GridStack`` keeps its queries ascending)
by one search per hull slope among the queries (``_fill_pieces``), any
other queries by one search per query among the slopes; both give the same
floats.  ``conjugate_1d`` scans a line for finite values once and
copies it only when some value is +inf; a line with none conjugates to
-inf.  ``conjugate_nd`` is one 1d pass per axis (a 1d array is one line,
hulled as it stands), and ``DualPotential.eval_primal`` is the first of
those passes, at the query points, followed by a max over the remaining
axes.  One function reads a sampled function's hull at its own samples,
for any number of bodies (``hull_primals``): every envelope primal reads it
with its body, and the one convexification (``convexify_moment_values``, on
spatial and moment grids) with every slope.  In 2d it reads the lower
facets of the 3d hull (``lower_facets``, Qhull) through ``max_affine``,
which is also the O(N*M) oracle ``conjugate_oracle``.
``gradient`` (first differences) sits beside ``second_differences``.
"""
from __future__ import annotations

import itertools
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .bodies import Body
from .grids import ConfigurationError, GridStack, MomentGrid, SpatialGrid, check_body, tensor_nodes


def lower_hull_indices(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Indices of the vertices of the lower convex hull of the points (x_i, v_i), x ascending.

    Both endpoints are kept; a sample on an edge of the hull (as the turn
    test rounds) is not a vertex, so affine data whose turn tests are exact
    give the two endpoints only.  One numpy pass applies the turn test to
    every consecutive triple and drops each sample on or above the chord of
    its two neighbours, which is never a vertex; on piecewise affine data
    that leaves a few dozen samples of thousands.  The monotone chain
    (Andrew 1979) then runs on the survivors, on Python floats, which round
    exactly like numpy float64 scalars but index several times faster.
    """
    # strict turn at i: slope(i-1, i) < slope(i, i+1)
    turns = (v[1:-1] - v[:-2]) * (x[2:] - x[1:-1]) < (v[2:] - v[1:-1]) * (x[1:-1] - x[:-2])
    keep = np.flatnonzero(np.concatenate([[True], turns, [True]])[: len(x)])
    x, v = x[keep].tolist(), v[keep].tolist()
    stack: list[int] = []
    for i in range(len(x)):
        while len(stack) >= 2:
            j, k = stack[-2], stack[-1]
            # pop k when it lies on or above the chord from j to i
            if (v[k] - v[j]) * (x[i] - x[k]) < (v[i] - v[k]) * (x[k] - x[j]):
                break
            stack.pop()
        stack.append(i)
    return keep[stack]


def _finite_samples(x: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The samples with a finite value, in one pass: ``x`` and ``v`` themselves when all are."""
    finite = np.isfinite(v)
    return (x, v) if finite.all() else (x[finite], v[finite])


def lower_hull(x: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes, values and edge slopes of the lower hull of finite samples."""
    hull = lower_hull_indices(x, v)
    xs, vs = x[hull], v[hull]
    return xs, vs, (vs[1:] - vs[:-1]) / (xs[1:] - xs[:-1])


def lower_facets(points: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lower facets z = <g, x> + c of the hull of finite samples: slopes g, offsets c, vertices.

    An apex above the centroid keeps an affine input 3d; no lower facet touches it.
    """
    from scipy.spatial import ConvexHull

    apex = np.append(points.mean(axis=0), 2 * values.max() - values.min() + 1.0)
    hull = ConvexHull(np.vstack([np.column_stack([points, values]), apex]))
    # outward normals n with n . (x, z) + d = 0; the lower facets face down
    n, lower = hull.equations, hull.equations[:, 2] < 0
    return -n[lower, :2] / n[lower, 2:3], -n[lower, 3] / n[lower, 2], np.unique(hull.simplices[lower])


def max_affine(points: np.ndarray, slopes: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """max_k (<g_k, x> + c_k) at each point, in blocks of about 2**20 products; -inf for no plane."""
    step = 2**20 // max(1, len(slopes))
    blocks = (points[s : s + step] @ slopes.T + offsets for s in range(0, len(points), step))
    return np.concatenate([np.empty(0)] + [block.max(axis=1, initial=-np.inf) for block in blocks])


# where the piece fill starts to win (scripts/bench_lookup.py, BENCH_lookup.json):
# from 513 ascending queries with 4 or more per hull vertex, not at 257 or below
_FILL_MIN_QUERIES = 512
_FILL_QUERIES_PER_VERTEX = 4


def conjugate_1d(x: np.ndarray, v: np.ndarray, q: np.ndarray) -> np.ndarray:
    """max_i (q * x_i - v_i) for each query slope q; +inf entries drop out.

    With no finite entry it is -inf, a max over no nodes.  The max at q is
    attained at hull vertex k, k the number of hull slopes below q.  At
    least 512 ascending queries with 4 or more per hull vertex (a stacked
    eps-table, a piecewise affine dual sampled back) are filled piece by
    piece (``_fill_pieces``): one binary search per hull slope among the
    queries, where one per query among the slopes costs 1.1 to 5 times
    more, the more the more queries.  Fewer queries (the fill's fixed cost
    of a few numpy calls dominates), a smooth line (about one vertex per
    query) and unsorted queries (``eval_primal``'s points) keep the
    per-query search.  Both give the same floats.
    """
    x, v, q = *_finite_samples(x, v), np.asarray(q)
    if not len(v):
        return np.full(q.shape, -np.inf)
    xs, vs, slopes = lower_hull(x, v)
    if (q.ndim == 1 and len(q) >= max(_FILL_MIN_QUERIES, _FILL_QUERIES_PER_VERTEX * len(xs))
            and (q[1:] >= q[:-1]).all()):
        return _fill_pieces(xs, vs, slopes, q)
    k = np.searchsorted(slopes, q, side="left")
    return q * xs[k] - vs[k]


def _fill_pieces(xs: np.ndarray, vs: np.ndarray, slopes: np.ndarray,
                 q: np.ndarray) -> np.ndarray:
    """q * xs[k] - vs[k] for ascending q, k the number of hull ``slopes`` below q.

    Piece k holds the queries with slopes[k-1] < q <= slopes[k], so it ends
    where ``side="right"`` places slopes[k] among the queries: the same k as
    ``np.searchsorted(slopes, q, side="left")``, ties included, and the same
    float expression, so the result is bit for bit that lookup's.  The hull's
    slopes never decrease (equal ones give an empty piece), so no piece count
    is negative; ``np.repeat`` would raise on one.
    """
    ends = np.empty(len(xs) + 1, dtype=np.intp)
    ends[0], ends[-1] = 0, len(q)
    ends[1:-1] = q.searchsorted(slopes, side="right")
    counts = ends[1:] - ends[:-1]
    out = xs.repeat(counts)
    out *= q
    out -= vs.repeat(counts)
    return out


def conjugate_oracle(x: np.ndarray, v: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Cross-check oracle for ``conjugate_1d``: the O(N*M) maximum, no hull."""
    return max_affine(q[:, None], *_finite_samples(x[:, None], -v))


def _conjugate_along_axis(values: np.ndarray, nodes: np.ndarray,
                          queries: np.ndarray, axis: int) -> np.ndarray:
    """1d conjugate of ``values`` along ``axis`` sampled at ``queries``, line by line."""
    if values.ndim == 1:  # one line: no loop to set up
        return conjugate_1d(nodes, values, queries)
    moved = values.swapaxes(axis, -1)
    out = np.empty(moved.shape[:-1] + (len(queries),))
    for idx in np.ndindex(moved.shape[:-1]):
        out[idx] = conjugate_1d(nodes, moved[idx], queries)
    return out.swapaxes(axis, -1)


def conjugate_nd(values: np.ndarray, node_axes: list[np.ndarray],
                 query_axes: list[np.ndarray]) -> np.ndarray:
    """Separable discrete conjugate: g*(q) = max_x (<q,x> - g(x)).

    One 1d pass per axis: max_{x2} (q2 x2 + max_{x1} (q1 x1 - g)) conjugates
    the negated result of the pass before along the next axis.
    """
    out = values
    for axis, (nodes, queries) in enumerate(zip(node_axes, query_axes)):
        out = _conjugate_along_axis(-out if axis else out, nodes, queries, axis)
    return out


_SHIFT = {1: slice(2, None), 0: slice(None), -1: slice(None, -2)}


def second_differences(v: np.ndarray) -> Iterator[np.ndarray]:
    """Second differences along each axis, then along each full diagonal.

    A diagonal and its reverse give the same stencil; the direction with
    more positive steps (on a tie, a positive first step) is the one kept.
    In 1d the axis is the only diagonal.
    """
    n = v.ndim
    steps = [tuple(int(a == b) for b in range(n)) for a in range(n)]
    if n > 1:
        steps += [s for s in itertools.product((1, -1), repeat=n) if (sum(s), s[0]) > (0, 0)]
    for s in steps:
        mid = tuple(slice(1, -1) if k else slice(None) for k in s)
        yield v[tuple(_SHIFT[k] for k in s)] - 2 * v[mid] + v[tuple(_SHIFT[-k] for k in s)]


def gradient(values: np.ndarray, spacing: tuple) -> np.ndarray:
    """First differences along each axis, shape (*values.shape, ndim).

    Central where both neighbours are finite, one-sided at the edge of the
    finite set; nan where no neighbour is finite and at every node that is
    not finite.
    """
    # nan marks the nodes that are not finite, so differences that touch
    # them come out nan without a warning
    marked = np.where(np.isfinite(values), values, np.nan)
    out = np.empty(values.shape + (values.ndim,))
    for axis, h in enumerate(spacing):
        v = np.moveaxis(marked, axis, 0)
        edge = np.full((1,) + v.shape[1:], np.nan)
        prev, nxt = np.concatenate([edge, v[:-1]]), np.concatenate([v[1:], edge])
        fwd, bwd, central = (nxt - v) / h, (v - prev) / h, (nxt - prev) / (2 * h)
        g = np.where(np.isnan(fwd), bwd, fwd)
        g = np.where(np.isnan(central) | np.isnan(v), g, central)
        out[..., axis] = np.moveaxis(g, 0, axis)
    return out


def second_difference_slack(values: np.ndarray) -> float:
    """Most negative finite second difference (axes and diagonals), or 0."""
    # nan marks the nodes that are not finite, so the differences that touch
    # them come out nan without a warning and drop out
    worst = 0.0
    for d in second_differences(np.where(np.isfinite(values), values, np.nan)):
        d = d[np.isfinite(d)]
        if d.size:
            worst = min(worst, float(d.min()))
    return worst


@dataclass(frozen=True)
class SampledFunction:
    """Finite node values on a spatial grid."""

    grid: SpatialGrid
    values: np.ndarray = field(compare=False)
    provenance: str = "derived"

    def __post_init__(self):
        if not isinstance(self.grid, SpatialGrid):
            raise ConfigurationError("sampled functions live on a spatial grid")
        values = np.asarray(self.values, dtype=float)
        if values.shape != self.grid.shape:
            raise ConfigurationError(
                f"value shape {values.shape} does not match grid shape {self.grid.shape}"
            )
        if not np.isfinite(values).all():
            raise ConfigurationError("sampled values must be finite")
        object.__setattr__(self, "values", values)

    def convexity_slack(self) -> float:
        return second_difference_slack(self.values)


@dataclass(frozen=True)
class DualPotential:
    """A potential represented by its Legendre dual on a moment grid, +inf off ``grid.mask``.

    ``body`` must be the grid's body.
    """

    body: Body
    grid: MomentGrid
    values: np.ndarray = field(compare=False)
    provenance: str = "derived"

    def __post_init__(self):
        check_body(self.body, self.grid)
        values = np.asarray(self.values, dtype=float)
        if values.shape != self.grid.shape:
            raise ConfigurationError("dual values do not match the moment grid")
        values = np.where(self.grid.mask, values, np.inf)
        if not np.isfinite(values).any():
            raise ConfigurationError("dual potential needs at least one finite node")
        object.__setattr__(self, "values", values)

    @property
    def has_minimal_singularities(self) -> bool:
        """True when the dual is finite on the body's cells."""
        return bool(np.isfinite(self.values[self.grid.mask]).all())

    def eval_primal(self, points: np.ndarray) -> np.ndarray:
        """u(x) = max over finite moment nodes of (<p,x> - u*(p)), points shaped (M, ndim).

        Separable: one 1d conjugate pass along the first axis, at the points'
        first coordinate, gives the max over each column (one column per
        value p' of the remaining coordinates, -inf where it has no finite
        node); u is the max over the columns of that plus <p', x'>.  In 1d
        there is one column and nothing is added, not even 0.0.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != self.grid.ndim:
            raise ConfigurationError(f"points must have {self.grid.ndim} columns")
        first, *rest = self.grid.axes()
        columns = _conjugate_along_axis(self.values, first, pts[:, 0], 0)
        if not rest:
            return columns
        return (columns + pts[:, 1:] @ tensor_nodes(rest).T).max(axis=1)

    def shift(self, c: float) -> "DualPotential":
        """Primal shift u + c, i.e. dual values u* - c."""
        return DualPotential(self.body, self.grid, self.values - c, self.provenance)


def _dual_values(u: SampledFunction, stack: GridStack) -> np.ndarray:
    """u*(p) = max over spatial nodes of (<p,x> - u(x)) on every stacked grid's cells.

    One ``conjugate_nd`` call runs on the stack's query axes, ascending, so
    every line of u is hulled once, whatever the number of grids, and each
    pass can fill its hull pieces.  The result is each grid's block,
    ravelled, grid after grid: the ravelled conjugate read through the
    stack's ``take`` (as it stands on one grid), in every dimension (in 2d
    the blocks that pair one grid's first axis with another's second are
    never read).  Each query is resolved on its own, so a block is bit for
    bit the one-grid transform.  Off a grid's mask the values are finite; a
    ``DualPotential`` sets them to +inf.
    """
    if len(stack.queries) != u.grid.ndim:
        raise ConfigurationError("the samples and the moment grid differ in dimension")
    vals = conjugate_nd(u.values, u.grid.axes(), stack.queries).ravel()
    return vals if stack.take is None else vals[stack.take]


def to_duals(u: SampledFunction, stack: GridStack) -> list[DualPotential]:
    """The dual of u on each grid of ``stack``, on its body: ``_dual_values`` cut into grids."""
    if not isinstance(stack, GridStack):
        raise ConfigurationError("to_duals takes a GridStack; grid_stack(grids) builds one")
    blocks = np.split(_dual_values(u, stack), np.cumsum([g.mask.size for g in stack.grids])[:-1])
    return [DualPotential(g.body, g, b.reshape(g.shape), provenance=u.provenance)
            for g, b in zip(stack.grids, blocks)]


def to_dual(u: SampledFunction, target: MomentGrid) -> DualPotential:
    """u*(p) = max over spatial nodes of (<p,x> - u(x)), on the body of ``target``."""
    return to_duals(u, target.stack)[0]


def to_primal(g: DualPotential, target: SpatialGrid) -> SampledFunction:
    """u(x) = max over finite moment nodes of (<p,x> - g(p))."""
    vals = conjugate_nd(g.values, g.grid.axes(), target.axes())
    return SampledFunction(target, vals, g.provenance)


def clamped_hull(x: np.ndarray, hull: tuple[np.ndarray, np.ndarray, np.ndarray],
                 a: float = -np.inf, b: float = np.inf) -> np.ndarray:
    """sup over q in [a, b] of (q x - f*(q)) on x, from the ``lower_hull`` of f, exactly.

    q x - f*(q) is concave and piecewise affine in q with kinks at the
    slopes of the lower hull, so the sup is attained at a, at b or at a hull
    slope.  That is the hull between the vertices where its slopes cross a
    and b, continued by rays of slope a to the left and b to the right.
    With the default [a, b] it is the lower convex hull, +inf outside the
    finite samples.  One hull serves any number of slope intervals.
    """
    xs, vs, slopes = hull
    lo = np.searchsorted(slopes, a, side="left")
    hi = np.searchsorted(slopes, b, side="right")
    xs, vs = xs[lo : hi + 1], vs[lo : hi + 1]
    out = np.interp(x, xs, vs)
    left, right = x < xs[0], x > xs[-1]
    out[left] = vs[0] + a * (x[left] - xs[0])
    out[right] = vs[-1] + b * (x[right] - xs[-1])
    return out


def hull_primals(points: np.ndarray, values: np.ndarray,
                 bodies: list[Body | None]) -> list[np.ndarray]:
    """sup over q in each body of (<q,x> - f*(q)) at f's own samples, exactly, from one hull of f.

    ``points`` (N, ndim) and ``values`` are the finite samples of f, ascending
    in 1d; a body of None allows every slope, which gives f's lower convex
    hull.  q -> <q,x> - f*(q) is concave and piecewise affine, so the sup is
    attained at a hull slope inside the body or on the body's boundary.  In
    1d that is the ``lower_hull`` clamped to the body's slope interval
    (``clamped_hull``).  In 2d the hull slopes are those of the
    ``lower_facets``, where f*(g) = -c is the facet's offset: the sup is one
    ``max_affine`` over the planes of the facets whose slopes lie in the
    body, maxed, per body edge [a, b], with the 1d rule on the edge: <a,x>
    plus the hull of (<b - a, x_i>, f_i - <a, x_i>) clamped to slopes in
    [0, 1].
    """
    if points.shape[1] == 1:
        x = points[:, 0]
        hull = lower_hull(x, values)
        bounds = [(-np.inf, np.inf) if body is None else body.vertex_array[:, 0] for body in bodies]
        return [clamped_hull(x, hull, a, b) for a, b in bounds]
    slopes, offsets, vertices = lower_facets(points, values)
    xh, vh = points[vertices], values[vertices]
    out = []
    for body in bodies:
        # a body of None keeps every facet plane and has no edge
        inside = slice(None) if body is None else body.contains(slopes)
        corners = [] if body is None else body.vertex_array
        primal = max_affine(points, slopes[inside], offsets[inside])
        for a, b in zip(corners, np.roll(corners, -1, axis=0)):
            s, w = xh @ (b - a), vh - xh @ a
            order = np.lexsort((w, s))
            first = order[np.unique(s[order], return_index=True)[1]]  # lowest value per projection
            edge = clamped_hull(points @ (b - a), lower_hull(s[first], w[first]), 0.0, 1.0)
            primal = np.maximum(primal, points @ a + edge)
        out.append(primal)
    return out


def convexify_moment_values(grid: MomentGrid | SpatialGrid, values: np.ndarray) -> np.ndarray:
    """Lower convex hull of the finite values on a moment or a spatial grid.

    Exact in every dimension, +inf wherever the values are +inf: the hull is
    ``hull_primals`` with every slope allowed, read at the finite nodes only,
    so a hole inside them stays +inf.  A needle body's cells are read as 1d
    samples along their line.  In 2d each node is capped by its value, a
    guard against facet planes that round above it.
    """
    out, nodes = values.flatten(), tensor_nodes(grid.axes())
    finite = np.flatnonzero(np.isfinite(out))
    points, v = nodes[finite], out[finite]
    line = points - points[0]
    if grid.ndim == 2 and np.linalg.matrix_rank(line) < 2:
        points = (line @ line[-1])[:, None]
    hull, = hull_primals(points, v, [None])
    out[finite] = hull if points.shape[1] == 1 else np.minimum(hull, v)
    return out.reshape(values.shape)
