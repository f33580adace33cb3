"""Discrete Legendre transforms between spatial and moment representations.

The forward transform of a sampled function equals the transform of its
lower convex hull, so each 1d pass reads the hull (``lower_hull``, the one
reader of the monotone chain) and then resolves every query slope with a
single sorted lookup.  A 1d double transform over a slope interval is read
off the same hull (``clamped_hull``).  ``conjugate_nd`` is one 1d pass per
axis, and ``DualPotential.eval_primal`` is separable in every dimension:
one 1d conjugate per column of the dual along the first axis.  One
convexification (``convexify_moment_values``) serves spatial and moment
grids; in 2d it reads the lower facets of the 3d hull (``lower_facets``, Qhull)
through ``max_affine``, which is also the O(N*M) oracle ``conjugate_oracle``.
``gradient`` (first differences) sits beside ``second_differences``.
"""
from __future__ import annotations

import itertools
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .bodies import Body
from .grids import ConfigurationError, MomentGrid, SampledFunction, SpatialGrid, tensor_nodes


def lower_hull_indices(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Indices of the lower convex hull of the points (x_i, v_i), x ascending.

    The chain runs on Python floats: they round exactly like numpy float64
    scalars, so the indices are the same, but they index several times faster.
    """
    x, v = x.tolist(), v.tolist()
    stack: list[int] = []
    for i in range(len(x)):
        while len(stack) >= 2:
            j, k = stack[-2], stack[-1]
            # keep the turn convex: slope(j,k) <= slope(k,i)
            if (v[k] - v[j]) * (x[i] - x[k]) <= (v[i] - v[k]) * (x[k] - x[j]):
                break
            stack.pop()
        stack.append(i)
    return np.asarray(stack, dtype=int)


def _finite_samples(x: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    finite = np.isfinite(v)
    if not finite.any():
        raise ConfigurationError("conjugate of a function with no finite values")
    return x[finite], v[finite]


def lower_hull(x: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes, values and edge slopes of the lower hull of the finite samples."""
    x, v = _finite_samples(x, v)
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
    """max_k (<g_k, x> + c_k) at each point, in blocks of about 2**20 products."""
    step = max(1, 2**20 // len(slopes))
    blocks = (points[s : s + step] @ slopes.T + offsets for s in range(0, len(points), step))
    return np.concatenate([np.empty(0)] + [block.max(axis=1) for block in blocks])


def conjugate_1d(x: np.ndarray, v: np.ndarray, q: np.ndarray) -> np.ndarray:
    """max_i (q * x_i - v_i) for each query slope q; +inf entries drop out."""
    xs, vs, slopes = lower_hull(x, v)
    k = np.searchsorted(slopes, q, side="left")
    return q * xs[k] - vs[k]


def conjugate_oracle(x: np.ndarray, v: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Cross-check oracle for ``conjugate_1d``: the O(N*M) maximum, no hull."""
    return max_affine(q[:, None], *_finite_samples(x[:, None], -v))


def _conjugate_along_axis(values: np.ndarray, nodes: np.ndarray,
                          queries: np.ndarray, axis: int) -> np.ndarray:
    """1d conjugate of ``values`` along ``axis`` sampled at ``queries``.

    A line with no finite value conjugates to -inf (a max over no nodes).
    """
    moved = values.swapaxes(axis, -1)
    out = np.full(moved.shape[:-1] + (len(queries),), -np.inf)
    for idx in np.ndindex(moved.shape[:-1]):
        if np.isfinite(moved[idx]).any():
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
class DualPotential:
    """A potential represented by its Legendre dual on a moment grid."""

    body: Body
    grid: MomentGrid
    values: np.ndarray = field(compare=False)
    provenance: str = "derived"

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != self.grid.shape:
            raise ConfigurationError("dual values do not match the moment grid")
        if not np.isfinite(values).any():
            raise ConfigurationError("dual potential needs at least one finite node")
        object.__setattr__(self, "values", values)

    @property
    def is_singular(self) -> bool:
        """True when some node carries +inf (non-minimal singularities)."""
        return bool(np.isposinf(self.values).any())

    @property
    def has_minimal_singularities(self) -> bool:
        return bool(np.isfinite(self.values[self.grid.mask]).all())

    def convexity_slack(self) -> float:
        return second_difference_slack(self.values)

    def eval_primal(self, points: np.ndarray) -> np.ndarray:
        """u(x) = max over finite moment nodes of (<p,x> - u*(p)), points shaped (M, ndim).

        Separable: the dual splits into columns along the first axis, one per
        value p' of the remaining coordinates; each column's 1d conjugate at
        the points' first coordinate, plus <p', x'>, is the column's max, and
        u is the max over the columns.  In 1d there is one column.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != self.grid.ndim:
            raise ConfigurationError(f"points must have {self.grid.ndim} columns")
        first, *rest = self.grid.axes()
        columns = self.values.reshape(len(first), -1).T
        others = tensor_nodes(rest) if rest else np.zeros((1, 0))
        out = np.full(pts.shape[0], -np.inf)
        for column, p_rest in zip(columns, others):
            if np.isfinite(column).any():
                # a sum from the conjugate: in 1d nothing is added, not even 0.0
                col = sum((p * x for p, x in zip(p_rest, pts[:, 1:].T)),
                          conjugate_1d(first, column, pts[:, 0]))
                out = np.maximum(out, col)
        return out

    def shift(self, c: float) -> "DualPotential":
        """Primal shift u + c, i.e. dual values u* - c."""
        return DualPotential(self.body, self.grid, self.values - c, self.provenance)


@dataclass(frozen=True)
class PrimalPotential:
    """Spatial samples of a convex potential whose slopes lie in the body."""

    grid: SpatialGrid
    values: np.ndarray = field(compare=False)
    body: Body | None = None
    provenance: str = "derived"

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != self.grid.shape:
            raise ConfigurationError("primal values do not match the spatial grid")
        if not np.isfinite(values).all():
            raise ConfigurationError("primal potentials must be finite")
        object.__setattr__(self, "values", values)

    def convexity_slack(self) -> float:
        return second_difference_slack(self.values)


def to_dual(u: PrimalPotential, target: MomentGrid) -> DualPotential:
    """u*(p) = max over spatial nodes of (<p,x> - u(x)), on the class body of u."""
    if u.body is None:
        raise ConfigurationError("to_dual needs the class body of u")
    vals = conjugate_nd(u.values, u.grid.axes(), target.axes())
    return DualPotential(u.body, target, vals, provenance=u.provenance)


def to_primal(g: DualPotential, target: SpatialGrid) -> PrimalPotential:
    """u(x) = max over finite moment nodes of (<p,x> - g(p))."""
    vals = conjugate_nd(g.values, g.grid.axes(), target.axes())
    return PrimalPotential(target, vals, body=g.body, provenance=g.provenance)


def clamped_hull(x: np.ndarray, values: np.ndarray,
                 a: float = -np.inf, b: float = np.inf) -> np.ndarray:
    """sup over q in [a, b] of (q x - f*(q)) on x, f the finite samples, exactly.

    q x - f*(q) is concave and piecewise affine in q with kinks at the
    slopes of the lower hull, so the sup is attained at a, at b or at a hull
    slope.  That is the hull between the vertices where its slopes cross a
    and b, continued by rays of slope a to the left and b to the right.
    With the default [a, b] it is the lower convex hull, +inf outside the
    finite samples.
    """
    xs, vs, slopes = lower_hull(x, values)
    lo = np.searchsorted(slopes, a, side="left")
    hi = np.searchsorted(slopes, b, side="right")
    xs, vs = xs[lo : hi + 1], vs[lo : hi + 1]
    out = np.interp(x, xs, vs)
    left, right = x < xs[0], x > xs[-1]
    out[left] = vs[0] + a * (x[left] - xs[0])
    out[right] = vs[-1] + b * (x[right] - xs[-1])
    return out


def convexify(f: SampledFunction, body: Body | None = None) -> PrimalPotential:
    """Largest grid-convex function below f (lower convex hull); idempotent."""
    if not isinstance(f.grid, SpatialGrid):
        raise ConfigurationError("convexify expects a spatial sampled function")
    vals = convexify_moment_values(f.grid, f.values)
    return PrimalPotential(f.grid, vals, body=body, provenance=f.provenance)


def convexify_moment_values(grid: MomentGrid | SpatialGrid, values: np.ndarray) -> np.ndarray:
    """Lower convex hull of the finite values on a moment or a spatial grid.

    Exact in every dimension, +inf wherever the values are +inf.  In 2d a
    hull vertex keeps its value; every other finite node takes the largest
    lower-facet plane (``lower_facets``), capped by its value as a rounding
    guard.
    """
    axes = grid.axes()
    if grid.ndim == 1:
        return clamped_hull(axes[0], values)
    out, nodes = values.flatten(), tensor_nodes(axes)
    finite = np.flatnonzero(np.isfinite(out))
    line = nodes[finite] - nodes[finite[0]]
    if np.linalg.matrix_rank(line) < 2:  # a needle body's cells: the 1d hull along their line
        out[finite] = clamped_hull(line @ line[-1], out[finite])
    else:
        slopes, offsets, vertices = lower_facets(nodes[finite], out[finite])
        rest = np.delete(finite, vertices)
        out[rest] = np.minimum(max_affine(nodes[rest], slopes, offsets), out[rest])
    return out.reshape(values.shape)
