"""Discrete Legendre transforms between spatial and moment representations.

The forward transform of a sampled function equals the transform of its
lower convex hull, so each 1d pass computes the hull with a monotone chain
and then resolves every query slope with a single sorted lookup.  A 1d
double transform over a slope interval is read off the same hull
(``clamped_hull``).  The 2d transform factorizes into two 1d passes along
the axes.  A brute-force O(N*M) evaluation is kept as a reference oracle
behind the ``brute`` flag.
"""
from __future__ import annotations

import itertools
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .bodies import Body
from .grids import ConfigurationError, MomentGrid, SampledFunction, SpatialGrid

CONVEXITY_RTOL = 1e-10


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


def conjugate_1d(x: np.ndarray, v: np.ndarray, q: np.ndarray,
                 brute: bool = False) -> np.ndarray:
    """max_i (q * x_i - v_i) for each query slope q; +inf entries drop out."""
    finite = np.isfinite(v)
    x, v = x[finite], v[finite]
    if x.size == 0:
        raise ConfigurationError("conjugate of a function with no finite values")
    if brute:
        return np.max(np.outer(q, x) - v[None, :], axis=1)
    hull = lower_hull_indices(x, v)
    xs, vs = x[hull], v[hull]
    slopes = (vs[1:] - vs[:-1]) / (xs[1:] - xs[:-1])
    k = np.searchsorted(slopes, q, side="left")
    return q * xs[k] - vs[k]


def _conjugate_along_axis(values: np.ndarray, nodes: np.ndarray,
                          queries: np.ndarray, axis: int, brute: bool) -> np.ndarray:
    """1d conjugate of ``values`` along ``axis`` sampled at ``queries``."""
    moved = np.moveaxis(np.atleast_2d(values), axis, -1)
    out = np.empty(moved.shape[:-1] + (len(queries),))
    for idx in np.ndindex(moved.shape[:-1]):
        out[idx] = conjugate_1d(nodes, moved[idx], queries, brute=brute)
    res = np.moveaxis(out, -1, axis)
    return res if values.ndim > 1 else res[0]


def conjugate_nd(values: np.ndarray, node_axes: list[np.ndarray],
                 query_axes: list[np.ndarray], brute: bool = False) -> np.ndarray:
    """Separable discrete conjugate: g*(q) = max_x (<q,x> - g(x))."""
    n = len(node_axes)
    if n == 1:
        return conjugate_1d(node_axes[0], values, query_axes[0], brute=brute)
    # max_{x2} (q2 x2 + max_{x1} (q1 x1 - g)) computed as two nested conjugates
    inner = _conjugate_along_axis(values, node_axes[0], query_axes[0], 0, brute)
    return _conjugate_along_axis(-inner, node_axes[1], query_axes[1], 1, brute)


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


def second_difference_slack(values: np.ndarray) -> float:
    """Most negative finite second difference (axes and diagonals), or 0."""
    worst = 0.0
    for d in second_differences(values):
        d = d[np.isfinite(d)]
        if d.size:
            worst = min(worst, float(d.min()))
    return worst


def _value_scale(values: np.ndarray) -> float:
    finite = values[np.isfinite(values)]
    return max(1.0, float(finite.max() - finite.min())) if finite.size else 1.0


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

    def check_convex(self) -> bool:
        return self.convexity_slack() >= -CONVEXITY_RTOL * _value_scale(self.values)

    def eval_primal(self, points: np.ndarray) -> np.ndarray:
        """u(x) = max over finite moment nodes of (<p,x> - u*(p)), points shaped (M, ndim).

        In 1d this is a conjugate at the points through the hull of the dual.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != self.grid.ndim:
            raise ConfigurationError(f"points must have {self.grid.ndim} columns")
        if self.grid.ndim == 1:
            return conjugate_1d(self.grid.axes()[0], self.values, pts[:, 0])
        nodes = self.grid.nodes()
        vals = self.values.ravel()
        finite = np.isfinite(vals)
        nodes, vals = nodes[finite], vals[finite]
        out = np.empty(pts.shape[0])
        step = max(1, 2**22 // max(1, nodes.shape[0]))
        for s in range(0, pts.shape[0], step):
            block = pts[s : s + step] @ nodes.T - vals[None, :]
            out[s : s + step] = block.max(axis=1)
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

    def check_convex(self) -> bool:
        return self.convexity_slack() >= -CONVEXITY_RTOL * _value_scale(self.values)


def to_dual(u: PrimalPotential, target: MomentGrid, body: Body | None = None,
            brute: bool = False) -> DualPotential:
    """u*(p) = max over spatial nodes of (<p,x> - u(x))."""
    body = body if body is not None else u.body
    if body is None:
        raise ConfigurationError("to_dual needs the class body of u")
    vals = conjugate_nd(u.values, u.grid.axes(), target.axes(), brute=brute)
    return DualPotential(body, target, vals, provenance=u.provenance)


def to_primal(g: DualPotential, target: SpatialGrid, brute: bool = False) -> PrimalPotential:
    """u(x) = max over finite moment nodes of (<p,x> - g(p))."""
    vals = conjugate_nd(g.values, g.grid.axes(), target.axes(), brute=brute)
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
    finite = np.isfinite(values)
    xs, vs = x[finite], values[finite]
    hull = lower_hull_indices(xs, vs)
    xs, vs = xs[hull], vs[hull]
    slopes = np.diff(vs) / np.diff(xs)
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
    grid = f.grid
    if not isinstance(grid, SpatialGrid):
        raise ConfigurationError("convexify expects a spatial sampled function")
    if grid.ndim == 1:
        vals = clamped_hull(grid.axes()[0], f.values)
        return PrimalPotential(grid, vals, body=body, provenance=f.provenance)
    # 2d: double conjugate over a slope box covering all achieved gradients
    axes = grid.axes()
    hx, hy = grid.spacing
    gx = np.abs(np.diff(f.values, axis=0)).max() / hx
    gy = np.abs(np.diff(f.values, axis=1)).max() / hy
    qx = np.linspace(-gx - 1.0, gx + 1.0, 2 * grid.cells[0] + 1)
    qy = np.linspace(-gy - 1.0, gy + 1.0, 2 * grid.cells[1] + 1)
    star = conjugate_nd(f.values, axes, [qx, qy])
    vals = conjugate_nd(star, [qx, qy], axes)
    vals = np.minimum(vals, f.values)  # rounding guard: hull never exceeds f
    return PrimalPotential(grid, vals, body=body, provenance=f.provenance)


def convexify_moment_values(grid: MomentGrid, values: np.ndarray) -> np.ndarray:
    """Lower convex hull of values sampled on a moment grid (finite part)."""
    if grid.ndim == 1:
        return clamped_hull(grid.axes()[0], values)
    axes = grid.axes()
    star = conjugate_nd(values, axes, axes)  # slopes reused as a generous box
    return conjugate_nd(star, axes, axes)
