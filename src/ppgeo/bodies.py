"""Convex bodies and the dictionary between classes and bodies.

A cohomology class is modeled by a full-dimensional convex body P (interval
in 1d, CCW polygon in 2d); the reference perturbation shape is a second
body Q with 0 strictly inside.  The approximating classes are the Minkowski
sums P + eps * Q.  ``epsilon_family`` builds their moment grids once, with
the base grid of P, into the one stacked layout (``grids.GridStack``) that
the limit route prices its whole eps-table from; the family reads its
grids, base grid and volumes off that stack.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grids import ConfigurationError, GridStack, MomentGrid, grid_stack, moment_grid

# the default epsilon schedule: 0.2 halved six times
DEFAULT_SCHEDULE = tuple(0.2 * 0.5**k for k in range(7))


@dataclass(frozen=True)
class Body:
    """Interval (n=1) or strictly convex polygon with CCW vertices (n=2)."""

    vertices: tuple  # ((x,), ...) or ((x, y), ...)

    def __post_init__(self):
        verts = np.atleast_2d(np.asarray(self.vertices, dtype=float))
        if verts.shape[1] not in (1, 2):
            raise ConfigurationError("bodies must be 1- or 2-dimensional")
        if verts.shape[1] == 1:
            if verts.shape[0] != 2 or verts[0, 0] >= verts[1, 0]:
                raise ConfigurationError("an interval needs vertices [[lo],[hi]] with lo < hi")
        else:
            if verts.shape[0] < 3:
                raise ConfigurationError("a polygon needs at least 3 vertices")
            if not _strictly_convex_ccw(verts):
                raise ConfigurationError("polygon vertices must be CCW and strictly convex")
        object.__setattr__(self, "vertices", tuple(map(tuple, verts)))

    @property
    def ndim(self) -> int:
        return len(self.vertices[0])

    @property
    def vertex_array(self) -> np.ndarray:
        return np.asarray(self.vertices, dtype=float)

    def volume(self) -> float:
        v = self.vertex_array
        if self.ndim == 1:
            return float(v[1, 0] - v[0, 0])
        return _shoelace(v)

    def support_many(self, xs: np.ndarray) -> np.ndarray:
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        return np.max(xs @ self.vertex_array.T, axis=1)

    def contains(self, pts: np.ndarray, tol: float = 1e-12) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        v = self.vertex_array
        if self.ndim == 1:
            x = pts[:, 0]
            return (x >= v[0, 0] - tol) & (x <= v[1, 0] + tol)
        edges, cross = _edge_cross(v, pts)
        # CCW: interior is on the left of each edge
        return (cross >= -tol * np.maximum(1.0, np.abs(edges).max(axis=1))[:, None]).all(axis=0)

    def bounding_box(self) -> tuple[tuple, tuple]:
        v = self.vertex_array
        return tuple(v.min(axis=0)), tuple(v.max(axis=0))


def _shoelace(v: np.ndarray) -> float:
    x, y = v[:, 0], v[:, 1]
    return float(0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def _edge_cross(v: np.ndarray, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The edges e_i = v_{i+1} - v_i of the polygon v, and e_i x (pts_j - v_i) at [i, j]."""
    edges = np.roll(v, -1, axis=0) - v
    dx, dy = (pts[None, :, k] - v[:, None, k] for k in (0, 1))
    # in place: fresh (edges, points) temporaries cost more than the arithmetic on them
    dy *= edges[:, None, 0]
    dx *= edges[:, None, 1]
    dy -= dx
    return edges, dy


def _strictly_convex_ccw(v: np.ndarray) -> bool:
    """Each vertex lies strictly left of each edge that it does not end.

    That rules out CW order, a repeated or collinear vertex, a dent and a double winding.
    """
    n = len(v)
    cross = _edge_cross(v, v)[1]
    ends = np.eye(n, dtype=bool) | np.roll(np.eye(n, dtype=bool), 1, axis=1)
    return bool((cross[~ends] > 0).all())


def minkowski_sum(p: Body, q: Body, eps: float) -> Body:
    """P + eps*Q; exact interval arithmetic or hull of pairwise vertex sums."""
    if eps < 0:
        raise ConfigurationError("need eps >= 0")
    if eps == 0:
        return p
    if p.ndim != q.ndim:
        raise ConfigurationError("dimension mismatch between bodies")
    if p.ndim == 1:
        pv, qv = p.vertex_array[:, 0], q.vertex_array[:, 0]
        return Body([[pv[0] + eps * qv[0]], [pv[1] + eps * qv[1]]])
    sums = (p.vertex_array[:, None, :] + eps * q.vertex_array[None, :, :]).reshape(-1, 2)
    from scipy.spatial import ConvexHull

    hull = ConvexHull(sums)
    return Body(tuple(map(tuple, sums[hull.vertices])))  # ConvexHull orders CCW in 2d


@dataclass(frozen=True)
class ClassBody:
    """The class body P with its perturbation body Q."""

    p_body: Body
    q_body: Body

    def __post_init__(self):
        if self.p_body.ndim != self.q_body.ndim:
            raise ConfigurationError("P and Q must have the same dimension")
        origin = np.zeros((1, self.p_body.ndim))
        # 0 strictly inside Q: shrink slightly and test
        if not self.q_body.contains(origin, tol=-1e-9)[0]:
            raise ConfigurationError("0 must lie strictly inside the perturbation body Q")

    @property
    def ndim(self) -> int:
        return self.p_body.ndim

    @property
    def volume(self) -> float:
        return self.p_body.volume()

    def perturbed(self, eps: float) -> Body:
        return minkowski_sum(self.p_body, self.q_body, eps)


def default_class_body(ndim: int) -> ClassBody:
    """P = unit interval/square, Q = symmetric body of half-width 1."""
    if ndim == 1:
        return ClassBody(Body([[0.0], [1.0]]), Body([[-1.0], [1.0]]))
    if ndim == 2:
        p = Body([(0, 0), (1, 0), (1, 1), (0, 1)])
        q = Body([(-1, -1), (1, -1), (1, 1), (-1, 1)])
        return ClassBody(p, q)
    raise ConfigurationError("dimension must be 1 or 2")


@dataclass(frozen=True)
class EpsilonFamily:
    """The family P_eps = P + eps*Q as per-eps moment grids, compared by base, schedule, cells.

    ``stack`` is the ``GridStack`` of the per-eps grids, each on its body,
    and, last, the base grid of the limiting body P at the same cells: one
    forward transform onto all of them and one reduction of the endpoint
    formula read it, and nothing about the grids is rebuilt per call.
    ``grids``, ``base_grid`` and ``volumes`` are read off it.
    """

    base: ClassBody
    schedule: tuple
    cells: tuple
    stack: GridStack = field(compare=False)

    @property
    def grids(self) -> tuple:
        return self.stack.grids[:-1]

    @property
    def base_grid(self) -> MomentGrid:
        return self.stack.grids[-1]

    @property
    def volumes(self) -> tuple:
        return self.stack.volumes[:-1]


def epsilon_family(base: ClassBody, cells, schedule=None) -> EpsilonFamily:
    """The grids of P + eps*Q for each eps of ``schedule`` (``DEFAULT_SCHEDULE`` by default).

    The schedule must hold two or more strictly decreasing positive numbers.
    Every grid has the cells of the base grid of P, and the family's stack
    is built here, once.
    """
    schedule = DEFAULT_SCHEDULE if schedule is None else tuple(float(e) for e in schedule)
    # two entries at least: the limit route fits a line through the schedule
    if len(schedule) < 2 or any(e <= 0 for e in schedule) or any(
        a <= b for a, b in zip(schedule, schedule[1:])
    ):
        raise ConfigurationError(
            "epsilon schedule must be two or more strictly decreasing positive numbers")
    base_grid = moment_grid(base.p_body, cells)
    grids = [moment_grid(base.perturbed(e), base_grid.cells) for e in schedule]
    return EpsilonFamily(base, schedule, base_grid.cells, grid_stack(grids + [base_grid]))
