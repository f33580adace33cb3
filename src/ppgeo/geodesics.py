"""Weak geodesics between potentials and the curve-level inequalities.

In the invariant model the weak geodesic is exactly the affine interpolation
of the Legendre duals; all curve properties (convexity in t, the Lipschitz
bound, degeneracy of the space-time Monge-Ampère operator, the chord bound)
are certified a posteriori instead of solving a space-time envelope problem.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .duality import DualPotential, conjugate_nd, gradient, second_differences
from .grids import ConfigurationError, SpatialGrid

# the times at which curve_checks samples the primal curve
T_SAMPLES = np.linspace(0.0, 1.0, 17)
# velocity_spatial: a dual maximizer set spanning more than this many cells
# is a tie, and quotients may decrease in t by this much relative to the
# largest dual difference before convexity counts as violated
TIE_CELLS = 3
QUOTIENT_RTOL = 1e-9


class ConvexityViolationError(ValueError):
    """Difference quotients failed to be monotone in t."""


@dataclass(frozen=True)
class GeodesicCurve:
    """t -> u_t with dual values (1-t) u0* + t u1*."""

    u0: DualPotential
    u1: DualPotential

    def __post_init__(self):
        if self.u0.grid != self.u1.grid:
            raise ConfigurationError("geodesic endpoints need a common moment grid")

    @property
    def grid(self):
        return self.u0.grid

    @property
    def body(self):
        return self.u0.body

    def dual_at(self, t: float) -> np.ndarray:
        """(1-t) u0* + t u1* with 0 * inf = 0: u0 at t=0, u1 at t=1."""
        return _weigh(1.0 - t, self.u0.values) + _weigh(t, self.u1.values)

    def potential_at(self, t: float) -> DualPotential:
        return DualPotential(self.body, self.grid, self.dual_at(t),
                             provenance="geodesic")

    def primal_at(self, t: float, grid: SpatialGrid) -> np.ndarray:
        return conjugate_nd(self.dual_at(t), self.grid.axes(), grid.axes())

    def dual_difference(self) -> np.ndarray:
        """u1* - u0* per moment node; the dual-cell velocity, 0 where both are +inf."""
        both = np.isposinf(self.u0.values) & np.isposinf(self.u1.values)
        return np.where(both, 0.0, self.u1.values) - np.where(both, 0.0, self.u0.values)

    def subcurve(self, t: float) -> "GeodesicCurve":
        """The geodesic from u0 to u_t (dual-affinity makes this exact)."""
        return GeodesicCurve(self.u0, self.potential_at(t))

    def reversed(self) -> "GeodesicCurve":
        return GeodesicCurve(self.u1, self.u0)


def _weigh(w: float, values: np.ndarray) -> np.ndarray:
    """w * values, where a zero weight also zeroes the +inf nodes."""
    return w * (np.where(np.isinf(values), 0.0, values) if w == 0 else values)


def geodesic(u0: DualPotential, u1: DualPotential) -> GeodesicCurve:
    """Weak geodesic between two finite-dual potentials."""
    return GeodesicCurve(u0, u1)


def velocity(curve: GeodesicCurve, end: int = 0) -> np.ndarray:
    """Velocity transported to the dual cells; sign per endpoint convention.

    The raw dual difference d* = u1* - u0* is the t-derivative of the dual
    interpolation; at end 0 the primal velocity at the cell's gradient image
    is -d*, at end 1 it is +d* with the roles of the measures exchanged.
    The d_p integrands use |d*| and need no sign.
    """
    if end not in (0, 1):
        raise ConfigurationError("end must be 0 or 1")
    d = curve.dual_difference()
    return -d if end == 0 else d


def velocity_spatial(curve: GeodesicCurve, end: int, t_steps, grid: SpatialGrid):
    """Difference quotients of the primal curve at small t, with tie report.

    Returns (limit, quotients, tie_mask).  Quotients must be monotone
    nondecreasing as t grows (convexity in t); the returned limit is the
    quotient at the smallest step.  Nodes whose dual maximizer set spans
    more than ``TIE_CELLS`` grid cells are flagged: the spatial velocity is
    set-valued there and only the dual-cell velocity is meaningful.
    """
    t_steps = sorted(float(t) for t in t_steps)
    if not t_steps or t_steps[0] <= 0 or t_steps[-1] >= 1:
        raise ConfigurationError("t_steps must lie strictly inside (0, 1)")
    base = curve.reversed() if end == 1 else curve
    p0 = base.primal_at(0.0, grid)
    d = np.abs(base.dual_difference())
    scale = max(1.0, float(d[np.isfinite(d)].max(initial=0.0)))
    quotients = []
    for t in t_steps:
        quotients.append((base.primal_at(t, grid) - p0) / t)
    for q_small, q_big in zip(quotients, quotients[1:]):
        worst = float((q_big - q_small).min())
        if worst < -QUOTIENT_RTOL * scale:
            raise ConvexityViolationError(
                f"difference quotients decrease in t by {-worst:.3e}"
            )
    tie_mask = _tie_nodes(base.u0, grid)
    return quotients[0], quotients, tie_mask


def _tie_nodes(u: DualPotential, grid: SpatialGrid) -> np.ndarray:
    """Nodes where the dual argmax set spans more than ``TIE_CELLS`` cells."""
    nodes = u.grid.nodes()
    vals = u.values.ravel()
    finite = np.isfinite(vals)
    nodes_f, vals_f = nodes[finite], vals[finite]
    pts = grid.nodes()
    h = min(u.grid.spacing)
    tol = 1e-9 * max(1.0, float(np.abs(vals_f).max()))
    out = np.zeros(pts.shape[0], dtype=bool)
    step = max(1, 2**22 // max(1, nodes_f.shape[0]))
    for s in range(0, pts.shape[0], step):
        block = pts[s : s + step] @ nodes_f.T - vals_f[None, :]
        top = block.max(axis=1, keepdims=True)
        near = block >= top - tol
        # spread of the maximizer set, measured in grid cells
        for axis in range(u.grid.ndim):
            coord = nodes_f[:, axis]
            lo = np.where(near, coord[None, :], np.inf).min(axis=1)
            hi = np.where(near, coord[None, :], -np.inf).max(axis=1)
            out[s : s + step] |= (hi - lo) > TIE_CELLS * u.grid.spacing[axis]
    return out.reshape(grid.shape)


def curve_checks(curve: GeodesicCurve, grid: SpatialGrid) -> dict:
    """Certify the curve a posteriori; report-only.

    (a) chord bound u_t <= (1-t) u0 + t u1, (b) the Lipschitz bound with
    constant sup|u0 - u1|, (c) joint convexity of (x, t) -> u_t(x),
    (d) degeneracy of the space-time Monge-Ampère operator.
    """
    ts = T_SAMPLES
    samples = np.stack([curve.primal_at(t, grid) for t in ts], axis=-1)
    p0, p1 = samples[..., 0], samples[..., -1]

    chord_slack = 0.0
    for i, t in enumerate(ts):
        bound = (1 - t) * p0 + t * p1
        chord_slack = max(chord_slack, float((samples[..., i] - bound).max()))

    sup_diff = float(np.abs(p0 - p1).max())
    # the exact modulus for dual-affine interpolation; the primal samples
    # can miss the sup between nodes by O(h)
    d = curve.dual_difference()
    lip_bound = float(np.abs(d[np.isfinite(d)]).max())
    lip = 0.0
    for i in range(len(ts)):
        for j in range(i + 1, len(ts)):
            dt = ts[j] - ts[i]
            lip = max(lip, float(np.abs(samples[..., j] - samples[..., i]).max()) / dt)

    # size of the most negative second difference over space-time axes and
    # diagonals; 0.0 (not -0.0) when none is negative
    violation = max(0.0, -min(float(d.min()) for d in second_differences(samples)))

    dt = ts[1] - ts[0]
    ma_residual = _spacetime_ma_residual(samples, grid, dt)

    return {
        "chord_slack": chord_slack,
        "lipschitz_measured": lip,
        "lipschitz_bound": lip_bound,
        "convexity_violation": violation,
        "spacetime_ma_residual": ma_residual,
        "endpoint_sup_difference": sup_diff,
    }


def _spacetime_ma_residual(samples: np.ndarray, grid: SpatialGrid, dt: float) -> float:
    """Area of the space-time gradient image (weak Monge-Ampère mass).

    For a solution of the homogeneous space-time equation the joint
    gradient (u_x, ..., u_t) stays on an n-dimensional graph, so the volume
    it sweeps in the (n+1)-dimensional slope space vanishes.  Pointwise
    determinants of second differences cannot see this through the kinks of
    piecewise-affine potentials, so the mass is measured as the volume of
    slope cells the gradient cloud occupies at the grid's own resolution,
    which decays linearly in the spacing for true geodesics and stays O(1)
    for paths that leave the geodesic.
    """
    inner = (slice(1, -1),) * samples.ndim
    cloud = gradient(samples, grid.spacing + (dt,))[inner].reshape(-1, samples.ndim)
    lo = cloud.min(axis=0)
    hi = cloud.max(axis=0)
    span = np.maximum(hi - lo, 1e-30)
    cap = 4096 if cloud.shape[1] == 2 else 192
    k = max(8, min(cap, grid.shape[0] - 2))
    idx = np.minimum((cloud - lo) / span * k, k - 1).astype(int)
    flat = np.zeros(k ** cloud.shape[1], dtype=bool)
    flat[np.ravel_multi_index(idx.T, (k,) * cloud.shape[1])] = True
    return float(flat.sum() * np.prod(span / k))
