"""Constrained convex envelopes, rooftops, contact sets, measure identity.

Envelopes are computed through the dual: ``envelope_dual`` restricts the
conjugate f* to the body, which is all the distance routes read, and
``envelope`` transforms back to the primal and its contact set, exactly in
1d (the obstacle's lower hull, slopes clamped to the body interval) and
over a slope grid refined ``REFINE`` times in 2d.  The envelope measure is
``ma_density`` of that primal in every dimension (in 1d the clamped hull's
atoms).  ``iterative_envelope`` (convexify and clip under f) is the oracle.
"""
from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field

import numpy as np

from .bodies import Body
from .duality import (
    DualPotential,
    PrimalPotential,
    clamped_hull,
    conjugate_nd,
    convexify,
    second_differences,
)
from .grids import ConfigurationError, MomentGrid, SampledFunction, SpatialGrid, tensor_nodes
from .measures import hessian_density, ma_density

# slope-grid refinement of the 2d envelope primal
REFINE = 16
# iterative_envelope stops after this many rounds or below this change
ITERATIVE_MAX_ITERS = 200
ITERATIVE_TOL = 1e-12


def estimate_hessian_bound(f: SampledFunction) -> float:
    """Largest discrete second difference of the obstacle, per unit area."""
    axis_diffs = itertools.islice(second_differences(f.values), f.grid.ndim)
    return max(float(np.max(np.abs(d))) / h**2 for d, h in zip(axis_diffs, f.grid.spacing))


def contact_tolerance(spacing: float, hessian_bound: float) -> float:
    """Separation threshold for the contact set.

    An obstacle with curvature <= C separates from a tangent line like
    C*d^2/2, so a threshold of 2.5*C*h^2 confines spurious contact to a
    band a few cells wide around each true contact point; anything looser
    inflates the contact set (and the measure carried on it) like the
    square root of the threshold.
    """
    return 2.5 * hessian_bound * spacing**2 + 1e-9


@dataclass(frozen=True)
class EnvelopeRecord:
    obstacle: SampledFunction
    body: Body
    primal: PrimalPotential
    dual: DualPotential
    contact_mask: np.ndarray = field(compare=False)
    hessian_bound: float = np.inf
    contact_tol: float = 0.0


def envelope(f: SampledFunction, body: Body, grid: MomentGrid,
             hessian_bound: float | None = None) -> EnvelopeRecord:
    """Largest convex function <= f with slopes in the body.

    Dual route: P(f) = sup_{p in body} (<p,x> - f*(p)).
    """
    dual = envelope_dual(f, body, grid)
    c_f = estimate_hessian_bound(f) if hessian_bound is None else float(hessian_bound)
    primal_vals = _primal_with_vertex_slopes(f, body, grid)
    primal = PrimalPotential(f.grid, primal_vals, body=body, provenance=f.provenance)
    tol = contact_tolerance(max(f.grid.spacing), c_f)
    contact = primal.values >= f.values - tol
    if not contact.any():
        warnings.warn(
            "empty contact set: obstacle growth does not match the body "
            "(envelope dominated by box boundary artifacts)",
            stacklevel=2,
        )
    return EnvelopeRecord(f, body, primal, dual, contact, c_f, tol)


def envelope_dual(f: SampledFunction, body: Body, grid: MomentGrid) -> DualPotential:
    """The envelope's dual: f* on the body's moment cells, +inf elsewhere."""
    if not isinstance(f.grid, SpatialGrid):
        raise ConfigurationError("the obstacle must live on a spatial grid")
    if f.has_infinite:
        raise ConfigurationError("the obstacle must be finite")
    if f.grid.ndim != grid.ndim:
        raise ConfigurationError("the obstacle and the moment grid differ in dimension")
    star = conjugate_nd(f.values, f.grid.axes(), grid.axes())
    return DualPotential(body, grid, np.where(grid.mask, star, np.inf), provenance=f.provenance)


def _fine_slope_axes(body: Body, grid: MomentGrid) -> list[np.ndarray]:
    """Refined slope axes over a 2d body's box, vertex coordinates included.

    Cell-center slopes alone miss the extreme slopes of the body, which
    shows up as an O(h) tilt on flat regions; since f* can be evaluated at
    arbitrary slopes, the grid is refined and the per-axis vertex
    coordinates are added exactly.  1d envelopes need no slope grid.
    """
    verts = body.vertex_array
    lo, hi = body.bounding_box()
    axes = []
    for i in range(grid.ndim):
        fine = np.linspace(lo[i], hi[i], REFINE * grid.cells[i] + 1)
        axes.append(np.sort(np.unique(np.concatenate([fine, verts[:, i]]))))
    return axes


def _primal_with_vertex_slopes(f: SampledFunction, body: Body, grid: MomentGrid) -> np.ndarray:
    """sup over slopes q in the body of (<q,x> - f*(q)) on the obstacle's nodes."""
    if grid.ndim == 1:
        (a,), (b,) = body.bounding_box()
        return clamped_hull(f.grid.axes()[0], f.values, a, b)
    axes = _fine_slope_axes(body, grid)
    star = conjugate_nd(f.values, f.grid.axes(), axes)
    inside = body.contains(tensor_nodes(axes)).reshape(star.shape)
    star = np.where(inside, star, np.inf)
    return conjugate_nd(star, axes, f.grid.axes())


def iterative_envelope(f: SampledFunction, start: PrimalPotential) -> PrimalPotential:
    """Cross-check oracle: repeated convexify-and-clip under the obstacle.

    Converges to the unconstrained convex envelope of min(f, start-route
    envelope); starting from the dual-route result it verifies fixpointness.
    """
    vals = np.minimum(start.values, f.values)
    grid = f.grid
    for _ in range(ITERATIVE_MAX_ITERS):
        hulled = convexify(SampledFunction(grid, vals), body=start.body).values
        if np.max(np.abs(hulled - vals)) < ITERATIVE_TOL:
            break
        vals = hulled
    return PrimalPotential(grid, vals, body=start.body, provenance=f.provenance)


def rooftop(u: DualPotential, v: DualPotential) -> DualPotential:
    """Largest potential below both: dual values are the pointwise max."""
    if u.grid != v.grid:
        raise ConfigurationError("rooftop needs a common moment grid")
    return DualPotential(u.body, u.grid, np.maximum(u.values, v.values),
                         provenance="rooftop")


def multi_rooftop(potentials: list[DualPotential]) -> DualPotential:
    """Largest potential below all of the inputs (pointwise max of duals)."""
    if not potentials:
        raise ConfigurationError("multi_rooftop needs a nonempty list")
    out = potentials[0]
    for q in potentials[1:]:
        out = rooftop(out, q)
    return out


def measure_identity_residual(rec: EnvelopeRecord) -> float:
    """L1 defect of MA(P(f)) = 1_{P(f)=f} MA(f), both sides as Hessian densities.

    The left side is ``ma_density`` of the envelope primal (in 1d the clamped
    hull's atoms; border nodes carry 0), so a small residual certifies that
    the envelope's measure lives on the contact set and agrees with f's there.
    """
    rho_env = ma_density(rec.primal).density
    # the obstacle need not be convex; compute its density field directly
    rho_f = np.maximum(hessian_density(rec.obstacle.values, rec.obstacle.grid), 0.0)
    cell = float(np.prod(rec.primal.grid.spacing))
    return float(np.sum(np.abs(rho_env - rec.contact_mask * rho_f)) * cell)

