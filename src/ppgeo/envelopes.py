"""Constrained convex envelopes, rooftops, contact sets, measure identity.

Envelopes are computed through the dual: ``envelope_dual`` restricts the
conjugate f* to the body, which is all the distance routes read, and
``envelope`` transforms back to the primal and its contact set, exactly in
1d (the obstacle's lower hull, slopes clamped to the body interval) and
over a slope grid refined ``REFINE`` times in 2d.  ``iterative_envelope``
(repeated convexify and clip under f) is the cross-check oracle.
"""
from __future__ import annotations

import itertools
import math
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
from .grids import (
    ConfigurationError,
    MomentGrid,
    SampledFunction,
    SpatialGrid,
    moment_grid,
    tensor_nodes,
)
from .measures import hessian_density, ma_atomic

# slope-grid refinement of the 2d envelope primal and of envelope densities
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


def envelope_density(rec: EnvelopeRecord) -> np.ndarray:
    """Density of the envelope's measure on the obstacle's spatial grid.

    Pushes the body's Lebesgue measure forward under the gradient of a
    refined conjugate of the obstacle and deposits the atoms onto the
    spatial cells with linear (cloud-in-cell) weights.  This avoids the
    spike noise that second differences of a slope-quantized reconstruction
    would produce.
    """
    fine = moment_grid(rec.body, tuple(REFINE * c for c in rec.dual.grid.cells))
    atoms = ma_atomic(envelope_dual(rec.obstacle, rec.body, fine))
    return _deposit(atoms.locations, atoms.masses, rec.obstacle.grid)


def _deposit(points: np.ndarray, masses: np.ndarray, grid: SpatialGrid) -> np.ndarray:
    """Cloud-in-cell deposit of weighted atoms onto a spatial node grid."""
    dens = np.zeros(grid.shape)
    pos = [(points[:, i] - grid.lo[i]) / grid.spacing[i] for i in range(grid.ndim)]
    i0 = [np.clip(np.floor(q).astype(int), 0, s - 2) for q, s in zip(pos, grid.shape)]
    fr = [np.clip(q - j, 0.0, 1.0) for q, j in zip(pos, i0)]
    for corner in itertools.product((0, 1), repeat=grid.ndim):
        w = math.prod(f if c else 1 - f for f, c in zip(fr, corner))
        np.add.at(dens, tuple(j + c for j, c in zip(i0, corner)), masses * w)
    return dens / float(np.prod(grid.spacing))


def measure_identity_residual(rec: EnvelopeRecord) -> float:
    """L1 defect of: envelope density = (contact indicator) * obstacle density.

    Small residual certifies that the envelope's measure lives on the
    contact set and agrees with the obstacle's measure there.
    """
    rho_env = envelope_density(rec)
    # the obstacle need not be convex; compute its density field directly
    rho_f = np.maximum(hessian_density(rec.obstacle.values, rec.obstacle.grid), 0.0)
    cell = float(np.prod(rec.primal.grid.spacing))
    return float(np.sum(np.abs(rho_env - rec.contact_mask * rho_f)) * cell)

