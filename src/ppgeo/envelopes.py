"""Constrained convex envelopes, rooftops, contact sets, measure identity.

Envelopes are computed through the dual.  The envelope's dual is f*
restricted to the body's cells, which is all the distance routes read; they
take it from ``to_duals``.  ``envelopes`` adds the primal and its contact
set for the moment grids of a ``GridStack``, each on the body it keeps,
exactly in every dimension from the obstacle's lower hull, found once for
all the grids, beside one ``to_duals`` call on the stack: in 1d the hull
clamped to the body's slopes, in 2d the planes of the lower facets whose
slopes lie in the body, maxed with that 1d rule along each body edge.
Obstacle and envelope primal are both ``SampledFunction``s on the
obstacle's spatial grid.  The envelope measure is ``ma_density`` of that
primal (in 1d the clamped hull's atoms).
``iterative_envelope``, one convexification of min(start, f), is the oracle.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace

import numpy as np

from .bodies import Body
from .duality import (
    DualPotential,
    SampledFunction,
    clamped_hull,
    convexify_moment_values,
    lower_facets,
    lower_hull,
    max_affine,
    second_differences,
    to_duals,
)
from .grids import GridStack, MomentGrid, check_body, common_grid
from .measures import ma_density


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
    primal: SampledFunction
    dual: DualPotential
    contact_mask: np.ndarray = field(compare=False)
    hessian_bound: float
    contact_tol: float


def envelopes(f: SampledFunction, stack: GridStack,
              hessian_bound: float | None) -> list[EnvelopeRecord]:
    """The envelope of f over each stacked grid's body: one ``to_duals`` call, one hull of f."""
    duals = to_duals(f, stack)
    c_f = estimate_hessian_bound(f) if hessian_bound is None else float(hessian_bound)
    tol = contact_tolerance(max(f.grid.spacing), c_f)
    # every body reads the obstacle's lower hull (in 2d its lower facets), found once
    if f.grid.ndim == 1:
        hull = lower_hull(f.grid.axes()[0], f.values)
    else:
        hull = lower_facets(f.grid.nodes(), f.values.ravel())
    records = []
    for dual in duals:
        primal = SampledFunction(f.grid, _primal_from_hull(f, dual.body, hull),
                                 f.provenance)
        records.append(EnvelopeRecord(f, primal, dual, primal.values >= f.values - tol, c_f, tol))
    return records


def envelope(f: SampledFunction, body: Body, grid: MomentGrid,
             hessian_bound: float | None = None) -> EnvelopeRecord:
    """Largest convex function <= f with slopes in the body.

    Dual route: P(f) = sup_{p in body} (<p,x> - f*(p)); ``body`` must be the grid's body.
    """
    check_body(body, grid)
    return envelopes(f, grid.stack, hessian_bound)[0]


def _primal_from_hull(f: SampledFunction, body: Body, hull) -> np.ndarray:
    """sup over slopes q in the body of (<q,x> - f*(q)) on the obstacle's nodes, exactly.

    ``hull`` is the obstacle's ``lower_hull`` in 1d, which ``clamped_hull``
    clamps to the body's slope interval, and its ``lower_facets`` in 2d.
    There the concave, piecewise affine q -> <q,x> - f*(q) peaks on the body's
    boundary or at a lower-facet slope g inside it, where f*(g) = -c is the
    facet's offset: the sup is the max of those facets' planes and, per body
    edge [a, b], the 1d rule on the edge, <a,x> plus the hull of
    (<b - a, x_i>, f_i - <a, x_i>) clamped to slopes in [0, 1].
    """
    if f.grid.ndim == 1:
        (a,), (b,) = body.bounding_box()
        return clamped_hull(f.grid.axes()[0], hull, a, b)
    x, v = f.grid.nodes(), f.values.ravel()
    slopes, offsets, vertices = hull
    inside = body.contains(slopes)
    out = max_affine(x, slopes[inside], offsets[inside])
    xh, vh, corners = x[vertices], v[vertices], body.vertex_array
    for a, b in zip(corners, np.roll(corners, -1, axis=0)):
        s, w = xh @ (b - a), vh - xh @ a
        order = np.lexsort((w, s))
        first = order[np.unique(s[order], return_index=True)[1]]  # lowest value per projection
        edge = clamped_hull(x @ (b - a), lower_hull(s[first], w[first]), 0.0, 1.0)
        out = np.maximum(out, x @ a + edge)
    return out.reshape(f.grid.shape)


def iterative_envelope(f: SampledFunction, start: SampledFunction) -> SampledFunction:
    """Cross-check oracle: the hull of min(start, f), a fixpoint after one exact pass.

    From the dual-route envelope it checks that the envelope is convex and below f.
    """
    return replace(start, values=convexify_moment_values(f.grid, np.minimum(start.values, f.values)))


def rooftop(u: DualPotential, *others: DualPotential) -> DualPotential:
    """Largest potential below all of the inputs: dual values are the pointwise max."""
    common_grid("rooftop", u, *others)
    values = np.maximum.reduce([u.values] + [v.values for v in others])
    return DualPotential(u.body, u.grid, values, provenance="rooftop")


def measure_identity_residual(rec: EnvelopeRecord) -> float:
    """L1 defect of MA(P(f)) = 1_{P(f)=f} MA(f), both sides as Hessian densities.

    The left side is ``ma_density`` of the envelope primal (in 1d the clamped
    hull's atoms; border nodes carry 0), so a small residual certifies that
    the envelope's measure lives on the contact set and agrees with f's there.
    """
    rho_env = ma_density(rec.primal).density
    # the obstacle need not be convex: its density is clamped at 0 like the envelope's
    rho_f = ma_density(rec.obstacle).density
    cell = float(np.prod(rec.primal.grid.spacing))
    return float(np.sum(np.abs(rho_env - rec.contact_mask * rho_f)) * cell)

