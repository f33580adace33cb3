"""Distance computations: the perturbation-family limit, the endpoint
formula, an independent dual oracle, the energy route for p=1, and the
extension to singular (finite-energy) potentials by truncation.  The
routes from obstacles read only their envelope duals, f* on each body's
cells, as the stacked values of one transform per obstacle for all the
moment grids (``duality._dual_values``); no dual is built to price them.

Every distance integral is evaluated on dual cells (the velocity is the
dual difference per cell), never by sampling velocities at spatial atoms:
mass concentrates exactly at gradient ties, where spatial velocities are
set-valued, while the dual-cell pairing is unambiguous.  The endpoint
formula is one quadrature over the positive-weight cells, written once
(``_dp_endpoints``, on stacked values): ``dp_limit`` prices its whole
eps-table and the limit pair in one reduction of its two transforms, and
``dp_endpoint`` is its one-pair case, which checks that both duals are
finite on their body.  The cells, weights, block ends and volumes it sums
with come from a ``grids.GridStack`` built with the grids (the family's
for ``dp_limit``, the grid's own for ``dp_endpoint``), never per call.
``dp_dual_oracle`` re-adds the same terms with libm's ``pow`` and
``math.fsum`` as its independent check.
"""
from __future__ import annotations

import csv
import io
import itertools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .bodies import EpsilonFamily
from .duality import DualPotential, SampledFunction, _dual_values, convexify_moment_values
from .envelopes import rooftop
from .grids import GridStack, MomentGrid, SpatialGrid, check_p, common_grid
from .measures import energy, i_p, require_minimal_singularities

FORMAT_VERSION = 1
CSV_HEADER = ["route", "p", "epsilon", "V_eps", "d_p_eps", "extrapolated", "residual"]
# the increasing truncation caps of the singular route
SINGULAR_CAPS = (2.0, 4.0, 8.0, 16.0, 32.0)


def sig12(x):
    """Round floats (recursively) to 12 significant digits for stable output."""
    if isinstance(x, (float, np.floating)):
        return float(f"{float(x):.12g}")
    if isinstance(x, dict):
        return {k: sig12(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [sig12(v) for v in x]
    return x


@dataclass
class DistanceReport:
    p: float
    value: float
    route: str
    table: list = field(default_factory=list)  # (epsilon, V_eps, d_p_eps)
    # None where nothing was tested: an exactly determined fit has no residual,
    # and a closed formula (endpoint, oracle, energy) no sequence to settle
    fit_residual: float | None = None
    last_increment: float | None = None
    converged: bool | None = None
    cross_route: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """The JSON payload; ``ppgeo distance`` prints it to 12 digits."""
        return {
            "format_version": FORMAT_VERSION,
            "route": self.route,
            "p": self.p,
            "value": self.value,
            "table": [
                {"epsilon": e, "V_eps": v, "d_p_eps": d} for e, v, d in self.table
            ],
            "fit_residual": self.fit_residual,
            "last_increment": self.last_increment,
            "converged": self.converged,
            "cross_route": self.cross_route,
        }

    def to_csv(self) -> str:
        """The table as CSV, floats to 12 digits like the JSON payload."""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        rows = self.table if self.table else [("", "", self.value)]
        for eps, veps, d in rows:
            writer.writerow(sig12(
                [self.route, self.p, eps, veps, d, self.value,
                 "" if self.fit_residual is None else self.fit_residual]
            ))
        return buf.getvalue()


def dp_endpoint(u0: DualPotential, u1: DualPotential, p: float) -> float:
    """((1/vol) sum_{w_j > 0} w_j |u1*(p_j) - u0*(p_j)|^p)^(1/p) on dual cells.

    The t=0 form (against MA(u0)) and the t=1 form (against MA(u1)) are
    the same sum over the positive-weight cells, so it is computed once;
    cells of zero weight, where a polygon's dual is +inf, never enter it.
    It is the one-pair case of ``_dp_endpoints``; ``dp_dual_oracle`` is the
    independent check.
    """
    stack = _finite_pair_grid(u0, u1, "dp_endpoint").stack
    return _dp_endpoints(stack, u0.values.ravel(), u1.values.ravel(), p)[0]


def _finite_pair_grid(u0: DualPotential, u1: DualPotential, route: str) -> MomentGrid:
    """The common moment grid of two duals that are finite on its body, or an error."""
    grid = common_grid(route, u0, u1)
    require_minimal_singularities(u0)
    require_minimal_singularities(u1)
    return grid


def _dp_endpoints(stack: GridStack, values0: np.ndarray, values1: np.ndarray,
                  p: float) -> list[float]:
    """The endpoint formula on each stacked grid's block of two dual arrays, in one reduction.

    ``values0`` and ``values1`` hold the duals on every grid's cells, grid
    after grid, each block ravelled (``duality._dual_values``), finite on
    each grid's mask.  The terms of every pair's positive-weight cells form
    one array, so the differences and powers run once; the stack holds those
    cells, their weights, the end of each pair's cells and each body's
    volume.  Each pair's distance is then the sum over its own cells, rooted
    as a scalar: bit for bit the pair on its own, whatever the other pairs
    and their masks.
    """
    check_p(p)
    if stack.pos is not None:  # the zero-weight cells, off the body, drop out
        values0, values1 = values0[stack.pos], values1[stack.pos]
    terms = stack.weights * np.abs(values1 - values0) ** p
    return [float((terms[a:b].sum() / vol) ** (1.0 / p))
            for a, b, vol in zip((0, *stack.ends), stack.ends, stack.volumes)]


def dp_dual_oracle(u0: DualPotential, u1: DualPotential, p: float) -> float:
    """Same quadrature through an independent accumulation path (fsum).

    The cells and differences are exact in numpy; each power is libm's
    ``pow`` on a Python float, and the sum is ``math.fsum``.
    """
    w = _finite_pair_grid(u0, u1, "dp_dual_oracle").weights
    check_p(p)
    pos = w > 0.0
    d = np.abs(u1.values[pos] - u0.values[pos])
    terms = map(operator.mul, w[pos].tolist(), map(pow, d.tolist(), itertools.repeat(p)))
    return (math.fsum(terms) / u0.body.volume()) ** (1.0 / p)


def dp_fixed_body(f0: SampledFunction, f1: SampledFunction, grid: MomentGrid,
                  p: float) -> float:
    """Distance within the grid's body: envelope duals first, then the dual cells."""
    return _dp_endpoints(grid.stack, _dual_values(f0, grid.stack), _dual_values(f1, grid.stack),
                         p)[0]


def dp_limit(f0: SampledFunction, f1: SampledFunction, family: EpsilonFamily,
             p: float) -> DistanceReport:
    """The limit distance: table of d_{p,eps}, affine extrapolation to 0.

    Each obstacle is transformed once onto every grid of the family and the
    family's base grid (``_dual_values`` on ``family.stack``), whose block
    (the last one) gives the cross-route.  The table's distances and the
    limit pair's endpoint distance are one ``_dp_endpoints`` reduction over
    the stacked values, each equal bit for bit to ``dp_endpoint`` on its
    pair; only the base pair becomes ``DualPotential``s, for
    ``dp_dual_oracle``.  ``converged`` needs two table increments at least:
    on a two-entry schedule it is false, and the line through the two points
    has no ``fit_residual`` (None).
    """
    values0, values1 = _dual_values(f0, family.stack), _dual_values(f1, family.stack)
    *d_eps, d_end = _dp_endpoints(family.stack, values0, values1, p)
    table = list(zip(family.schedule, family.volumes, d_eps))
    d_arr = np.array(d_eps)
    # affine fit in eps on the last 3 schedule points
    coeffs, res = _affine_fit(np.array(family.schedule[-3:]), d_arr[-3:])
    value = float(coeffs[0])
    increments = np.abs(np.diff(d_arr))
    # settled when the tail step is the smallest and well below the largest;
    # a single step has nothing to be compared with, so it shows no settling
    converged = bool(
        increments.size >= 2
        and increments[-1] <= increments.min() + 1e-15
        and increments[-1] <= 0.5 * increments.max()
    )
    # cross-route deviation against the limiting-class endpoint formula
    base, n = family.base_grid, family.base_grid.mask.size
    u0, u1 = (DualPotential(base.body, base, v[-n:].reshape(base.shape), f.provenance)
              for f, v in ((f0, values0), (f1, values1)))
    d_oracle = dp_dual_oracle(u0, u1, p)
    return DistanceReport(
        p=p,
        value=value,
        route="epsilon_limit",
        table=table,
        fit_residual=res,
        last_increment=float(increments[-1]),
        converged=converged,
        cross_route={
            "endpoint": d_end,
            "dual_oracle": d_oracle,
            "deviation_endpoint": abs(value - d_end),
            "deviation_oracle": abs(value - d_oracle),
        },
    )


def _affine_fit(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float | None]:
    """Least-squares line through (x, y) and its residual norm, None for two points.

    Two points determine the line exactly, so ``lstsq`` returns no residual
    and the fit tests nothing.
    """
    a = np.stack([np.ones_like(x), x], axis=1)
    coeffs, res, *_ = np.linalg.lstsq(a, y, rcond=None)
    return coeffs, float(np.sqrt(res[0])) if res.size else None


def d1_energy(u0: DualPotential, u1: DualPotential, spatial_grid: SpatialGrid) -> float:
    """d_1 via the energy: E(u0) + E(u1) - 2 E(rooftop(u0, u1))."""
    roof = rooftop(u0, u1)
    return float(
        energy(u0, spatial_grid) + energy(u1, spatial_grid) - 2.0 * energy(roof, spatial_grid)
    )


def truncate_dual(u: DualPotential, cap: float) -> DualPotential:
    """min(u*, cap), convexified: the dual of max(u, V - cap).

    The cap applies on the body's cells; off them the dual stays +inf.
    """
    capped = np.where(u.grid.mask, np.minimum(u.values, cap), np.inf)
    vals = convexify_moment_values(u.grid, capped)
    return DualPotential(u.body, u.grid, vals, provenance=f"{u.provenance}|cap={cap}")


def dp_singular(u0: DualPotential, u1: DualPotential, p: float) -> DistanceReport:
    """Distance between possibly singular duals via the increasing ``SINGULAR_CAPS``.

    The cap-M truncations decrease (in primal) to the endpoints; the
    distances between truncations form a Cauchy sequence whose increments
    are controlled by I_p between consecutive truncations.  The ladder of
    truncation pairs is built once and read twice: for the distances, then
    for the I_p bounds of consecutive rungs.
    """
    ladder = [(truncate_dual(u0, cap), truncate_dual(u1, cap)) for cap in SINGULAR_CAPS]
    distances = [dp_endpoint(t0, t1, p) for t0, t1 in ladder]
    increments = [abs(d - d_prev) for d_prev, d in zip(distances, distances[1:])]
    ip_bounds = [i_p(s0, t0, p) ** (1.0 / p) + i_p(s1, t1, p) ** (1.0 / p)
                 for (s0, s1), (t0, t1) in zip(ladder, ladder[1:])]
    # the table's middle column holds the (fixed) class volume here
    table = [(cap, u0.body.volume(), d) for cap, d in zip(SINGULAR_CAPS, distances)]
    return DistanceReport(
        p=p,
        value=distances[-1],
        route="singular_limit",
        table=table,
        last_increment=increments[-1],
        # settled when the last of the four increments does not grow
        converged=increments[-1] <= increments[-2] + 1e-12,
        cross_route={"cauchy_bounds": ip_bounds, "increments": increments},
    )

