"""Distance computations: the perturbation-family limit, the endpoint
formula, an independent dual oracle, the energy route for p=1, and the
extension to singular (finite-energy) potentials by truncation.  The
routes from obstacles read only their envelope duals, f* on each body's
cells (``to_duals``: one transform per obstacle for all the moment grids).

Every distance integral is evaluated on dual cells (the velocity is the
dual difference per cell), never by sampling velocities at spatial atoms:
mass concentrates exactly at gradient ties, where spatial velocities are
set-valued, while the dual-cell pairing is unambiguous.  The endpoint
formula is one quadrature over the positive-weight cells, written once
(``_dp_endpoints``): ``dp_limit`` prices its whole eps-table and the
limit pair in one reduction of it and ``dp_endpoint`` is its one-pair case.
``dp_dual_oracle`` re-adds the same terms with ``math.fsum`` as its
independent check.
"""
from __future__ import annotations

import csv
import io
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .bodies import EpsilonFamily
from .duality import DualPotential, SampledFunction, convexify_moment_values, to_duals
from .envelopes import rooftop
from .grids import ConfigurationError, MomentGrid, SpatialGrid, check_p
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
    fit_residual: float | None = None
    last_increment: float | None = None
    converged: bool = True
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
    return _dp_endpoints([u0], [u1], p)[0]


def _dp_endpoints(duals0, duals1, p: float) -> list[float]:
    """The endpoint formula on each pair (duals0[i], duals1[i]), all pairs in one reduction.

    The terms of every pair's positive-weight cells form one array, so the
    checks, differences and powers run once.  Each pair's distance is then
    the sum over its own cells, rooted as a scalar: bit for bit the pair on
    its own, whatever the other pairs and their masks.
    """
    if any(a.grid != b.grid for a, b in zip(duals0, duals1)):
        raise ConfigurationError("dp_endpoint needs a common moment grid")
    # the positive-weight cells are the body's cells, its grid's mask
    pos = np.concatenate([u.grid.mask.ravel() for u in duals0])
    w = np.concatenate([u.grid.weights.ravel() for u in duals0])[pos]
    v0, v1 = (np.concatenate([u.values.ravel() for u in us])[pos] for us in (duals0, duals1))
    if not (np.isfinite(v0).all() and np.isfinite(v1).all()):
        for u in (*duals0, *duals1):
            require_minimal_singularities(u)  # raises for the first singular dual
    check_p(p)
    terms = w * np.abs(v1 - v0) ** p
    ends = list(itertools.accumulate(np.count_nonzero(u.grid.mask) for u in duals0))
    return [float((terms[a:b].sum() / u.body.volume()) ** (1.0 / p))
            for a, b, u in zip([0, *ends], ends, duals0)]


def dp_dual_oracle(u0: DualPotential, u1: DualPotential, p: float) -> float:
    """Same quadrature through an independent accumulation path (fsum)."""
    if u0.grid != u1.grid:
        raise ConfigurationError("dp_dual_oracle needs a common moment grid")
    require_minimal_singularities(u0)
    require_minimal_singularities(u1)
    check_p(p)
    vol = u0.body.volume()
    # Python floats round like numpy float64 scalars and loop several times faster
    w, a, b = (x.ravel().tolist() for x in (u0.grid.weights, u0.values, u1.values))
    terms = [wj * abs(bj - aj) ** p for wj, aj, bj in zip(w, a, b) if wj > 0.0]
    return (math.fsum(terms) / vol) ** (1.0 / p)


def dp_fixed_body(f0: SampledFunction, f1: SampledFunction, grid: MomentGrid,
                  p: float) -> float:
    """Distance within the grid's body: envelope duals first, then the dual cells."""
    return dp_endpoint(*(to_duals(f, [grid])[0] for f in (f0, f1)), p)


def dp_limit(f0: SampledFunction, f1: SampledFunction, family: EpsilonFamily,
             p: float) -> DistanceReport:
    """The limit distance: table of d_{p,eps}, affine extrapolation to 0.

    Each obstacle is transformed once onto every grid of the family and the
    family's base grid, whose duals (the last ones) give the cross-route.
    The table's distances and the limit pair's endpoint distance are one
    ``_dp_endpoints`` reduction over the stacked duals, each equal bit for
    bit to ``dp_endpoint`` on its pair.
    """
    grids = family.grids + (family.base_grid,)
    duals0, duals1 = to_duals(f0, grids), to_duals(f1, grids)
    *d_eps, d_end = _dp_endpoints(duals0, duals1, p)
    table = list(zip(family.schedule, family.volumes, d_eps))
    eps_arr = np.array([row[0] for row in table])
    d_arr = np.array(d_eps)
    # affine fit in eps on the last 3 schedule points
    coeffs, res = _affine_fit(eps_arr[-3:], d_arr[-3:])
    value = float(coeffs[0])
    increments = np.abs(np.diff(d_arr))
    # settled when the tail step is the smallest and well below the largest
    converged = bool(
        increments.size < 2
        or (
            increments[-1] <= increments.min() + 1e-15
            and increments[-1] <= 0.5 * increments.max()
        )
    )
    # cross-route deviation against the limiting-class endpoint formula
    d_oracle = dp_dual_oracle(duals0[-1], duals1[-1], p)
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


def _affine_fit(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float]:
    a = np.stack([np.ones_like(x), x], axis=1)
    coeffs, res, *_ = np.linalg.lstsq(a, y, rcond=None)
    residual = float(np.sqrt(res[0])) if res.size else 0.0
    return coeffs, residual


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
    are controlled by I_p between consecutive truncations.
    """
    table = []
    trunc_prev = None
    increments = []
    ip_bounds = []
    for cap in SINGULAR_CAPS:
        t0 = truncate_dual(u0, cap)
        t1 = truncate_dual(u1, cap)
        d = dp_endpoint(t0, t1, p)
        if trunc_prev is not None:
            s0, s1, d_prev = trunc_prev
            increments.append(abs(d - d_prev))
            ip_bounds.append(
                i_p(s0, t0, p) ** (1.0 / p) + i_p(s1, t1, p) ** (1.0 / p)
            )
        trunc_prev = (t0, t1, d)
        # the table's middle column holds the (fixed) class volume here
        table.append((cap, u0.body.volume(), d))
    return DistanceReport(
        p=p,
        value=table[-1][2],
        route="singular_limit",
        table=table,
        last_increment=increments[-1],
        # settled when the last of the four increments does not grow
        converged=increments[-1] <= increments[-2] + 1e-12,
        cross_route={"cauchy_bounds": ip_bounds, "increments": increments},
    )

