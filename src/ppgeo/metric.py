"""Distance computations: the perturbation-family limit, the endpoint
formula, an independent dual oracle, the energy route for p=1, and the
extension to singular (finite-energy) potentials by truncation.  The
routes from obstacles read only their envelope duals (``envelope_dual``).

Every distance integral is evaluated on dual cells (the velocity is the
dual difference per cell), never by sampling velocities at spatial atoms:
mass concentrates exactly at gradient ties, where spatial velocities are
set-valued, while the dual-cell pairing is unambiguous.  The endpoint
formula is one quadrature over the positive-weight cells;
``dp_dual_oracle`` re-adds the same terms with ``math.fsum`` as its
independent check.
"""
from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

import numpy as np

from .bodies import Body, EpsilonFamily
from .duality import DualPotential, convexify_moment_values
from .envelopes import envelope_dual, rooftop
from .grids import (
    ConfigurationError,
    MomentGrid,
    SampledFunction,
    SpatialGrid,
    check_p,
    moment_grid,
)
from .measures import RequiresTruncationError, energy, i_p

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
    if isinstance(x, np.integer):
        return int(x)
    if isinstance(x, np.ndarray):
        return sig12(x.tolist())
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


def _require_finite(u: DualPotential):
    if not u.has_minimal_singularities:
        raise RequiresTruncationError(
            "singular dual: use the truncation route (dp_singular)"
        )


def dp_endpoint(u0: DualPotential, u1: DualPotential, p: float) -> float:
    """((1/vol) sum_{w_j > 0} w_j |u1*(p_j) - u0*(p_j)|^p)^(1/p) on dual cells.

    The t=0 form (against MA(u0)) and the t=1 form (against MA(u1)) are
    the same sum over the positive-weight cells, so it is computed once;
    cells of zero weight, where a polygon's envelope dual is +inf, never
    enter it.  ``dp_dual_oracle`` is the independent check.
    """
    if u0.grid != u1.grid:
        raise ConfigurationError("dp_endpoint needs a common moment grid")
    _require_finite(u0)
    _require_finite(u1)
    check_p(p)
    vol = u0.body.volume()
    w = u0.grid.weights
    pos = w > 0
    d = u1.values[pos] - u0.values[pos]
    return float((np.sum(w[pos] * np.abs(d) ** p) / vol) ** (1.0 / p))


def dp_dual_oracle(u0: DualPotential, u1: DualPotential, p: float) -> float:
    """Same quadrature through an independent accumulation path (fsum)."""
    if u0.grid != u1.grid:
        raise ConfigurationError("dp_dual_oracle needs a common moment grid")
    check_p(p)
    vol = u0.body.volume()
    w = u0.grid.weights.ravel()
    a = u0.values.ravel()
    b = u1.values.ravel()
    terms = []
    for j in range(len(w)):
        if w[j] > 0.0:
            terms.append(w[j] * abs(b[j] - a[j]) ** p)
    return (math.fsum(terms) / vol) ** (1.0 / p)


def dp_fixed_body(f0: SampledFunction, f1: SampledFunction, body: Body,
                  grid: MomentGrid, p: float) -> float:
    """Distance within a fixed body: envelope duals first, then the dual cells."""
    return dp_endpoint(envelope_dual(f0, body, grid), envelope_dual(f1, body, grid), p)


def dp_limit(f0: SampledFunction, f1: SampledFunction, family: EpsilonFamily,
             p: float) -> DistanceReport:
    """The limit distance: table of d_{p,eps}, affine extrapolation to 0."""
    table = []
    for eps, body, grid, vol in zip(
        family.schedule, family.bodies, family.grids, family.volumes
    ):
        d = dp_fixed_body(f0, f1, body, grid, p)
        table.append((eps, vol, d))
    eps_arr = np.array([row[0] for row in table])
    d_arr = np.array([row[2] for row in table])
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
    report = DistanceReport(
        p=p,
        value=value,
        route="epsilon_limit",
        table=table,
        fit_residual=res,
        last_increment=float(increments[-1]) if increments.size else 0.0,
        converged=converged,
    )
    # cross-route deviation against the limiting-class endpoint formula
    base_grid = moment_grid(family.base.p_body, family.cells)
    u0 = envelope_dual(f0, family.base.p_body, base_grid)
    u1 = envelope_dual(f1, family.base.p_body, base_grid)
    d_end = dp_endpoint(u0, u1, p)
    d_oracle = dp_dual_oracle(u0, u1, p)
    report.cross_route = {
        "endpoint": d_end,
        "dual_oracle": d_oracle,
        "deviation_endpoint": abs(value - d_end),
        "deviation_oracle": abs(value - d_oracle),
    }
    return report


def _affine_fit(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float]:
    a = np.stack([np.ones_like(x), x], axis=1)
    coeffs, res, *_ = np.linalg.lstsq(a, y, rcond=None)
    residual = float(np.sqrt(res[0])) if res.size else 0.0
    return coeffs, residual


def d1_energy(u0: DualPotential, u1: DualPotential,
              spatial_grid: SpatialGrid | None = None) -> float:
    """d_1 via the energy: E(u0) + E(u1) - 2 E(rooftop(u0, u1))."""
    _require_finite(u0)
    _require_finite(u1)
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
    converged = True
    if len(increments) >= 2:
        tail = increments[-2:]
        converged = tail[1] <= tail[0] + 1e-12
    report = DistanceReport(
        p=p,
        value=table[-1][2],
        route="singular_limit",
        table=table,
        last_increment=increments[-1] if increments else 0.0,
        converged=converged,
    )
    report.cross_route = {
        "cauchy_bounds": ip_bounds,
        "increments": increments,
    }
    return report

