"""Monge-Ampère measures, mixed measures, the energy functional and I_p.

Two independent discrete realizations are kept deliberately: the atomic
pushforward (``ma_atomic``: one atom per finite moment node at the dual
gradient, exact mass conservation) and the Hessian density on the spatial
grid (``ma_density``, the one second-difference determinant: it supports
pointwise comparisons, and the envelope's measure identity and the mixed
measure both read it).  Cross-checks between them guard both.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .duality import DualPotential, SampledFunction, gradient, second_differences, to_primal
from .grids import ConfigurationError, SpatialGrid, check_p, common_grid

# ma_mixed_pair: negative mixed mass allowed, as a fraction of the body volume
MIXED_NEGATIVE_TOL = 5e-3


class PolarizationError(ValueError):
    """Mixed measure came out negative beyond tolerance."""


class RequiresTruncationError(ConfigurationError):
    """Operation needs a finite dual; truncate singular inputs first."""


@dataclass(frozen=True)
class AtomicMeasure:
    """Finitely many atoms (location, mass >= 0)."""

    locations: np.ndarray = field(compare=False)
    masses: np.ndarray = field(compare=False)

    @property
    def total_mass(self) -> float:
        return float(self.masses.sum())

    def integrate(self, values_at_atoms: np.ndarray) -> float:
        return float(np.sum(self.masses * values_at_atoms))


@dataclass(frozen=True)
class DensityField:
    """Nonnegative density per spatial node; clamped negative mass recorded."""

    grid: SpatialGrid
    density: np.ndarray = field(compare=False)
    clamped_mass: float

    @property
    def total(self) -> float:
        return float(self.density.sum() * np.prod(self.grid.spacing))


def require_minimal_singularities(u: DualPotential) -> None:
    """The dual must be finite on its body; singular inputs go through truncation."""
    if not u.has_minimal_singularities:
        raise RequiresTruncationError("singular dual: truncate first (dp_singular)")


def ma_atomic(u: DualPotential) -> AtomicMeasure:
    """Pushforward of the moment-grid weights under the dual gradient.

    A finite node with no finite neighbour along an axis (a tip of a polygon's
    cells) takes that component as the mean over its neighbours that have one,
    repeated until nothing changes, so no finite cell loses its weight.
    """
    shape, n = u.grid.shape, u.grid.ndim
    g = gradient(u.values, u.grid.spacing)
    while (todo := np.isfinite(u.values)[..., None] & np.isnan(g)).any():
        padded = np.pad(g, [(1, 1)] * n + [(0, 0)], constant_values=np.nan)
        near = np.stack([padded[tuple(slice(1 + k, 1 + k + m) for k, m in zip(s, shape))]
                         for s in itertools.product((-1, 0, 1), repeat=n) if any(s)])
        count = np.sum(~np.isnan(near), axis=0)
        if not (fill := todo & (count > 0)).any():
            break
        g[fill] = np.nansum(near, axis=0)[fill] / count[fill]
    w = u.grid.weights.ravel()
    g = g.reshape(-1, n)
    keep = (w > 0) & np.isfinite(g).all(axis=1)
    return AtomicMeasure(g[keep], w[keep])


def ma_density(u: SampledFunction) -> DensityField:
    """Discrete Hessian determinant at the interior nodes, 0 on the border; negatives clamped."""
    grid, values = u.grid, u.values
    rho = np.zeros_like(values)
    inner = (slice(1, -1),) * values.ndim
    d = list(second_differences(values))
    pure = [dk / (h * h) for dk, h in zip(d, grid.spacing)]
    if values.ndim == 1:
        rho[inner] = pure[0]
    else:
        hx, hy = grid.spacing
        # v_xy from the two diagonals: d_(1,1) - d_(1,-1) is the four-corner stencil
        vxy = (d[2] - d[3]) / (4 * hx * hy)
        rho[inner] = pure[0][:, 1:-1] * pure[1][1:-1, :] - vxy * vxy
    clamped = float(np.abs(rho[rho < 0]).sum() * np.prod(grid.spacing))
    rho = np.maximum(rho, 0.0)
    return DensityField(grid, rho, clamped_mass=clamped)


def ma_mixed_pair(u: DualPotential, v: DualPotential,
                  spatial_grid: SpatialGrid) -> AtomicMeasure:
    """Mixed measure of two potentials (n=2) by midpoint polarization.

    det((A+B)/2) = det(A)/4 + D(A,B)/2 + det(B)/4 fixes the combination
    2*rho_mid - rho_u/2 - rho_v/2 for the mixed density D.
    """
    if u.grid.ndim != 2:
        raise ConfigurationError("mixed measures are defined for n=2 only")
    common_grid("ma_mixed_pair", u, v)
    pu = to_primal(u, spatial_grid)
    pv = to_primal(v, spatial_grid)
    mid = SampledFunction(spatial_grid, 0.5 * (pu.values + pv.values))
    rho_mid = ma_density(mid).density
    rho_u = ma_density(pu).density
    rho_v = ma_density(pv).density
    mixed = 2.0 * rho_mid - 0.5 * rho_u - 0.5 * rho_v
    cell = float(np.prod(spatial_grid.spacing))
    neg = float(-mixed[mixed < 0].sum() * cell)
    vol = u.body.volume()
    if neg > MIXED_NEGATIVE_TOL * vol:
        raise PolarizationError(
            f"negative mixed mass {neg:.3e} exceeds {MIXED_NEGATIVE_TOL:.1e} * vol"
        )
    mixed = np.maximum(mixed, 0.0)
    w = mixed.ravel() * cell
    keep = w > 0
    return AtomicMeasure(spatial_grid.nodes()[keep], w[keep])


def _relative_values(u: DualPotential, points: np.ndarray) -> np.ndarray:
    """u - V evaluated at points, with V the support function of the body."""
    return u.eval_primal(points) - u.body.support_many(points)


def energy(u: DualPotential, spatial_grid: SpatialGrid) -> float:
    """Volume-normalized Monge-Ampère energy; zero at the minimal potential.

    1d: E = (1/2 vol) [ int (u-V) dMA(u) + int (u-V) dMA(V) ].
    2d: the middle term integrates against the mixed measure, polarized on
    the spatial grid (which 1d does not read), so the body must fill its box.
    MA(V) is every positive cell weight at the origin: V* = 0, and each cell
    of an interval or a box has a neighbour along every axis, so the dual
    gradient is 0 at every cell, and (u-V)(0) is evaluated once.
    """
    require_minimal_singularities(u)
    body = u.body
    vol = body.volume()
    n = u.grid.ndim
    if n == 2 and not np.isclose(vol, np.prod(np.ptp(body.vertex_array, axis=0))):
        raise ConfigurationError("2d energy needs a body that fills its bounding box")
    mau = ma_atomic(u)
    w = u.grid.weights.ravel()
    terms = [
        mau.integrate(_relative_values(u, mau.locations)),
        float(np.sum(w[w > 0] * _relative_values(u, np.zeros((1, n))))),
    ]
    if n == 2:
        vzero = DualPotential(body, u.grid, np.zeros(u.grid.shape), provenance="minimal")
        mixed = ma_mixed_pair(u, vzero, spatial_grid)
        terms.insert(1, mixed.integrate(_relative_values(u, mixed.locations)))
    return float(sum(terms) / ((n + 1) * vol))


def i_p(u: DualPotential, v: DualPotential, p: float) -> float:
    """int |u - v|^p against MA(u) + MA(v), via the atomic pushforwards."""
    common_grid("i_p", u, v)
    check_p(p)
    total = 0.0
    for m in (ma_atomic(u), ma_atomic(v)):
        du = u.eval_primal(m.locations) - v.eval_primal(m.locations)
        total += m.integrate(np.abs(du) ** p)
    return float(total)
