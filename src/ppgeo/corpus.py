"""Built-in closed forms, bundled potential pairs, and the seeded generator.

Closed forms are referenced by string id so that experiment configs never
carry parsed arithmetic.  Each takes a point of R^n, the moment variable p
for duals and the spatial variable x for primals; the squares read |.|^2 and
every other form reads the first coordinate.  +inf is returned only at
declared singular loci.  Seeded duals sum one random profile per axis.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bodies import Body
from .duality import DualPotential, SampledFunction
from .grids import ConfigurationError, MomentGrid, SpatialGrid, check_body

INF = float("inf")
# random_dual: the range of the number of affine pieces, of their slopes,
# and of the constant offset
RANDOM_PIECES = (3, 8)
RANDOM_SLOPES = (-2.0, 3.0)
RANDOM_OFFSET = 1.0


@dataclass(frozen=True)
class ClosedForm:
    kind: str  # "primal" | "dual"
    fn: object  # callable of a point (a list of n floats)
    note: str
    hessian_bound: float | None = None  # primal obstacles only
    singular: bool = False


def _half_square(x) -> float:
    return 0.5 * sum(t * t for t in x)


CLOSED_FORMS: dict[str, ClosedForm] = {
    "support_[0,1]": ClosedForm("primal", lambda x: max(0.0, x[0]), "support function of [0, e1]"),
    "shifted_support": ClosedForm(
        "primal", lambda x: max(0.0, x[0] - 1.0), "support function of [0, e1] translated by e1"
    ),
    "quadratic": ClosedForm("primal", _half_square, "|x|^2/2", hessian_bound=1.0),
    "quadratic_bump": ClosedForm(
        "primal",
        lambda x: _half_square(x) + 0.2 * math.cos(3.0 * x[0]),
        "|x|^2/2 + cos(3 x1)/5, a cosine ripple",
        hessian_bound=1.0 + 0.2 * 9.0,
    ),
    "soft_ramp": ClosedForm(
        "primal",
        lambda x: 0.5 * (x[0] + math.sqrt(x[0] * x[0] + 0.25)),
        "smoothed positive part of x1, slopes in (0,1)",
        hessian_bound=1.0,
    ),
    "dual_zero": ClosedForm("dual", lambda p: 0.0, "dual of the support function of the body"),
    "dual_ramp": ClosedForm("dual", lambda p: p[0], "p1: affine, all mass at x=e1"),
    "dual_crossing": ClosedForm("dual", lambda p: 1.0 - p[0], "1-p1: affine, all mass at x=-e1"),
    "dual_quadratic": ClosedForm("dual", _half_square, "|p|^2/2"),
    "dual_log_barrier": ClosedForm(
        "dual",
        lambda p: -math.log(1.0 - p[0]) if p[0] < 1.0 else INF,
        "-log(1-p1), +inf at p1=1",
        singular=True,
    ),
    "dual_power_cusp": ClosedForm("dual", lambda p: abs(p[0]) ** 1.5, "|p1|^{3/2} power cusp"),
    "dual_vee": ClosedForm("dual", lambda p: abs(p[0] - 0.5), "|p1 - 1/2| kink"),
}


def _sample_form(expr_id: str, kind: str, grid) -> np.ndarray:
    """A closed form of the given kind at every node of a grid; ConfigurationError otherwise."""
    form = CLOSED_FORMS.get(expr_id)
    if form is None:
        raise ConfigurationError(f"unknown closed form {expr_id!r}")
    if form.kind != kind:
        raise ConfigurationError(f"{expr_id!r} is not a {kind} closed form")
    return np.array([form.fn(x) for x in grid.nodes().tolist()]).reshape(grid.shape)


def dual_from_form(expr_id: str, grid: MomentGrid) -> DualPotential:
    return DualPotential(grid.body, grid, _sample_form(expr_id, "dual", grid), provenance=expr_id)


def obstacle_from_form(expr_id: str, spatial: SpatialGrid) -> SampledFunction:
    return SampledFunction(spatial, _sample_form(expr_id, "primal", spatial), provenance=expr_id)


# bundled pair catalog: name -> (dual id 0, dual id 1, note)
PAIR_CATALOG: dict[str, tuple[str, str, str]] = {
    "ramp_pair": ("dual_zero", "dual_ramp", "duals 0 and p1; d_1 = 1/2"),
    "crossing_pair": ("dual_ramp", "dual_crossing", "duals p1 and 1-p1; d_2 = 3^{-1/2}"),
    "quadratic_pair": ("dual_zero", "dual_quadratic", "duals 0 and |p|^2/2"),
    "cusp_pair": ("dual_power_cusp", "dual_vee", "power cusp against a kink"),
    "log_barrier_singular": (
        "dual_zero",
        "dual_log_barrier",
        "singular endpoint; d_1 -> 1, d_2 -> sqrt(2)",
    ),
}


def _random_profile(rng: np.random.Generator, lo: float, hi: float, p: np.ndarray) -> np.ndarray:
    """Random convex piecewise-affine function of one coordinate, 0 at lo."""
    k = int(rng.integers(RANDOM_PIECES[0], RANDOM_PIECES[1] + 1))
    knots = np.sort(rng.uniform(lo, hi, size=k - 1))
    slopes = np.sort(rng.uniform(*RANDOM_SLOPES, size=k))
    seg = np.searchsorted(knots, p)
    # integrate the step-slope function from lo
    knot_vals = np.concatenate([[0.0], np.cumsum(slopes[:-1] * np.diff(np.concatenate([[lo], knots])))])
    edges = np.concatenate([[lo], knots])
    return knot_vals[seg] + slopes[seg] * (p - edges[seg])


def random_dual(rng: np.random.Generator, grid: MomentGrid) -> DualPotential:
    """Random convex dual: one piecewise-affine profile per axis, summed, plus an offset."""
    profiles = [_random_profile(rng, lo, hi, p) for lo, hi, p in zip(grid.lo, grid.hi, grid.axes())]
    vals = sum(np.meshgrid(*profiles, indexing="ij"))
    vals += rng.uniform(-RANDOM_OFFSET, RANDOM_OFFSET)
    return DualPotential(grid.body, grid, vals, provenance="random_piecewise_affine")


def random_dual_pairs(seed: int, count: int, body: Body,
                      grid: MomentGrid) -> list[tuple[DualPotential, DualPotential]]:
    """Deterministic corpus of dual pairs for the verification suites; ``body`` is the grid's."""
    check_body(body, grid)
    rng = np.random.default_rng(seed)
    return [(random_dual(rng, grid), random_dual(rng, grid)) for _ in range(count)]


def pair_from_catalog(name: str, grid: MomentGrid) -> tuple[DualPotential, DualPotential]:
    if name not in PAIR_CATALOG:
        raise ConfigurationError(f"unknown bundled pair {name!r}")
    id0, id1, _ = PAIR_CATALOG[name]
    return dual_from_form(id0, grid), dual_from_form(id1, grid)
