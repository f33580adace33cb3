"""Theorem-level verification suites with measured slacks.

Each suite checks one statement of the metric geometry on a deterministic
corpus and reports the worst slack against a pinned tolerance.  Tolerances
come in three classes: identity (1e-9 relative, dual-route exact),
quadrature (max(1%, 5h)) and convergence (2% at the finest schedule entry).
The suites share one ``Lab``; ``cli.Experiment.lab()`` builds it from a
config, so ``ppgeo verify`` and a library caller check the same fixtures.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bodies import ClassBody, EpsilonFamily
from .corpus import CLOSED_FORMS, dual_from_form, obstacle_from_form
from .duality import DualPotential, convexify_moment_values, to_duals
from .envelopes import envelopes, rooftop
from .geodesics import geodesic
from .grids import MomentGrid, SpatialGrid
from .measures import i_p, ma_density
from .metric import FORMAT_VERSION, dp_endpoint, truncate_dual

IDENTITY_TOL = 1e-9
CONVERGENCE_TOL = 0.02
# fixed suite sizes: the (t, s) grid of geodesic_metric, the Cauchy sequences
# and indices of completeness, the truncation caps of monotone_continuity, and
# the two obstacles and the geodesic time step of epsilon_lemmas
GEODESIC_TS = 5
COMPLETENESS_KINDS = ("monotone", "oscillating")
COMPLETENESS_J_MAX = 6
COMPLETENESS_K_MAX = 10
CONTINUITY_CAPS = (2.0, 4.0, 8.0, 16.0)
EPSILON_OBSTACLES = ("quadratic", "quadratic_bump")
VELOCITY_T = 1e-3


def quadrature_tol(h: float) -> float:
    return max(0.01, 5.0 * h)


@dataclass
class TheoremReport:
    suite: str
    description: str
    corpus: str
    slacks: list
    tolerance: float
    details: dict = field(default_factory=dict)

    @property
    def worst_slack(self) -> float:
        return max(self.slacks) if self.slacks else 0.0

    @property
    def verdict(self) -> str:
        return "pass" if self.worst_slack <= self.tolerance else "fail"

    def to_dict(self) -> dict:
        """The JSON payload; ``ppgeo verify --out`` prints it to 12 digits."""
        return {
            "format_version": FORMAT_VERSION,
            "suite": self.suite,
            "description": self.description,
            "corpus": self.corpus,
            "slacks": self.slacks,
            "worst_slack": self.worst_slack,
            "tolerance": self.tolerance,
            "verdict": self.verdict,
            "details": self.details,
        }

    def to_text(self) -> str:
        return (
            f"[{self.verdict.upper():4s}] {self.suite}: worst slack "
            f"{self.worst_slack:.3e} vs tolerance {self.tolerance:.3e} "
            f"({self.description}; corpus: {self.corpus})"
        )


@dataclass(frozen=True)
class Lab:
    """Shared fixtures for the suites: the spatial grid, the eps-family and seeded pairs.

    The class and its base moment grid are the family's.
    """

    spatial: SpatialGrid
    family: EpsilonFamily
    pairs: tuple

    @property
    def klass(self) -> ClassBody:
        return self.family.base

    @property
    def grid(self) -> MomentGrid:
        return self.family.base_grid

    @property
    def h(self) -> float:
        return max(self.grid.spacing)


def check_pythagorean(lab: Lab, p: float) -> TheoremReport:
    """d_p^p(u,v) = d_p^p(u,P(u,v)) + d_p^p(v,P(u,v)).

    Exact on dual cells (max(a,b)-a and max(a,b)-b partition |a-b|), hence
    identity tolerance.
    """
    slacks = []
    for u, v in lab.pairs:
        roof = rooftop(u, v)
        lhs = dp_endpoint(u, v, p) ** p
        rhs = dp_endpoint(u, roof, p) ** p + dp_endpoint(v, roof, p) ** p
        slacks.append(abs(lhs - rhs) / max(1.0, abs(lhs)))
    return TheoremReport(
        suite="pythagorean",
        description="squared-distance partition at the rooftop",
        corpus=f"{len(lab.pairs)} seeded pairs, p={p}",
        slacks=slacks,
        tolerance=IDENTITY_TOL,
    )


def check_max_inequality(lab: Lab, p: float) -> TheoremReport:
    """d_p(u, max(u,v)) >= d_p(v, P(u,v)), plus the max-form inequality."""
    slacks = []
    remark_slacks = []
    for u, v in lab.pairs:
        roof = rooftop(u, v)
        # max(u, v) in primal has dual = convexified pointwise-min of duals
        vmax_vals = convexify_moment_values(lab.grid, np.minimum(u.values, v.values))
        vmax = DualPotential(lab.grid.body, lab.grid, vmax_vals, provenance="max")
        lhs = dp_endpoint(u, vmax, p)
        rhs = dp_endpoint(v, roof, p)
        slacks.append(max(0.0, rhs - lhs) / max(1.0, rhs))
        duv = dp_endpoint(u, v, p) ** p
        dsum = dp_endpoint(u, vmax, p) ** p + dp_endpoint(v, vmax, p) ** p
        remark_slacks.append(max(0.0, duv - dsum) / max(1.0, duv))
    return TheoremReport(
        suite="max_inequality",
        description="distance to the max dominates distance to the rooftop",
        corpus=f"{len(lab.pairs)} seeded pairs, p={p}",
        slacks=slacks + remark_slacks,
        tolerance=quadrature_tol(lab.h),
        details={"remark_worst": max(remark_slacks)},
    )


def check_geodesic_metric(lab: Lab, p: float) -> TheoremReport:
    """d_p(u_t, u_s) = |t - s| d_p(u0, u1) along the geodesic."""
    ts = np.linspace(0.0, 1.0, GEODESIC_TS)
    slacks = []
    for u, v in lab.pairs:
        curve = geodesic(u, v)
        base = dp_endpoint(u, v, p)
        for t in ts:
            for s in ts:
                d = dp_endpoint(curve.potential_at(t), curve.potential_at(s), p)
                slacks.append(abs(d - abs(t - s) * base) / max(base, 1e-15))
    return TheoremReport(
        suite="geodesic_metric",
        description="constant-speed property of the dual-affine geodesic",
        corpus=f"{len(lab.pairs)} pairs x {GEODESIC_TS}x{GEODESIC_TS} (t,s) grid, p={p}",
        slacks=slacks,
        tolerance=1e-6,
    )


def cauchy_sequence(lab: Lab, kind: str, n: int) -> list[DualPotential]:
    """Synthetic sequence with d_p(u_j, u_{j+1}) <= 2^-j, by dual interpolation."""
    body, grid = lab.grid.body, lab.grid
    # the dual ramp p1, finite off the body too, where DualPotential puts +inf
    p1 = grid.nodes()[:, 0].reshape(grid.shape)
    if kind == "monotone":
        return [DualPotential(body, grid, (1.0 - 2.0**-j) * p1, "cauchy") for j in range(n)]
    wiggles = [0.5 * np.abs(p1 - 0.3), 0.5 * np.abs(p1 - 0.7)]
    return [
        DualPotential(body, grid, p1 + 2.0**-j * wiggles[j % 2], "cauchy")
        for j in range(n)
    ]


def check_completeness(lab: Lab, p: float) -> TheoremReport:
    """Rooftops along a Cauchy sequence contract: d_p(u_j, v_{j,k}) <= 2^{1-j}.

    Replayed on a monotone and on an oscillating sequence; the details hold
    one entry per sequence.
    """
    j_max, k_max = COMPLETENESS_J_MAX, COMPLETENESS_K_MAX
    slacks = []
    details = {}
    for kind in COMPLETENESS_KINDS:
        seq = cauchy_sequence(lab, kind, j_max + k_max + 1)
        budget_ok = all(
            dp_endpoint(seq[j], seq[j + 1], p) <= 2.0**-j + 1e-12
            for j in range(len(seq) - 1)
        )
        monotone_violation = 0.0
        limit_distances = []
        for j in range(j_max + 1):
            prev = None
            for k in range(1, k_max + 1):
                v_jk = rooftop(*seq[j : j + k + 1])
                d = dp_endpoint(seq[j], v_jk, p)
                slacks.append(max(0.0, d - 2.0 ** (1 - j)) / 2.0 ** (1 - j))
                # the dual on the body; off it every dual is +inf
                on_body = v_jk.values[lab.grid.mask]
                if prev is not None:
                    # v_{j,k} decreases in k, so its dual must not decrease
                    monotone_violation = max(monotone_violation, float((prev - on_body).max()))
                prev = on_body
            limit_distances.append(dp_endpoint(seq[j], rooftop(*seq[j:]), p))
        details[kind] = {
            "budget_ok": budget_ok,
            "rooftop_monotone_violation": monotone_violation,
            "limit_distances": limit_distances,
            "limit_decreasing": all(
                b <= a + 1e-12 for a, b in zip(limit_distances, limit_distances[1:])
            ),
        }
    return TheoremReport(
        suite="completeness",
        description="rooftop construction along synthetic Cauchy sequences",
        corpus="%s sequences, j<=%d, k<=%d, p=%s"
        % (" and ".join(COMPLETENESS_KINDS), j_max, k_max, p),
        slacks=slacks,
        tolerance=0.05,
        details=details,
    )


def check_monotone_continuity(lab: Lab, p: float) -> TheoremReport:
    """u_j decreasing to u forces d_p(u_j, u) -> 0; I_p^{1/p} decays too."""
    caps = CONTINUITY_CAPS
    barrier = dual_from_form("dual_log_barrier", lab.grid)
    truncations = [truncate_dual(barrier, m) for m in caps]
    gaps = [dp_endpoint(t, barrier, p) for t in truncations]
    ip_gaps = [i_p(t, barrier, p) ** (1.0 / p) for t in truncations]
    shift_gaps = [
        dp_endpoint(barrier.shift(1.0 / j), barrier, p) for j in (1, 2, 4, 8)
    ]
    decreasing = all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))
    shift_exact = [abs(g - 1.0 / j) for g, j in zip(shift_gaps, (1, 2, 4, 8))]
    slacks = [gaps[-1], 0.0 if decreasing else 1.0, max(shift_exact)]
    return TheoremReport(
        suite="monotone_continuity",
        description="distance continuity along decreasing approximants",
        corpus=f"log-barrier caps {caps} and constant shifts, p={p}",
        slacks=slacks,
        tolerance=CONVERGENCE_TOL,
        details={
            "cap_gaps": gaps,
            "ip_gaps": ip_gaps,
            "ip_decreasing": all(b <= a + 1e-12 for a, b in zip(ip_gaps, ip_gaps[1:])),
            "shift_gaps": shift_gaps,
        },
    )


def check_epsilon_lemmas(lab: Lab, p: float) -> TheoremReport:
    """Convergence of the approximation scheme as the class opens up.

    (a) I_p in the perturbed classes tends to the limit value;
    (b) envelope densities are pointwise nondecreasing in eps and bounded;
    (c) contact-masked velocity integrands converge in weighted L1.
    """
    obstacles = EPSILON_OBSTACLES
    bounds = [CLOSED_FORMS[o].hessian_bound for o in obstacles]
    fs = [obstacle_from_form(o, lab.spatial) for o in obstacles]
    # the opening class, then the limit body: one transform and one hull per obstacle
    envs = envelopes(fs[0], lab.family.stack, bounds[0])
    others = to_duals(fs[1], lab.family.stack)

    def quantities(env, other):
        """I_p, the envelope density and the contact-masked velocity integrand."""
        rho = ma_density(env.primal).density
        vel = np.abs(
            geodesic(env.dual, other).primal_at(VELOCITY_T, lab.spatial)
            - env.primal.values
        ) / VELOCITY_T
        return i_p(env.dual, other, p), rho, env.contact_mask * vel**p * rho

    ip_limit, _, integrand_limit = quantities(envs[-1], others[-1])
    cell = float(np.prod(lab.spatial.spacing))
    ip_table, monotone_fracs, sup_bounds, vel_l1 = [], [], [], []
    rho_prev = None
    h = max(lab.spatial.spacing)
    for env, other in zip(envs[:-1], others[:-1]):
        ip, rho, integrand = quantities(env, other)
        ip_table.append(ip)
        if rho_prev is not None:
            # contact sets (and densities) shrink along the decreasing schedule
            ok = rho <= rho_prev + 5.0 * h
            monotone_fracs.append(float(ok.mean()))
        rho_prev = rho
        sup_bounds.append(float(rho.max()))
        vel_l1.append(float(np.sum(np.abs(integrand - integrand_limit)) * cell))
    ip_gap = abs(ip_table[-1] - ip_limit) / max(abs(ip_limit), 1e-12)
    n = lab.klass.ndim
    density_bound = max(bounds) ** n * 1.01
    vel_scale = max(vel_l1[0], 1e-12)
    slacks = [
        ip_gap,
        # >=99% of nodes must satisfy the slack-adjusted monotonicity
        max(0.0, 0.99 - min(monotone_fracs)),
        max(0.0, max(sup_bounds) / density_bound - 1.0),
        # the masked velocity integrand must not drift away from its limit
        max(0.0, vel_l1[-1] / vel_scale - 1.0) * CONVERGENCE_TOL,
    ]
    return TheoremReport(
        suite="epsilon_lemmas",
        description="density/velocity/I_p convergence of the class opening",
        corpus=f"obstacles {obstacles}, p={p}, schedule of {len(lab.family.schedule)}",
        slacks=slacks,
        tolerance=CONVERGENCE_TOL,
        details={
            "ip_table": ip_table,
            "ip_limit": ip_limit,
            "ip_final_gap": ip_gap,
            "density_monotone_fractions": monotone_fracs,
            "density_sup_per_eps": sup_bounds,
            "density_bound": density_bound,
            "velocity_l1_gaps": vel_l1,
        },
    )


SUITES = {
    "pythagorean": check_pythagorean,
    "max_inequality": check_max_inequality,
    "geodesic_metric": check_geodesic_metric,
    "completeness": check_completeness,
    "monotone_continuity": check_monotone_continuity,
    "epsilon_lemmas": check_epsilon_lemmas,
}


def run_suites(names: list[str], lab: Lab, p: float) -> list[TheoremReport]:
    """Run the selected suites; reports merged in declared order."""
    unknown = [n for n in names if n not in SUITES]
    if unknown:
        raise KeyError(f"unknown suites: {unknown}")
    return [SUITES[n](lab, p) for n in names]
