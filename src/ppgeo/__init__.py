"""Finite-energy metric geometry of convex potentials on polytope models.

Potentials live in two equivalent pictures: a primal convex function on
space with slopes confined to a convex body, and its Legendre dual on that
body.  Distances, geodesics, envelopes and Monge-Ampere measures all reduce
to explicit operations in the dual picture, which makes the metric
identities checkable to rounding; the package bundles those checks as
verification suites next to the solvers themselves.
"""

from .bodies import (
    Body,
    ClassBody,
    DEFAULT_SCHEDULE,
    EpsilonFamily,
    default_class_body,
    epsilon_family,
    minkowski_sum,
)
from .corpus import (
    CLOSED_FORMS,
    PAIR_CATALOG,
    dual_from_form,
    pair_from_catalog,
    random_dual_pairs,
)
from .duality import (
    DualPotential,
    PrimalPotential,
    conjugate_1d,
    conjugate_nd,
    convexify,
    to_dual,
    to_primal,
)
from .envelopes import (
    EnvelopeRecord,
    envelope,
    measure_identity_residual,
    multi_rooftop,
    rooftop,
)
from .geodesics import GeodesicCurve, curve_checks, geodesic
from .grids import (
    ConfigurationError,
    MomentGrid,
    SampledFunction,
    SpatialGrid,
    moment_grid,
)
from .harness import SUITES, Lab, TheoremReport, make_lab, run_suites
from .measures import (
    AtomicMeasure,
    DensityField,
    energy,
    i_p,
    ma_atomic,
    ma_density,
    ma_mixed_pair,
)
from .metric import (
    DistanceReport,
    d1_energy,
    dp_dual_oracle,
    dp_endpoint,
    dp_fixed_body,
    dp_limit,
    dp_singular,
    truncate_dual,
)

__version__ = "0.1.0"

__all__ = [
    "Body",
    "ClassBody",
    "DEFAULT_SCHEDULE",
    "EpsilonFamily",
    "default_class_body",
    "epsilon_family",
    "minkowski_sum",
    "CLOSED_FORMS",
    "PAIR_CATALOG",
    "dual_from_form",
    "pair_from_catalog",
    "random_dual_pairs",
    "DualPotential",
    "PrimalPotential",
    "conjugate_1d",
    "conjugate_nd",
    "convexify",
    "to_dual",
    "to_primal",
    "EnvelopeRecord",
    "envelope",
    "measure_identity_residual",
    "multi_rooftop",
    "rooftop",
    "GeodesicCurve",
    "curve_checks",
    "geodesic",
    "ConfigurationError",
    "MomentGrid",
    "SampledFunction",
    "SpatialGrid",
    "moment_grid",
    "SUITES",
    "Lab",
    "TheoremReport",
    "make_lab",
    "run_suites",
    "AtomicMeasure",
    "DensityField",
    "energy",
    "i_p",
    "ma_atomic",
    "ma_density",
    "ma_mixed_pair",
    "DistanceReport",
    "d1_energy",
    "dp_dual_oracle",
    "dp_endpoint",
    "dp_fixed_body",
    "dp_limit",
    "dp_singular",
    "truncate_dual",
    "__version__",
]
