"""Converse-Jensen bound pairs for 3-convex functions under discrete
positive linear functionals, with f-divergence, Zipf-Mandelbrot and
Stolarsky-mean applications."""

from .divided_diff import (
    ConvexityCertificate,
    FunctionBundle,
    MultiplicityPattern,
    NEG_THREE_CONVEX,
    THREE_CONVEX,
    bundle_from_callables,
    certify_3convex,
    check_bundle,
    dd_confluent,
    dd_recursive,
    linear_combination,
)
from .functionals import DiscreteFunctional, MomentSet, apply, make_functional, moments
from .elr_bounds import (
    THEOREMS,
    BoundReport,
    bounds,
    elr_difference,
    jensen_gap_bounds,
)
from .divergences import (
    GeneratorFunction,
    check_probability_vector,
    divergence_bounds,
    f_divergence,
    generator,
)
from .zipf_mandelbrot import (
    ZipfMandelbrot,
    harmonic_sum,
    zm_distribution,
    zm_ratio_extrema,
)
from .expconv import (
    GammaContext,
    GammaCurve,
    divergence_context,
    elr_context,
    exp_convexity_check,
    gamma,
    lyapunov_check,
    stolarsky_quotient,
)
from .stolarsky_means import (
    FamilyMember,
    XiResult,
    cauchy_xi,
    cubic_reference,
    mean_B1,
    mean_M2,
    mvt_xi,
    upsilon1,
    upsilon2,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "ConvexityCertificate",
    "DiscreteFunctional",
    "FamilyMember",
    "FunctionBundle",
    "GammaContext",
    "GammaCurve",
    "GeneratorFunction",
    "MomentSet",
    "MultiplicityPattern",
    "NEG_THREE_CONVEX",
    "THEOREMS",
    "THREE_CONVEX",
    "XiResult",
    "ZipfMandelbrot",
    "apply",
    "bounds",
    "bundle_from_callables",
    "cauchy_xi",
    "certify_3convex",
    "check_bundle",
    "check_probability_vector",
    "cubic_reference",
    "dd_confluent",
    "dd_recursive",
    "divergence_bounds",
    "divergence_context",
    "elr_context",
    "elr_difference",
    "exp_convexity_check",
    "f_divergence",
    "gamma",
    "generator",
    "harmonic_sum",
    "jensen_gap_bounds",
    "linear_combination",
    "lyapunov_check",
    "make_functional",
    "mean_B1",
    "mean_M2",
    "moments",
    "mvt_xi",
    "stolarsky_quotient",
    "upsilon1",
    "upsilon2",
    "zm_distribution",
    "zm_ratio_extrema",
]
