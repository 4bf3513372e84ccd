"""Converse-Jensen (Edmundson-Lah-Ribaric type) bound pairs for 3-convex
functions under discrete positive linear functionals.

The bracketed quantity is the ELR difference

    D = (M - A(f))/(M - m) * phi(m) + (A(f) - m)/(M - m) * phi(M) - A(phi(f)),

the slack of the classical secant bound.  Three bound pairs are provided,
named for the data they consume:

* ``secant``     -- endpoint one-sided first derivatives and the cross
                    moment A[(M-f)(f-m)];
* ``derivative`` -- the first derivative at the nodes;
* ``taylor``     -- endpoint one-sided second derivatives and the squared
                    endpoint distances.

For a 3-convex phi each pair satisfies lower <= D <= upper; replacing phi
by -phi reverses the chain.  Jensen-gap bounds for A(phi(f)) - phi(A(f))
are derived from the same data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .divided_diff import (
    NEG_THREE_CONVEX,
    THREE_CONVEX,
    ConvexityCertificate,
    FunctionBundle,
)
from .functionals import DiscreteFunctional, MomentSet, moments

__all__ = [
    "BoundReport",
    "ORIENT_DIRECT",
    "ORIENT_REVERSED",
    "THEOREMS",
    "elr_difference",
    "bounds",
    "bounds_secant",
    "bounds_derivative",
    "bounds_taylor",
    "jensen_gap_bounds",
]

ORIENT_DIRECT = "direct"
ORIENT_REVERSED = "reversed"


@dataclass(frozen=True)
class BoundReport:
    """A two-sided bound around a mid quantity.

    ``orientation`` records which way the chain runs: ``direct`` means
    lower <= mid <= upper, ``reversed`` means upper <= mid <= lower.  The
    lower/upper fields always hold the same two defining expressions, so
    negating the target function negates all three fields exactly and
    flips the orientation.
    """

    lower: float
    upper: float
    mid: float
    orientation: str
    theorem_tag: str
    details: dict = field(default_factory=dict)

    def bracket(self) -> tuple[float, float]:
        """Bracket endpoints ordered so bracket[0] <= mid <= bracket[1]."""
        if self.orientation == ORIENT_DIRECT:
            return (self.lower, self.upper)
        return (self.upper, self.lower)

    def violation(self) -> float:
        """How far mid escapes the oriented bracket (0 when it holds)."""
        lo, hi = self.bracket()
        return max(lo - self.mid, self.mid - hi, 0.0)


def _resolve_orientation(direction) -> str:
    """Map a certificate or direction label to a chain orientation."""
    if isinstance(direction, ConvexityCertificate):
        direction = direction.verdict
    if direction == THREE_CONVEX:
        return ORIENT_DIRECT
    if direction == NEG_THREE_CONVEX:
        return ORIENT_REVERSED
    raise ValueError(
        f"theorem hypotheses unmet: 3-convexity direction is {direction!r}")


def _endpoint_frame(bundle: FunctionBundle, m: float, M: float):
    phi_m = bundle.deriv(0, m)
    phi_M = bundle.deriv(0, M)
    if not (math.isfinite(phi_m) and math.isfinite(phi_M)):
        raise ValueError("function values at the interval endpoints must be finite")
    secant = (phi_M - phi_m) / (M - m)
    return phi_m, phi_M, secant


def _mid(ms: MomentSet, phi_m: float, phi_M: float, m: float, M: float) -> float:
    return ((M - ms.mean) * phi_m + (ms.mean - m) * phi_M) / (M - m) - ms.value


def _derivative_moments(ms: MomentSet, bundle: FunctionBundle) -> tuple[float, float]:
    if ms.d_lo is None or ms.d_hi is None:
        raise ValueError("insufficient bundle: first derivative moment of "
                         f"{bundle.name!r} unavailable")
    return ms.d_lo, ms.d_hi


def theorem_triple(theorem: str, functional: DiscreteFunctional,
                   bundle: FunctionBundle, m: float, M: float,
                   precomputed: MomentSet | None = None) -> tuple[float, float, float]:
    """(lower, mid, upper) for one bound pair, without orientation logic.

    The raw expression values are what the exponential-convexity
    functionals are built from, so this helper is shared across modules.
    """
    if theorem not in THEOREMS:
        raise ValueError(f"unknown theorem {theorem!r}")
    ms = precomputed if precomputed is not None else moments(functional, bundle, m, M)
    phi_m, phi_M, secant = _endpoint_frame(bundle, m, M)
    mid = _mid(ms, phi_m, phi_M, m, M)
    d1p = bundle.deriv(1, m)
    d1m = bundle.deriv(1, M)
    if theorem == "secant":
        lower = ms.cross / (M - m) * (secant - d1p)
        upper = ms.cross / (M - m) * (d1m - secant)
    elif theorem == "derivative":
        d_lo, d_hi = _derivative_moments(ms, bundle)
        lower = (ms.mean - m) * (secant - 0.5 * d1p) - 0.5 * d_lo
        upper = 0.5 * d_hi - (M - ms.mean) * (secant - 0.5 * d1m)
    else:
        d2p = bundle.deriv(2, m)
        d2m = bundle.deriv(2, M)
        lower = (M - ms.mean) * (d1m - secant) - 0.5 * d2m * ms.sq_hi
        upper = (ms.mean - m) * (secant - d1p) - 0.5 * d2p * ms.sq_lo
    return lower, mid, upper


def elr_difference(functional: DiscreteFunctional, bundle: FunctionBundle,
                   m: float, M: float) -> float:
    """The ELR difference D bracketed by every bound pair."""
    ms = moments(functional, bundle, m, M)
    phi_m, phi_M, _ = _endpoint_frame(bundle, m, M)
    return _mid(ms, phi_m, phi_M, m, M)


THEOREMS = ("secant", "derivative", "taylor")


def bounds(theorem: str, functional: DiscreteFunctional, bundle: FunctionBundle,
           m: float, M: float, direction,
           precomputed: MomentSet | None = None) -> BoundReport:
    """Oriented report of the bound pair named ``theorem`` (one of THEOREMS).

    ``direction`` is a ConvexityCertificate or a verdict label; a
    precomputed MomentSet of the same functional, bundle and interval may
    be passed to skip the moment pass.
    """
    orientation = _resolve_orientation(direction)
    lower, mid, upper = theorem_triple(theorem, functional, bundle, m, M,
                                       precomputed=precomputed)
    return BoundReport(lower=lower, upper=upper, mid=mid,
                       orientation=orientation, theorem_tag=theorem)


def bounds_secant(functional: DiscreteFunctional, bundle: FunctionBundle,
                  m: float, M: float, direction,
                  precomputed: MomentSet | None = None) -> BoundReport:
    """Bound pair from the cross moment and endpoint slopes."""
    return bounds("secant", functional, bundle, m, M, direction, precomputed)


def bounds_derivative(functional: DiscreteFunctional, bundle: FunctionBundle,
                      m: float, M: float, direction,
                      precomputed: MomentSet | None = None) -> BoundReport:
    """Bound pair from first-derivative moments."""
    return bounds("derivative", functional, bundle, m, M, direction, precomputed)


def bounds_taylor(functional: DiscreteFunctional, bundle: FunctionBundle,
                  m: float, M: float, direction,
                  precomputed: MomentSet | None = None) -> BoundReport:
    """Bound pair from second-order endpoint expansions."""
    return bounds("taylor", functional, bundle, m, M, direction, precomputed)


def jensen_gap_bounds(functional: DiscreteFunctional, bundle: FunctionBundle,
                      m: float, M: float, variant: str, direction) -> BoundReport:
    """Bounds on the Jensen gap A(phi(f)) - phi(A(f)).

    The two variants reuse the ``derivative`` and ``taylor`` bound data;
    the displayed composite expressions are taken as normative and are not
    simplified algebraically.
    """
    orientation = _resolve_orientation(direction)
    ms = moments(functional, bundle, m, M)
    phi_m, phi_M, secant = _endpoint_frame(bundle, m, M)
    mean = ms.mean
    mid = ms.value - float(bundle.f(mean))
    d1p = bundle.deriv(1, m)
    d1m = bundle.deriv(1, M)
    if variant == "derivative":
        d_lo, d_hi = _derivative_moments(ms, bundle)
        dmean = bundle.deriv(1, mean)
        lower = ((mean - m) * (secant - 0.5 * (dmean + d1p))
                 - 0.5 * d_hi
                 - (M - mean) * (secant + 0.5 * d1m))
        upper = ((M - mean) * (0.5 * (dmean + d1m) - secant)
                 - (mean - m) * (secant - 0.5 * d1p)
                 + 0.5 * d_lo)
    elif variant == "taylor":
        d2p = bundle.deriv(2, m)
        d2m = bundle.deriv(2, M)
        lower = ((M - mean) * (d1m - secant - 0.5 * d2m * (M - mean))
                 - (mean - m) * (secant - d1p)
                 + 0.5 * d2p * ms.sq_lo)
        upper = ((mean - m) * (secant - d1p - 0.5 * d2p * (mean - m))
                 - (M - mean) * (d1m - secant)
                 + 0.5 * d2m * ms.sq_hi)
    else:
        raise ValueError(f"unknown Jensen-gap variant {variant!r}")
    return BoundReport(lower=lower, upper=upper, mid=mid,
                       orientation=orientation,
                       theorem_tag=f"jensen_gap_{variant}")
