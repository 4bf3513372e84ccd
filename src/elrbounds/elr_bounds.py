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

import numpy as np

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
    "theorem_triple",
    "bounds",
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

    def __post_init__(self):
        # an input that overflows a moment or an endpoint value must not
        # print as a bound (a pair may be finite where a moment is not)
        if not all(map(math.isfinite, (self.lower, self.mid, self.upper))):
            raise ValueError(
                f"{self.theorem_tag} bound pair is not finite: (lower, mid, "
                f"upper) = ({self.lower!r}, {self.mid!r}, {self.upper!r})")

    def bracket(self) -> tuple[float, float]:
        """Bracket endpoints ordered so bracket[0] <= mid <= bracket[1]."""
        if self.orientation == ORIENT_DIRECT:
            return (self.lower, self.upper)
        return (self.upper, self.lower)

    def violation(self) -> float:
        """How far mid escapes the oriented bracket (0 when it holds)."""
        return float(_excess(self.lower, self.mid, self.upper, self.orientation))


def _excess(lower, mid, upper, orientation: str):
    """Elementwise BoundReport.violation: max(lo - mid, mid - hi, 0.0) of
    the oriented bracket (lo, hi), where, as in ``max``, a later candidate
    wins only when it is strictly greater (so NaN propagates the same).
    Arrays take np.where, numbers the same choices without numpy."""
    lo, hi = (lower, upper) if orientation == ORIENT_DIRECT else (upper, lower)
    below, above = lo - mid, mid - hi
    if isinstance(below, np.ndarray):
        worst = np.where(above > below, above, below)
        return np.where(0.0 > worst, 0.0, worst)
    worst = above if above > below else below
    return 0.0 if 0.0 > worst else worst


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


def _endpoint_values(bundle: FunctionBundle, m: float, M: float,
                     order: int) -> list[float]:
    """phi and its derivatives up to ``order`` at m and at M, in that order,
    in one ``bundle.derivs`` read of an [m, M] inside the bundle's domain;
    phi at the ends must be finite, and a phi that is not is refused before
    a derivative the bundle lacks."""
    bundle._check_interval(m, M)
    reads = ((0, m), (0, M), (1, m), (1, M), (2, m), (2, M))[:2 * order + 2]
    try:
        values = bundle.derivs(reads)
    except (ValueError, ArithmeticError):  # a missing derivative, or a math error
        _finite_ends(bundle.derivs(reads[:2]))
        raise
    _finite_ends(values)
    return values


def _finite_ends(values: list[float]) -> None:
    if not (math.isfinite(values[0]) and math.isfinite(values[1])):
        raise ValueError("function values at the interval endpoints must be finite")


def _mid(ms: MomentSet, phi_m: float, phi_M: float, m: float, M: float) -> float:
    return ((M - ms.mean) * phi_m + (ms.mean - m) * phi_M) / (M - m) - ms.value


def _pair_reports(ms: MomentSet, bundle: FunctionBundle, m: float, M: float,
                  theorems, orientation: str, tag: str = "",
                  details: dict | None = None) -> list[BoundReport]:
    """The report step of every bound pass: the BoundReport, tagged ``tag``
    plus its name, of each bound pair named in ``theorems`` from the one
    MomentSet ``ms`` of the bundle on [m, M], each with its own copy of
    ``details``."""
    return [_pair_report(ms, m, M, theorem_triple(name, ms, bundle, m, M),
                         orientation, tag + name, dict(details or {}))
            for name in theorems]


def _pair_report(ms: MomentSet, m: float, M: float, triple, orientation: str,
                 theorem_tag: str, details: dict) -> BoundReport:
    """The BoundReport of a (lower, mid, upper) triple from the moments
    ``ms`` on [m, M]; a pair that is not finite is refused, for the
    interval when that is the cause (_refuse_overflow)."""
    lower, mid, upper = triple
    try:
        return BoundReport(lower=lower, upper=upper, mid=mid, orientation=orientation,
                           theorem_tag=theorem_tag, details=details)
    except ValueError:
        _refuse_overflow(ms, m, M)
        raise


def _refuse_overflow(ms: MomentSet, m: float, M: float) -> None:
    """The diagnosis of a value built from the moments ``ms`` on [m, M]
    that is not finite: when those moments overflow, the interval is
    refused as its cause."""
    if not all(map(math.isfinite, (ms.cross, ms.sq_lo, ms.sq_hi))):
        raise ValueError(f"interval [{m}, {M}] is too wide: the moments "
                         "of the functional on it overflow") from None


def _derivative_moments(ms: MomentSet, bundle: FunctionBundle) -> tuple[float, float]:
    if ms.d_lo is None or ms.d_hi is None:
        raise ValueError("insufficient bundle: first derivative moment of "
                         f"{bundle.name!r} unavailable")
    return ms.d_lo, ms.d_hi


def theorem_triple(theorem: str, ms: MomentSet, bundle: FunctionBundle,
                   m: float, M: float):
    """(lower, mid, upper) of the bound pair named ``theorem`` (one of
    THEOREMS) for the moments ``ms`` of the bundle on [m, M], without
    orientation logic: floats for one functional (``moments``), arrays
    for a batch (``moments_batch``).

    The raw expression values are what the exponential-convexity
    functionals are built from, so this kernel is shared across modules.
    """
    _check_theorem(theorem)
    phi_m, phi_M, d1p, d1m, *d2 = _endpoint_values(bundle, m, M, 1 + (theorem == "taylor"))
    secant = (phi_M - phi_m) / (M - m)
    mid = _mid(ms, phi_m, phi_M, m, M)
    if theorem == "secant":
        lower = ms.cross / (M - m) * (secant - d1p)
        upper = ms.cross / (M - m) * (d1m - secant)
    elif theorem == "derivative":
        d_lo, d_hi = _derivative_moments(ms, bundle)
        lower = (ms.mean - m) * (secant - 0.5 * d1p) - 0.5 * d_lo
        upper = 0.5 * d_hi - (M - ms.mean) * (secant - 0.5 * d1m)
    else:
        d2p, d2m = d2
        lower = (M - ms.mean) * (d1m - secant) - 0.5 * d2m * ms.sq_hi
        upper = (ms.mean - m) * (secant - d1p) - 0.5 * d2p * ms.sq_lo
    return lower, mid, upper


def _check_theorem(theorem: str) -> None:
    if theorem not in THEOREMS:
        raise ValueError(f"unknown theorem {theorem!r}")


def elr_difference(functional: DiscreteFunctional, bundle: FunctionBundle,
                   m: float, M: float) -> float:
    """The ELR difference D bracketed by every bound pair; a D that is not
    finite is refused, for the interval when the moments on it overflow."""
    ms = moments(functional, bundle, m, M)
    phi_m, phi_M = _endpoint_values(bundle, m, M, 0)
    value = _mid(ms, phi_m, phi_M, m, M)
    if not math.isfinite(value):
        _refuse_overflow(ms, m, M)
        raise ValueError(f"ELR difference of {bundle.name!r} is not finite: {value!r}")
    return value


THEOREMS = ("secant", "derivative", "taylor")


def bounds(theorem: str, functional: DiscreteFunctional, bundle: FunctionBundle,
           m: float, M: float, direction) -> BoundReport:
    """Oriented report of the bound pair named ``theorem`` (one of THEOREMS)
    from one moment pass; ``direction`` is a ConvexityCertificate or a
    verdict label."""
    orientation = _resolve_orientation(direction)
    _check_theorem(theorem)
    return _pair_reports(moments(functional, bundle, m, M), bundle, m, M,
                         (theorem,), orientation)[0]


def jensen_gap_bounds(functional: DiscreteFunctional, bundle: FunctionBundle,
                      m: float, M: float, variant: str, direction) -> BoundReport:
    """Bounds on the Jensen gap A(phi(f)) - phi(A(f)).

    The two variants reuse the ``derivative`` and ``taylor`` bound data;
    the displayed composite expressions are taken as normative and are not
    simplified algebraically.
    """
    if variant not in ("derivative", "taylor"):
        raise ValueError(f"unknown Jensen-gap variant {variant!r}")
    orientation = _resolve_orientation(direction)
    ms = moments(functional, bundle, m, M)
    phi_m, phi_M, d1p, d1m, *d2 = _endpoint_values(bundle, m, M, 1 + (variant == "taylor"))
    secant = (phi_M - phi_m) / (M - m)
    mean = ms.mean
    mid = ms.value - bundle.deriv(0, mean)
    if variant == "derivative":
        d_lo, d_hi = _derivative_moments(ms, bundle)
        dmean = bundle.deriv(1, mean)
        lower = ((mean - m) * (secant - 0.5 * (dmean + d1p))
                 - 0.5 * d_hi
                 - (M - mean) * (secant + 0.5 * d1m))
        upper = ((M - mean) * (0.5 * (dmean + d1m) - secant)
                 - (mean - m) * (secant - 0.5 * d1p)
                 + 0.5 * d_lo)
    else:
        d2p, d2m = d2
        lower = ((M - mean) * (d1m - secant - 0.5 * d2m * (M - mean))
                 - (mean - m) * (secant - d1p)
                 + 0.5 * d2p * ms.sq_lo)
        upper = ((mean - m) * (secant - d1p - 0.5 * d2p * (mean - m))
                 - (M - mean) * (d1m - secant)
                 + 0.5 * d2m * ms.sq_hi)
    return _pair_report(ms, m, M, (lower, mid, upper), orientation,
                        f"jensen_gap_{variant}", {})
