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
    THREE_CONVEX,
    ConvexityCertificate,
    FunctionBundle,
    certify_3convex,
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

# Grid points of the one sampled certificate that orients every bracket.
CERTIFY_POINTS = 201


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
        if self.orientation not in (ORIENT_DIRECT, ORIENT_REVERSED):
            raise ValueError(f"unknown orientation {self.orientation!r}")
        # an input that overflows a moment or an endpoint value must not
        # print as a bound (a pair may be finite where a moment is not)
        if not all(map(math.isfinite, (self.lower, self.mid, self.upper))):
            raise ValueError(
                f"{self.theorem_tag} bound pair is not finite: (lower, mid, "
                f"upper) = ({self.lower!r}, {self.mid!r}, {self.upper!r})")

    def bracket(self) -> tuple[float, float]:
        """Bracket endpoints ordered so bracket[0] <= mid <= bracket[1]."""
        return _oriented(self.lower, self.upper, self.orientation)

    def violation(self) -> float:
        """How far mid escapes the oriented bracket (0 when it holds)."""
        return float(_excess(self.lower, self.mid, self.upper, self.orientation))


def _oriented(lower, upper, orientation: str):
    """(lower, upper) of a direct chain, (upper, lower) of a reversed one."""
    return (lower, upper) if orientation == ORIENT_DIRECT else (upper, lower)


def _excess(lower, mid, upper, orientation: str):
    """Elementwise BoundReport.violation: max(lo - mid, mid - hi, 0.0) of
    the oriented bracket (lo, hi), where, as in ``max``, a later candidate
    wins only when it is strictly greater (so NaN propagates the same);
    numbers give a number, the 0-d result's scalar."""
    lo, hi = _oriented(lower, upper, orientation)
    below, above = lo - mid, mid - hi
    worst = np.where(above > below, above, below)
    return np.where(0.0 > worst, 0.0, worst)[()]


def _certified(bundle: FunctionBundle, m: float, M: float
               ) -> tuple[ConvexityCertificate, str]:
    """The hypothesis of every bound pair and the orientation it gives:
    certify_3convex of the bundle at CERTIFY_POINTS points of [m, M],
    refused unless it finds a direction."""
    cert = certify_3convex(bundle, m, M, CERTIFY_POINTS)
    if not cert.is_directed:
        raise ValueError(f"{bundle.name!r} is not 3-convex on [{m}, {M}] "
                         f"in either direction (verdict {cert.verdict!r})")
    return cert, ORIENT_DIRECT if cert.verdict == THREE_CONVEX else ORIENT_REVERSED


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
    MomentSet ``ms`` of the bundle on [m, M] and one endpoint read at the
    highest order they need, each with its own copy of ``details``.

    A read that fails is made again theorem by theorem, so each refusal
    comes where a read per theorem gives it: a pair named before the first
    ``taylor`` is refused before an order-2 value the bundle lacks."""
    for name in theorems:
        _check_theorem(name)
    try:
        ends = _endpoint_values(bundle, m, M, 1 + ("taylor" in theorems))
    except (ValueError, ArithmeticError):
        ends = None
    reports = []
    for name in theorems:
        read = ends or _endpoint_values(bundle, m, M, 1 + (name == "taylor"))
        reports.append(_pair_report(ms, m, M, _triple(name, ms, bundle, read, m, M),
                                    orientation, tag + name, dict(details or {})))
    return reports


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


def _check_derivative_moments(ms: MomentSet, bundle: FunctionBundle) -> None:
    if ms.d_lo is None or ms.d_hi is None:
        raise ValueError("insufficient bundle: first derivative moment of "
                         f"{bundle.name!r} unavailable")


THEOREMS = ("secant", "derivative", "taylor")


def _check_theorem(theorem: str, allowed=THEOREMS) -> None:
    if theorem not in allowed:
        raise ValueError(f"unknown theorem {theorem!r}")


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
    return _triple(theorem, ms, bundle,
                   _endpoint_values(bundle, m, M, 1 + (theorem == "taylor")), m, M)


def _triple(theorem: str, ms: MomentSet, bundle: FunctionBundle,
            ends: list[float], m: float, M: float):
    """theorem_triple from the endpoint values ``ends`` (_endpoint_values)
    read at an order the theorem needs, or higher."""
    mid = _mid(ms, ends[0], ends[1], m, M)
    if theorem == "derivative":
        _check_derivative_moments(ms, bundle)
    lower, upper = _bound_pair(theorem, ms, ends, m, M)
    return lower, mid, upper


def _bound_pair(theorem: str, ms: MomentSet, ends: list[float], m: float, M: float):
    """(lower, upper) of the bound pair named ``theorem`` for the moments
    ``ms`` on [m, M] and the endpoint values ``ends`` (_endpoint_values):
    the one home of the formulas."""
    phi_m, phi_M, d1p, d1m, *d2 = ends
    secant = (phi_M - phi_m) / (M - m)
    if theorem == "secant":
        return (ms.cross / (M - m) * (secant - d1p),
                ms.cross / (M - m) * (d1m - secant))
    if theorem == "derivative":
        return ((ms.mean - m) * (secant - 0.5 * d1p) - 0.5 * ms.d_lo,
                0.5 * ms.d_hi - (M - ms.mean) * (secant - 0.5 * d1m))
    d2p, d2m = d2
    return ((M - ms.mean) * (d1m - secant) - 0.5 * d2m * ms.sq_hi,
            (ms.mean - m) * (secant - d1p) - 0.5 * d2p * ms.sq_lo)


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


def bounds(theorem: str, functional: DiscreteFunctional, bundle: FunctionBundle,
           m: float, M: float) -> BoundReport:
    """Report of the bound pair named ``theorem`` (one of THEOREMS) from one
    moment pass, oriented by the bundle's certificate on [m, M]."""
    _check_theorem(theorem)
    orientation = _certified(bundle, m, M)[1]
    return _pair_reports(moments(functional, bundle, m, M), bundle, m, M,
                         (theorem,), orientation)[0]


def jensen_gap_bounds(functional: DiscreteFunctional, bundle: FunctionBundle,
                      m: float, M: float, variant: str) -> BoundReport:
    """Bounds on the Jensen gap A(phi(f)) - phi(A(f)) = D(delta) - D(A), for
    delta the point mass at the mean of f: the ``derivative`` or ``taylor``
    pair's lower(delta) - upper(A) and upper(delta) - lower(A), oriented by
    the bundle's certificate on [m, M]."""
    if variant not in ("derivative", "taylor"):
        raise ValueError(f"unknown Jensen-gap variant {variant!r}")
    orientation = _certified(bundle, m, M)[1]
    ms = moments(functional, bundle, m, M)
    ends = _endpoint_values(bundle, m, M, 1 + (variant == "taylor"))
    phi_mean = bundle.deriv(0, ms.mean)
    below, above = ms.mean - m, M - ms.mean
    d_lo = d_hi = None
    if variant == "derivative":
        _check_derivative_moments(ms, bundle)
        dmean = bundle.deriv(1, ms.mean)
        d_lo, d_hi = below * dmean, above * dmean
    delta = MomentSet(ms.mean, above * below, below * below, above * above,
                      phi_mean, d_lo, d_hi)
    lower_delta, upper_delta = _bound_pair(variant, delta, ends, m, M)
    lower, upper = _bound_pair(variant, ms, ends, m, M)
    return _pair_report(ms, m, M, (lower_delta - upper, ms.value - phi_mean,
                                   upper_delta - lower),
                        orientation, f"jensen_gap_{variant}", {})
