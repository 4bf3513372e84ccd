"""Parameterized 3-convex families, mean-value extraction and the
two-parameter means they generate.

Two families are provided on positive arguments.  The power-type family
has third derivative x^(t-3):

    phi_t(x) = x^t / (t(t-1)(t-2))   for t outside {0, 1, 2},
    phi_0(x) = log(x)/2,  phi_1(x) = -x log(x),  phi_2(x) = x^2 log(x)/2.

The exponential-type family has third derivative e^(t x):

    phi_t(x) = e^(t x)/t^3 for t != 0,  phi_0(x) = x^3/6.

Mean-value extraction inverts the third derivative (or a ratio of two)
on [m, M]; the resulting two-parameter quotients are monotone means of
the segment.  Diagonal (s = t) cases are evaluated by the closed limit
formulas, which involve analytically constructed product bundles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .divided_diff import FunctionBundle
from .expconv import GammaContext, gamma

__all__ = [
    "FamilyMember",
    "XiResult",
    "upsilon1",
    "upsilon2",
    "cubic_reference",
    "mvt_xi",
    "cauchy_xi",
    "mean_B1",
    "mean_M2",
]

_POSITIVE = dict(domain_lo=0.0, domain_hi=math.inf)


@dataclass(frozen=True)
class FamilyMember:
    """One member of a parameterized function family."""

    t: float
    bundle: FunctionBundle
    family_tag: str


# Window around a singular family parameter inside which members switch
# to a quadratic-reduced representation: every functional in this package
# annihilates polynomials of degree <= 2, so dropping the Taylor part that
# blows up at the singular parameter changes no functional value while
# removing a catastrophic cancellation.
SMALL_T = 0.05

# Diagonal parameters this close to a singular value evaluate the closed
# limit row at the singular value itself; the general diagonal row loses
# roughly eps/|gap| of absolute accuracy and becomes meaningless below
# this threshold.
SINGULAR_SNAP = 1e-8


def _u1_reduced(t: float, near: int) -> FunctionBundle:
    """Power-type member with the polynomial part of degree <= 2 that blows
    up at the nearby singular parameter removed (invisible to every
    functional here); expm1 keeps full relative precision in the gap."""
    c = 1.0 / (t * (t - 1.0) * (t - 2.0))
    if near == 0:
        # x^t - 1, scaled
        f = lambda x: c * np.expm1(t * np.log(x))
        d1 = lambda x: x ** (t - 1.0) / ((t - 1.0) * (t - 2.0))
        d2 = lambda x: x ** (t - 2.0) / (t - 2.0)
    elif near == 1:
        # x^t - x, scaled; t*x^(t-1) - 1 = expm1(log(t) + (t-1)log(x))
        delta = t - 1.0
        f = lambda x: c * x * np.expm1(delta * np.log(x))
        d1 = lambda x: c * np.expm1(math.log1p(delta) + delta * np.log(x))
        d2 = lambda x: x ** (t - 2.0) / (t - 2.0)
    else:
        # x^t - x^2, scaled; t(t-1)/2 = 1 + delta(3+delta)/2 for delta=t-2
        delta = t - 2.0
        f = lambda x: c * x ** 2 * np.expm1(delta * np.log(x))
        d1 = lambda x: 2.0 * c * x * np.expm1(
            math.log1p(0.5 * delta) + delta * np.log(x))
        d2 = lambda x: 2.0 * c * np.expm1(
            math.log1p(0.5 * delta * (3.0 + delta)) + delta * np.log(x))
    return FunctionBundle(f=f, d1=d1, d2=d2, d3=lambda x: x ** (t - 3.0),
                          name=f"upsilon1[{t}]", **_POSITIVE)


def upsilon1(t: float) -> FamilyMember:
    """Power-type member with third derivative x^(t-3).

    For parameters within a small window of the singular values 0, 1, 2
    (but not equal to them) the bundle is the quadratic-reduced form of
    the member, which every functional here values identically; the third
    derivative is x^(t-3) exactly either way.
    """
    t = float(t)
    if t == 0.0:
        bundle = FunctionBundle(
            f=lambda x: 0.5 * np.log(x),
            d1=lambda x: 0.5 / x,
            d2=lambda x: -0.5 / x ** 2,
            d3=lambda x: x ** -3.0,
            name="upsilon1[0]", **_POSITIVE)
    elif t == 1.0:
        bundle = FunctionBundle(
            f=lambda x: -x * np.log(x),
            d1=lambda x: -np.log(x) - 1.0,
            d2=lambda x: -1.0 / x,
            d3=lambda x: x ** -2.0,
            name="upsilon1[1]", **_POSITIVE)
    elif t == 2.0:
        bundle = FunctionBundle(
            f=lambda x: 0.5 * x ** 2 * np.log(x),
            d1=lambda x: x * np.log(x) + 0.5 * x,
            d2=lambda x: np.log(x) + 1.5,
            d3=lambda x: 1.0 / x,
            name="upsilon1[2]", **_POSITIVE)
    elif min(abs(t), abs(t - 1.0), abs(t - 2.0)) <= SMALL_T:
        near = min((0, 1, 2), key=lambda s0: abs(t - s0))
        bundle = _u1_reduced(t, near)
    else:
        c = 1.0 / (t * (t - 1.0) * (t - 2.0))
        bundle = FunctionBundle(
            f=lambda x: c * x ** t,
            d1=lambda x: x ** (t - 1.0) / ((t - 1.0) * (t - 2.0)),
            d2=lambda x: x ** (t - 2.0) / (t - 2.0),
            d3=lambda x: x ** (t - 3.0),
            name=f"upsilon1[{t}]", **_POSITIVE)
    return FamilyMember(t=t, bundle=bundle, family_tag="upsilon1")


def _series(x, first_term, ratio, start: int, max_terms: int = 80):
    """Sum a series whose k-th term is term * ratio(k) times the previous."""
    x = np.asarray(x, dtype=float)
    term = first_term(x)
    acc = np.zeros_like(term)
    k = start
    for _ in range(max_terms):
        acc = acc + term
        nxt = term * ratio(x, k)
        k += 1
        if float(np.abs(nxt).max()) <= 1e-18 * max(float(np.abs(acc).max()), 1e-300):
            break
        term = nxt
    return acc


def _u2_reduced(t: float) -> FunctionBundle:
    """e^(tx)/t^3 minus its quadratic Taylor part, summed as a series."""
    f = lambda x: _series(x, lambda x: x ** 3 / 6.0,
                          lambda x, k: t * x / (k + 1), start=3)
    d1 = lambda x: _series(x, lambda x: x ** 2 / 2.0,
                           lambda x, k: t * x / k, start=3)
    d2 = lambda x: _series(x, lambda x: np.asarray(x, dtype=float) * 1.0,
                           lambda x, k: t * x / (k - 1), start=3)
    return FunctionBundle(f=f, d1=d1, d2=d2, d3=lambda x: np.exp(t * x),
                          name=f"upsilon2[{t}]", **_POSITIVE)


def upsilon2(t: float) -> FamilyMember:
    """Exponential-type member with third derivative e^(t x).

    For 0 < |t| below a small threshold the bundle is the quadratic-reduced
    form of the member (identical under every functional here, numerically
    stable); its third derivative is e^(tx) exactly either way.
    """
    t = float(t)
    if t == 0.0:
        bundle = FunctionBundle(
            f=lambda x: x ** 3 / 6.0,
            d1=lambda x: 0.5 * x ** 2,
            d2=lambda x: np.asarray(x, dtype=float) * 1.0,
            d3=lambda x: np.ones_like(np.asarray(x, dtype=float)),
            name="upsilon2[0]", **_POSITIVE)
    elif abs(t) <= SMALL_T:
        bundle = _u2_reduced(t)
    else:
        bundle = FunctionBundle(
            f=lambda x: np.exp(t * x) / t ** 3,
            d1=lambda x: np.exp(t * x) / t ** 2,
            d2=lambda x: np.exp(t * x) / t,
            d3=lambda x: np.exp(t * x),
            name=f"upsilon2[{t}]", **_POSITIVE)
    return FamilyMember(t=t, bundle=bundle, family_tag="upsilon2")


def cubic_reference() -> FunctionBundle:
    """x^3, the reference whose third-order data is constant 6."""
    return FunctionBundle(
        domain_lo=-math.inf, domain_hi=math.inf,
        f=lambda x: np.asarray(x, dtype=float) ** 3,
        d1=lambda x: 3.0 * np.asarray(x, dtype=float) ** 2,
        d2=lambda x: 6.0 * np.asarray(x, dtype=float),
        d3=lambda x: 6.0 * np.ones_like(np.asarray(x, dtype=float)),
        name="cubic")


# ---------------------------------------------------------------------------
# product bundles for the diagonal limit formulas
# ---------------------------------------------------------------------------

def _u1_log_product(s: float) -> FunctionBundle:
    """phi_s * phi_0 for the power family, s outside {0, 1, 2}."""
    c = 1.0 / (2.0 * s * (s - 1.0) * (s - 2.0))
    return FunctionBundle(
        f=lambda x: c * x ** s * np.log(x),
        d1=lambda x: c * x ** (s - 1.0) * (s * np.log(x) + 1.0),
        d2=lambda x: c * x ** (s - 2.0) * (s * (s - 1.0) * np.log(x) + 2.0 * s - 1.0),
        d3=lambda x: c * x ** (s - 3.0) * (s * (s - 1.0) * (s - 2.0) * np.log(x)
                                           + 3.0 * s ** 2 - 6.0 * s + 2.0),
        name=f"upsilon1[{s}]*upsilon1[0]", **_POSITIVE)


def _u1_phi0_squared() -> FunctionBundle:
    return FunctionBundle(
        f=lambda x: 0.25 * np.log(x) ** 2,
        d1=lambda x: 0.5 * np.log(x) / x,
        d2=lambda x: 0.5 * (1.0 - np.log(x)) / x ** 2,
        d3=lambda x: (np.log(x) - 1.5) / x ** 3,
        name="upsilon1[0]^2", **_POSITIVE)


def _u1_phi0_phi1() -> FunctionBundle:
    return FunctionBundle(
        f=lambda x: -0.5 * x * np.log(x) ** 2,
        d1=lambda x: -0.5 * np.log(x) ** 2 - np.log(x),
        d2=lambda x: -(np.log(x) + 1.0) / x,
        d3=lambda x: np.log(x) / x ** 2,
        name="upsilon1[0]*upsilon1[1]", **_POSITIVE)


def _u1_phi0_phi2() -> FunctionBundle:
    return FunctionBundle(
        f=lambda x: 0.25 * x ** 2 * np.log(x) ** 2,
        d1=lambda x: 0.5 * x * (np.log(x) ** 2 + np.log(x)),
        d2=lambda x: 0.5 * (np.log(x) ** 2 + 3.0 * np.log(x) + 1.0),
        d3=lambda x: (2.0 * np.log(x) + 3.0) / (2.0 * x),
        name="upsilon1[0]*upsilon1[2]", **_POSITIVE)


def _u2_id_product(s: float) -> FunctionBundle:
    """x * phi_s for the exponential family, s != 0.

    Near s = 0 the constant and linear/quadratic Taylor parts are dropped
    (invisible to the functionals) and the remainder is summed as a
    series; the third derivative keeps its closed form, which is stable.
    """
    d3 = lambda x: np.exp(s * x) * (3.0 + s * x) / s
    if abs(s) <= SMALL_T:
        f = lambda x: _series(x, lambda x: x ** 3 / (2.0 * s),
                              lambda x, k: s * x / (k + 1), start=2)
        d1 = lambda x: _series(x, lambda x: 3.0 * x ** 2 / (2.0 * s),
                               lambda x, k: (k + 2) * s * x / ((k + 1) ** 2), start=2)
        d2 = lambda x: _series(x, lambda x: 3.0 * x / s,
                               lambda x, k: (k + 2) * s * x / ((k + 1) * k), start=2)
        return FunctionBundle(f=f, d1=d1, d2=d2, d3=d3,
                              name=f"x*upsilon2[{s}]", **_POSITIVE)
    return FunctionBundle(
        f=lambda x: x * np.exp(s * x) / s ** 3,
        d1=lambda x: np.exp(s * x) * (1.0 + s * x) / s ** 3,
        d2=lambda x: np.exp(s * x) * (2.0 + s * x) / s ** 2,
        d3=d3,
        name=f"x*upsilon2[{s}]", **_POSITIVE)


def _u2_id_phi0() -> FunctionBundle:
    return FunctionBundle(
        f=lambda x: x ** 4 / 6.0,
        d1=lambda x: 2.0 * x ** 3 / 3.0,
        d2=lambda x: 2.0 * x ** 2,
        d3=lambda x: 4.0 * np.asarray(x, dtype=float),
        name="x*upsilon2[0]", **_POSITIVE)


# ---------------------------------------------------------------------------
# mean-value extraction
# ---------------------------------------------------------------------------

class XiResult(NamedTuple):
    """A mean-value point in [m, M]; ``unique`` is False when the inverted
    map is constant and any point of the interval works."""

    xi: float
    unique: bool


# Interval width at which bisection stops.
BISECT_WIDTH = 1e-12
# Allowed overshoot of the target beyond the attained range.
RANGE_SLACK = 1e-9


def _invert_monotone(fn: Callable[[float], float], m: float, M: float,
                     target: float) -> XiResult:
    """Solve fn(xi) = target on [m, M] for continuous monotone fn."""
    grid = np.linspace(m, M, 65)
    vals = np.array([float(fn(x)) for x in grid])
    if not np.isfinite(vals).all():
        raise ValueError("inverse undefined: map not finite on [m, M]")
    scale = max(1.0, float(np.abs(vals).max()))
    if vals.max() - vals.min() <= 1e-12 * scale:
        if abs(target - vals[0]) > RANGE_SLACK * scale:
            raise ValueError("MVT violated: constant map misses the target")
        return XiResult(0.5 * (m + M), unique=False)
    diffs = np.diff(vals)
    if not ((diffs >= -1e-13 * scale).all() or (diffs <= 1e-13 * scale).all()):
        raise ValueError("inverse undefined: map is not monotone on [m, M]")
    lo_val, hi_val = vals[0], vals[-1]
    vmin, vmax = min(lo_val, hi_val), max(lo_val, hi_val)
    if target < vmin - RANGE_SLACK * scale or target > vmax + RANGE_SLACK * scale:
        raise ValueError(
            f"MVT violated: target {target!r} escapes the attained range "
            f"[{vmin!r}, {vmax!r}]")
    if target <= vmin:
        return XiResult(m if lo_val <= hi_val else M, unique=True)
    if target >= vmax:
        return XiResult(M if lo_val <= hi_val else m, unique=True)
    increasing = lo_val < hi_val
    lo, hi = m, M
    while hi - lo > BISECT_WIDTH:
        mid = 0.5 * (lo + hi)
        v = float(fn(mid))
        if (v < target) == increasing:
            lo = mid
        else:
            hi = mid
    return XiResult(0.5 * (lo + hi), unique=True)


def mvt_xi(ctx: GammaContext, bundle: FunctionBundle) -> XiResult:
    """The mean-value point xi in [m, M] with
    phi'''(xi)/6 = Gamma(phi)/Gamma(x^3)."""
    if bundle.d3 is None:
        raise ValueError(
            f"insufficient bundle: d3 of {bundle.name!r} unavailable")
    g_ref = gamma(ctx, cubic_reference())
    if g_ref == 0.0:
        raise ValueError("mean-value denominator vanishes")
    target = 6.0 * gamma(ctx, bundle) / g_ref
    return _invert_monotone(lambda x: float(bundle.d3(x)), ctx.m, ctx.M, target)


def cauchy_xi(ctx: GammaContext, b1: FunctionBundle,
              b2: FunctionBundle) -> XiResult:
    """The point xi in [m, M] where the third-derivative ratio of the two
    bundles equals the ratio of their functional values."""
    if b1.d3 is None or b2.d3 is None:
        raise ValueError("insufficient bundle: both third derivatives are "
                         "needed for a Cauchy mean value")
    g2 = gamma(ctx, b2)
    if g2 == 0.0:
        raise ValueError("mean-value denominator vanishes")
    target = gamma(ctx, b1) / g2
    ratio = lambda x: float(b1.d3(x)) / float(b2.d3(x))
    return _invert_monotone(ratio, ctx.m, ctx.M, target)


# ---------------------------------------------------------------------------
# two-parameter means
# ---------------------------------------------------------------------------

def _positive_gamma(ctx: GammaContext, bundle: FunctionBundle) -> float:
    value = gamma(ctx, bundle)
    if value <= 0:
        raise ValueError("mean requires strictly positive functional values "
                         f"(got {value!r} on {bundle.name!r})")
    return value


def mean_B1(ctx: GammaContext, s: float, t: float) -> float:
    """Two-parameter mean of [m, M] from the power-type family.

    Off the diagonal this is (Gamma(phi_s)/Gamma(phi_t))^(1/(s-t)); on the
    diagonal the closed limit formulas apply, with the diagonal log terms
    carried by analytically constructed product bundles.
    """
    s, t = float(s), float(t)
    if s < t:
        s, t = t, s  # the quotient is symmetric; fix the order so the
        # exchange symmetry holds exactly in floating point
    if 0.0 < s - t <= SINGULAR_SNAP:
        s = t = 0.5 * (s + t)  # the ratio branch cannot resolve the gap
    if s != t:
        gs = _positive_gamma(ctx, upsilon1(s).bundle)
        gt = _positive_gamma(ctx, upsilon1(t).bundle)
        return (gs / gt) ** (1.0 / (s - t))
    nearest = min((0.0, 1.0, 2.0), key=lambda s0: abs(s - s0))
    if 0.0 < abs(s - nearest) <= SINGULAR_SNAP:
        s = nearest  # the general diagonal row is ill-conditioned here
    if s == 0.0:
        exponent = (gamma(ctx, _u1_phi0_squared())
                    / _positive_gamma(ctx, upsilon1(0.0).bundle) + 1.5)
    elif s == 1.0:
        exponent = (gamma(ctx, _u1_phi0_phi1())
                    / _positive_gamma(ctx, upsilon1(1.0).bundle))
    elif s == 2.0:
        exponent = (gamma(ctx, _u1_phi0_phi2())
                    / _positive_gamma(ctx, upsilon1(2.0).bundle) - 1.5)
    else:
        exponent = (2.0 * gamma(ctx, _u1_log_product(s))
                    / _positive_gamma(ctx, upsilon1(s).bundle)
                    - (3.0 * s ** 2 - 6.0 * s + 2.0)
                    / (s * (s - 1.0) * (s - 2.0)))
    return math.exp(exponent)


def mean_M2(ctx: GammaContext, s: float, t: float) -> float:
    """Two-parameter mean of [m, M] from the exponential-type family:
    log(Gamma(phi_s)/Gamma(phi_t))/(s-t) off the diagonal, with the closed
    limit rows on it."""
    s, t = float(s), float(t)
    if s < t:
        s, t = t, s
    if 0.0 < s - t <= SINGULAR_SNAP:
        s = t = 0.5 * (s + t)  # the ratio branch cannot resolve the gap
    if s != t:
        gs = _positive_gamma(ctx, upsilon2(s).bundle)
        gt = _positive_gamma(ctx, upsilon2(t).bundle)
        return math.log(gs / gt) / (s - t)
    if 0.0 < abs(s) <= SINGULAR_SNAP:
        s = 0.0  # the general diagonal row is ill-conditioned here
    if s == 0.0:
        return (gamma(ctx, _u2_id_phi0())
                / (4.0 * _positive_gamma(ctx, upsilon2(0.0).bundle)))
    return (gamma(ctx, _u2_id_product(s))
            / _positive_gamma(ctx, upsilon2(s).bundle) - 3.0 / s)
