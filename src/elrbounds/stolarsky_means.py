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

Each bundle has one construction site: ``divided_diff._on_positive_axis``
for every member and product, ``_on_real_line`` for the cubic reference.
The parameterless bundles (the members at t in {0, 1, 2} of the power
family and t = 0 of the exponential one, and the products of the limit
rows there) are one table, ``_FIXED``, keyed by bundle name.  A member at
any other t writes its general f, d1 and d2 once and, within ``SMALL_T``
of a singular value, replaces only those that the quadratic-reduced form
changes.

The inverse lives on the map it inverts: a member's third derivative is a
``_Power`` (x^a) or ``_Exp`` (e^(tx)) callable, monotone by theorem, with a
closed-form ``inverse`` and a quotient of the same kind, so a mean-value
point of members is found without root-finding; any other third
derivative is scanned and bisected.  Members of one family with one
parameter share a live bundle, and ``expconv.gamma`` keeps one value per
bundle in its context, so an op computes each Gamma once.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .divided_diff import FunctionBundle, _eval, _on_positive_axis, _on_real_line
from .expconv import EQUAL_PARAM_TOL, GammaContext, _quotient, gamma
from .functionals import _parameter

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

@dataclass(frozen=True)
class FamilyMember:
    """One member of a parameterized function family."""

    t: float
    bundle: FunctionBundle
    family_tag: str


class _Power:
    """x^a, the third derivative of an upsilon1 member (a = t - 3): monotone
    on x > 0, so it is inverted in closed form, and the quotient of two is
    one more.  Plain slotted classes: as dataclasses the two added about
    1.5 ms to this module's import, nearly doubling it."""

    __slots__ = ("a",)

    def __init__(self, a: float):
        self.a = a

    def __call__(self, x):
        return x ** self.a

    def inverse(self, y: float) -> float:
        return y ** (1.0 / self.a)

    def __truediv__(self, other: _Power) -> _Power:
        return _Power(self.a - other.a)


class _Exp:
    """e^(tx), the third derivative of an upsilon2 member: monotone, so it
    is inverted in closed form, and the quotient of two is one more."""

    __slots__ = ("t",)

    def __init__(self, t: float):
        self.t = t

    def __call__(self, x):
        return np.exp(self.t * x)

    def inverse(self, y: float) -> float:
        return math.log(y) / self.t

    def __truediv__(self, other: _Exp) -> _Exp:
        return _Exp(self.t - other.t)


_CLOSED_FORM = (_Power, _Exp)

# The live bundle of each family member (family, t): members built while
# some caller or GammaContext holds the bundle share it, and with it their
# Gamma values; a bundle no one holds is dropped, as t ranges over the reals.
_LIVE: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _member(family: str, t: float,
            build: Callable[[float], FunctionBundle]) -> FamilyMember:
    """The member of ``family`` at float(t) (``_parameter``), on the live
    bundle of that parameter, or on a new one from ``build`` when no one
    holds it."""
    t = _parameter(t, f"{family} parameter")
    bundle = _LIVE.get((family, t))
    if bundle is None:
        bundle = _LIVE[family, t] = build(t)
    return FamilyMember(t=t, bundle=bundle, family_tag=family)


# Window around a singular family parameter inside which members switch
# to a quadratic-reduced representation: every functional in this package
# annihilates polynomials of degree <= 2, so dropping the Taylor part that
# blows up at the singular parameter changes no functional value while
# removing a catastrophic cancellation.
SMALL_T = 0.05
# The singular parameters of the power family, the poles of its scale.
_U1_SINGULAR = (0.0, 1.0, 2.0)
# Most terms that _series sums before it stops.
SERIES_TERMS = 80

# The parameterless bundles, each f, d1, d2 and d3 under its bundle name:
# the members at the singular parameters, and the products of the
# diagonal limit rows there (phi_0 times phi_0, phi_1 and phi_2 of
# upsilon1, and x times phi_0 of upsilon2).
_FIXED = {
    "upsilon1[0]": (lambda x: 0.5 * np.log(x), lambda x: 0.5 / x,
                    lambda x: -0.5 / x ** 2, lambda x: x ** -3.0),
    "upsilon1[1]": (lambda x: -x * np.log(x), lambda x: -np.log(x) - 1.0,
                    lambda x: -1.0 / x, lambda x: x ** -2.0),
    "upsilon1[2]": (lambda x: 0.5 * x ** 2 * np.log(x), lambda x: x * np.log(x) + 0.5 * x,
                    lambda x: np.log(x) + 1.5, lambda x: 1.0 / x),
    "upsilon2[0]": (lambda x: x ** 3 / 6.0, lambda x: 0.5 * x ** 2,
                    lambda x: np.asarray(x, dtype=float) * 1.0,
                    lambda x: np.ones_like(np.asarray(x, dtype=float))),
    "upsilon1[0]^2": (lambda x: 0.25 * np.log(x) ** 2, lambda x: 0.5 * np.log(x) / x,
                      lambda x: 0.5 * (1.0 - np.log(x)) / x ** 2,
                      lambda x: (np.log(x) - 1.5) / x ** 3),
    "upsilon1[0]*upsilon1[1]": (lambda x: -0.5 * x * np.log(x) ** 2,
                                lambda x: -0.5 * np.log(x) ** 2 - np.log(x),
                                lambda x: -(np.log(x) + 1.0) / x,
                                lambda x: np.log(x) / x ** 2),
    "upsilon1[0]*upsilon1[2]": (lambda x: 0.25 * x ** 2 * np.log(x) ** 2,
                                lambda x: 0.5 * x * (np.log(x) ** 2 + np.log(x)),
                                lambda x: 0.5 * (np.log(x) ** 2 + 3.0 * np.log(x) + 1.0),
                                lambda x: (2.0 * np.log(x) + 3.0) / (2.0 * x)),
    "x*upsilon2[0]": (lambda x: x ** 4 / 6.0, lambda x: 2.0 * x ** 3 / 3.0,
                      lambda x: 2.0 * x ** 2, lambda x: 4.0 * np.asarray(x, dtype=float)),
}


def _fixed(name: str) -> FunctionBundle:
    """A new bundle of the parameterless entry ``name`` of _FIXED."""
    return _on_positive_axis(name, *_FIXED[name])


def _scale(family: str, t: float, constant: Callable[[], float]) -> float:
    """A member's scale constant, refused unless finite and nonzero."""
    try:
        c = constant()
    except OverflowError:  # Python's float power raises where numpy gives inf
        c = math.inf
    if c == 0.0 or not math.isfinite(c):
        raise ValueError(f"{family} parameter {t!r} out of range: its scale "
                         "constant is not finite and nonzero")
    return c


def upsilon1(t: float) -> FamilyMember:
    """Power-type member with third derivative x^(t-3).

    For parameters within a small window of the singular values 0, 1, 2
    (but not equal to them) the bundle is the quadratic-reduced form of
    the member, which every functional here values identically; the third
    derivative is x^(t-3) exactly either way, a ``_Power`` off the singular
    values.  A scale 1/(t(t-1)(t-2)) that is not finite and nonzero is
    refused.  Members of one t share their bundle while it is live.
    """
    return _member("upsilon1", t, _u1_bundle)


def _u1_bundle(t: float) -> FunctionBundle:
    if t in _U1_SINGULAR:
        return _fixed(f"upsilon1[{int(t)}]")
    c = _scale("upsilon1", t, lambda: 1.0 / (t * (t - 1.0) * (t - 2.0)))
    f = lambda x: c * x ** t
    d1 = lambda x: x ** (t - 1.0) / ((t - 1.0) * (t - 2.0))
    d2 = lambda x: x ** (t - 2.0) / (t - 2.0)
    near = min(_U1_SINGULAR, key=lambda s0: abs(t - s0))
    delta = t - near
    if abs(delta) <= SMALL_T:
        # c(x^t - x^near): the part c x^near of degree <= 2 blows up at the
        # singular value, so it is dropped, and with it each derivative of
        # x^near that is not 0.  expm1 keeps full relative precision in the
        # gap, by t x^(t-1) - near x^(near-1) = near x^(near-1)
        # expm1(log1p(delta/near) + delta log x) and, near 2,
        # t(t-1)/2 = 1 + delta(3+delta)/2.
        f = lambda x: c * x ** near * np.expm1(delta * np.log(x))
        if near:
            d1 = lambda x: near * c * x ** (near - 1) * np.expm1(
                math.log1p(delta / near) + delta * np.log(x))
        if near == 2:
            d2 = lambda x: 2.0 * c * np.expm1(
                math.log1p(0.5 * delta * (3.0 + delta)) + delta * np.log(x))
    return _on_positive_axis(f"upsilon1[{t}]", f, d1, d2, _Power(t - 3.0))


def _series(x, first_term, ratio, start: int):
    """Sum a series whose k-th term is term * ratio(k) times the previous,
    over at most SERIES_TERMS terms."""
    x = np.asarray(x, dtype=float)
    term = first_term(x)
    acc = np.zeros_like(term)
    k = start
    for _ in range(SERIES_TERMS):
        acc = acc + term
        nxt = term * ratio(x, k)
        k += 1
        if float(np.abs(nxt).max()) <= 1e-18 * max(float(np.abs(acc).max()), 1e-300):
            break
        term = nxt
    return acc


def upsilon2(t: float) -> FamilyMember:
    """Exponential-type member with third derivative e^(t x).

    For 0 < |t| below a small threshold the bundle is the quadratic-reduced
    form of the member (identical under every functional here, numerically
    stable); its third derivative is e^(tx) exactly either way, an ``_Exp``
    for t != 0.  A scale 1/t^3 that is not finite and nonzero is refused.
    Members of one t share their bundle while it is live.
    """
    return _member("upsilon2", t, _u2_bundle)


def _u2_bundle(t: float) -> FunctionBundle:
    if t == 0.0:
        return _fixed("upsilon2[0]")
    if abs(t) <= SMALL_T:
        # e^(tx)/t^3 minus its quadratic Taylor part, summed as a series
        f = lambda x: _series(x, lambda x: x ** 3 / 6.0,
                              lambda x, k: t * x / (k + 1), start=3)
        d1 = lambda x: _series(x, lambda x: x ** 2 / 2.0,
                               lambda x, k: t * x / k, start=3)
        d2 = lambda x: _series(x, lambda x: np.asarray(x, dtype=float) * 1.0,
                               lambda x, k: t * x / (k - 1), start=3)
    else:
        _scale("upsilon2", t, lambda: 1.0 / t ** 3)
        f = lambda x: np.exp(t * x) / t ** 3
        d1 = lambda x: np.exp(t * x) / t ** 2
        d2 = lambda x: np.exp(t * x) / t
    return _on_positive_axis(f"upsilon2[{t}]", f, d1, d2, _Exp(t))


def cubic_reference() -> FunctionBundle:
    """x^3, the reference whose third-order data is constant 6: the shared
    bundle of ``divided_diff._on_real_line``."""
    return _on_real_line("cubic")


# ---------------------------------------------------------------------------
# product bundles for the diagonal limit formulas (the parameterless ones
# are in _FIXED)
# ---------------------------------------------------------------------------

def _u1_log_product(s: float) -> FunctionBundle:
    """phi_s * phi_0 for the power family, s outside {0, 1, 2}."""
    c = 1.0 / (2.0 * s * (s - 1.0) * (s - 2.0))
    return _on_positive_axis(
        f"upsilon1[{s}]*upsilon1[0]",
        lambda x: c * x ** s * np.log(x),
        lambda x: c * x ** (s - 1.0) * (s * np.log(x) + 1.0),
        lambda x: c * x ** (s - 2.0) * (s * (s - 1.0) * np.log(x) + 2.0 * s - 1.0),
        lambda x: c * x ** (s - 3.0) * (s * (s - 1.0) * (s - 2.0) * np.log(x)
                                        + 3.0 * s ** 2 - 6.0 * s + 2.0))


def _u2_id_product(s: float) -> FunctionBundle:
    """x * phi_s for the exponential family, s != 0.

    Near s = 0 the constant and linear/quadratic Taylor parts are dropped
    (invisible to the functionals) and the remainder is summed as a
    series; the third derivative keeps its closed form, which is stable.
    """
    if abs(s) <= SMALL_T:
        f = lambda x: _series(x, lambda x: x ** 3 / (2.0 * s),
                              lambda x, k: s * x / (k + 1), start=2)
        d1 = lambda x: _series(x, lambda x: 3.0 * x ** 2 / (2.0 * s),
                               lambda x, k: (k + 2) * s * x / ((k + 1) ** 2), start=2)
        d2 = lambda x: _series(x, lambda x: 3.0 * x / s,
                               lambda x, k: (k + 2) * s * x / ((k + 1) * k), start=2)
    else:
        f = lambda x: x * np.exp(s * x) / s ** 3
        d1 = lambda x: np.exp(s * x) * (1.0 + s * x) / s ** 3
        d2 = lambda x: np.exp(s * x) * (2.0 + s * x) / s ** 2
    return _on_positive_axis(f"x*upsilon2[{s}]", f, d1, d2,
                             lambda x: np.exp(s * x) * (3.0 + s * x) / s)


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
    """Solve fn(xi) = target on [m, M] for continuous monotone fn.

    A closed-form map (``_Power``, ``_Exp``) is monotone by theorem: it is
    evaluated at m and M only, by one array call (``_eval``, whose bits a
    scalar power need not share), checked on those two floats and
    inverted exactly.  Any other map is scanned at 65 points by one array
    call, reduced to the same floats (its values at m and M, its scale
    max |fn| and its spread max fn - min fn), checked for monotonicity on
    the scan, and bisected.  Every tolerance is relative to the scale, so
    2^k * fn gets fn's point; a map that is 0 at every point read has the
    scale 1, an absolute slack for its target.
    """
    closed = isinstance(fn, _CLOSED_FORM)
    if closed:
        lo_val, hi_val = _eval(fn, np.array([m, M])).tolist()
        spread, scale = abs(hi_val - lo_val), max(abs(lo_val), abs(hi_val))
    else:
        vals = _eval(fn, np.linspace(m, M, 65))
        top, bottom = float(vals.max()), float(vals.min())
        lo_val, hi_val = float(vals[0]), float(vals[-1])
        spread, scale = top - bottom, max(top, -bottom)
    scale = scale or 1.0
    # the spread is nan or inf exactly when a value is not finite
    if not math.isfinite(spread):
        raise ValueError("inverse undefined: map not finite on [m, M]")
    if spread <= 1e-12 * scale:
        if abs(target - lo_val) > RANGE_SLACK * scale:
            raise ValueError("MVT violated: constant map misses the target")
        return XiResult(0.5 * (m + M), unique=False)
    if not closed:
        diffs = np.diff(vals)
        if not ((diffs >= -1e-13 * scale).all() or (diffs <= 1e-13 * scale).all()):
            raise ValueError("inverse undefined: map is not monotone on [m, M]")
    vmin, vmax = min(lo_val, hi_val), max(lo_val, hi_val)
    if target < vmin - RANGE_SLACK * scale or target > vmax + RANGE_SLACK * scale:
        raise ValueError(
            f"MVT violated: target {target!r} escapes the attained range "
            f"[{vmin!r}, {vmax!r}]")
    if target <= vmin:
        return XiResult(m if lo_val <= hi_val else M, unique=True)
    if target >= vmax:
        return XiResult(M if lo_val <= hi_val else m, unique=True)
    if closed:
        return XiResult(min(max(fn.inverse(target), m), M), unique=True)
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


def _gamma_pair(ctx: GammaContext, b1: FunctionBundle,
                b2: FunctionBundle) -> tuple[float, float]:
    """(Gamma(b1), Gamma(b2)) for a Cauchy mean value: both need a third
    derivative, and Gamma(b2), computed first, must not vanish."""
    if b1.d3 is None or b2.d3 is None:
        raise ValueError("insufficient bundle: both third derivatives are "
                         "needed for a Cauchy mean value")
    g2 = gamma(ctx, b2)
    if g2 == 0.0:
        raise ValueError("mean-value denominator vanishes")
    return gamma(ctx, b1), g2


def mvt_xi(ctx: GammaContext, bundle: FunctionBundle) -> XiResult:
    """The mean-value point xi in [m, M] with
    phi'''(xi)/6 = Gamma(phi)/Gamma(x^3)."""
    g, g_ref = _gamma_pair(ctx, bundle, cubic_reference())
    return _invert_monotone(bundle.d3, ctx.m, ctx.M, 6.0 * g / g_ref)


def cauchy_xi(ctx: GammaContext, b1: FunctionBundle,
              b2: FunctionBundle) -> XiResult:
    """The point xi in [m, M] where the third-derivative ratio of the two
    bundles equals the ratio of their functional values."""
    g1, g2 = _gamma_pair(ctx, b1, b2)
    d3, d3_ref = b1.d3, b2.d3
    if type(d3) is type(d3_ref) and isinstance(d3, _CLOSED_FORM):
        ratio = d3 / d3_ref
    else:
        ratio = lambda x: d3(x) / d3_ref(x)
    return _invert_monotone(ratio, ctx.m, ctx.M, g1 / g2)


# ---------------------------------------------------------------------------
# two-parameter means
# ---------------------------------------------------------------------------

def _inside(ctx: GammaContext, mean: float) -> float:
    """The mean, refused unless it lies in [m, M] within RANGE_SLACK *
    max(1, |m|, |M|): as a Cauchy mean-value point it lies in [m, M], so a
    mean outside says the functional values are too inaccurate on this
    interval."""
    slack = RANGE_SLACK * max(1.0, abs(ctx.m), abs(ctx.M))
    if not ctx.m - slack <= mean <= ctx.M + slack:
        raise ValueError(f"mean {mean!r} escapes [{ctx.m!r}, {ctx.M!r}]: the "
                         "functional values are too inaccurate on this interval")
    return mean


def mean_B1(ctx: GammaContext, s: float, t: float) -> float:
    """Two-parameter mean of [m, M] from the power-type family.

    Off the diagonal this is (Gamma(phi_s)/Gamma(phi_t))^(1/(s-t)); on the
    diagonal the closed limit formulas apply, with the diagonal log terms
    carried by analytically constructed product bundles.
    """
    def diagonal(s: float, positive: Callable[[float], float]) -> float:
        nearest = min(_U1_SINGULAR, key=lambda s0: abs(s - s0))
        if 0.0 < abs(s - nearest) <= EQUAL_PARAM_TOL:
            s = nearest  # the general diagonal row is ill-conditioned here
        g = positive(s)
        if s == 0.0:
            exponent = gamma(ctx, _fixed("upsilon1[0]^2")) / g + 1.5
        elif s == 1.0:
            exponent = gamma(ctx, _fixed("upsilon1[0]*upsilon1[1]")) / g
        elif s == 2.0:
            exponent = gamma(ctx, _fixed("upsilon1[0]*upsilon1[2]")) / g - 1.5
        else:
            exponent = (2.0 * gamma(ctx, _u1_log_product(s)) / g
                        - (3.0 * s ** 2 - 6.0 * s + 2.0)
                        / (s * (s - 1.0) * (s - 2.0)))
        return math.exp(exponent)

    return _inside(ctx, _quotient(lambda u: gamma(ctx, upsilon1(u).bundle), s, t,
                                  lambda ratio, gap: ratio ** (1.0 / gap), diagonal))


def mean_M2(ctx: GammaContext, s: float, t: float) -> float:
    """Two-parameter mean of [m, M] from the exponential-type family:
    log(Gamma(phi_s)/Gamma(phi_t))/(s-t) off the diagonal, with the closed
    limit rows on it."""
    def diagonal(s: float, positive: Callable[[float], float]) -> float:
        if 0.0 < abs(s) <= EQUAL_PARAM_TOL:
            s = 0.0  # the general diagonal row is ill-conditioned here
        g = positive(s)
        if s == 0.0:
            return gamma(ctx, _fixed("x*upsilon2[0]")) / (4.0 * g)
        return gamma(ctx, _u2_id_product(s)) / g - 3.0 / s

    return _inside(ctx, _quotient(lambda u: gamma(ctx, upsilon2(u).bundle), s, t,
                                  lambda ratio, gap: math.log(ratio) / gap, diagonal))
