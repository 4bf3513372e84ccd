"""Third-order divided differences and 3-convexity certification.

A function is 3-convex on an interval when every third-order divided
difference over four points of the interval is nonnegative; for a three
times differentiable function this is equivalent to a nonnegative third
derivative.  This module provides the generic recursive divided difference,
the closed confluent forms for repeated points (multiplicity patterns
(2,1,1), (2,2), (3,1) and (4)), and a sampling-based certifier for the
sign of the third derivative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partialmethod
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "FunctionBundle",
    "MultiplicityPattern",
    "ConvexityCertificate",
    "THREE_CONVEX",
    "NEG_THREE_CONVEX",
    "NEITHER",
    "INDETERMINATE",
    "bundle_from_callables",
    "linear_combination",
    "check_bundle",
    "dd_recursive",
    "dd_confluent",
    "certify_3convex",
]

# Verdict labels for 3-convexity certification.
THREE_CONVEX = "three_convex"
NEG_THREE_CONVEX = "neg_three_convex"
NEITHER = "neither"
INDETERMINATE = "indeterminate"

# Absolute floor below which a sampled third derivative counts as zero.
SIGN_TOL = 1e-12

# Stored one-sided derivatives at the domain ends; the suffix names the end.
_ENDPOINT_FIELDS = ("d1_plus_at_lo", "d1_minus_at_hi", "d2_plus_at_lo",
                    "d2_minus_at_hi")


@dataclass(frozen=True)
class FunctionBundle:
    """A scalar function on an interval together with derivative data.

    Any of ``d1``, ``d2``, ``d3`` may be ``None`` when the corresponding
    derivative is not available.  One-sided first and second derivative
    values at the interval endpoints may be stored explicitly; where they
    are absent the two-sided callables are used instead.  Callables must
    accept numpy arrays elementwise (plain scalar functions also work, at
    the cost of a slower fallback path).
    """

    domain_lo: float
    domain_hi: float
    f: Callable
    d1: Callable | None = None
    d2: Callable | None = None
    d3: Callable | None = None
    d1_plus_at_lo: float | None = None
    d1_minus_at_hi: float | None = None
    d2_plus_at_lo: float | None = None
    d2_minus_at_hi: float | None = None
    name: str = "phi"
    # scalar evaluation memo; callables can be costly (splines), and the
    # bound chains hit the same endpoint values many times
    _memo: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if not self.domain_lo < self.domain_hi:
            raise ValueError("domain_lo must lie strictly below domain_hi")

    def contains(self, lo: float, hi: float | None = None) -> bool:
        hi = lo if hi is None else hi
        return self.domain_lo <= lo and hi <= self.domain_hi

    def deriv(self, order: int, x: float) -> float:
        """phi (order 0) or its first or second derivative (order 1, 2) at x.

        At ``domain_lo`` the stored right value is used and at ``domain_hi``
        the stored left value, when there is one; anywhere else the
        two-sided callable.  Results are memoized under (order, x).
        """
        key = (order, x)
        value = self._memo.get(key)
        if value is not None:
            return value
        if order not in (0, 1, 2):
            raise ValueError(f"derivative order must be 0, 1 or 2, got {order!r}")
        stored = None
        if order and x == self.domain_lo:
            stored = (self.d1_plus_at_lo, self.d2_plus_at_lo)[order - 1]
        elif order and x == self.domain_hi:
            stored = (self.d1_minus_at_hi, self.d2_minus_at_hi)[order - 1]
        if stored is None:
            g = (self.f, self.d1, self.d2)[order]
            if g is None:
                raise ValueError(
                    f"insufficient bundle: derivative of order {order} of "
                    f"{self.name!r} unavailable at x={x}")
            stored = g(x)
        value = self._memo[key] = float(stored)
        return value

    # public shorthands for deriv()
    f_at = partialmethod(deriv, 0)
    d1_plus = partialmethod(deriv, 1)
    d1_minus = partialmethod(deriv, 1)

    def negated(self) -> "FunctionBundle":
        """Bundle of -f, with all derivative data negated."""

        def flip(g):
            if g is None:
                return None
            return lambda x, _g=g: -np.asarray(_g(x)) if np.ndim(x) else -float(_g(x))

        stored = {k: None if getattr(self, k) is None else -getattr(self, k)
                  for k in _ENDPOINT_FIELDS}
        return replace(
            self,
            f=flip(self.f),
            d1=flip(self.d1),
            d2=flip(self.d2),
            d3=flip(self.d3),
            name=f"-({self.name})",
            _memo={},
            **stored,
        )


def bundle_from_callables(f, d1=None, d2=None, d3=None, lo=-math.inf,
                          hi=math.inf, name="phi") -> FunctionBundle:
    """Build a bundle, filling stored endpoint derivatives from the callables.

    On a finite endpoint the one-sided values are taken to equal the
    two-sided derivative there, which is correct for functions smooth up to
    the boundary (all built-in bundles are).
    """
    def at(g, x):
        if g is None or not math.isfinite(x):
            return None
        return float(g(x))

    return FunctionBundle(
        domain_lo=lo, domain_hi=hi, f=f, d1=d1, d2=d2, d3=d3,
        d1_plus_at_lo=at(d1, lo), d1_minus_at_hi=at(d1, hi),
        d2_plus_at_lo=at(d2, lo), d2_minus_at_hi=at(d2, hi),
        name=name,
    )


def linear_combination(a: float, first: FunctionBundle, b: float,
                       second: FunctionBundle) -> FunctionBundle:
    """Bundle of a*first + b*second on the intersection of the domains."""
    lo = max(first.domain_lo, second.domain_lo)
    hi = min(first.domain_hi, second.domain_hi)
    if not lo < hi:
        raise ValueError("bundle domains do not overlap")

    def mix(g1, g2):
        if g1 is None or g2 is None:
            return None
        return lambda x, _g1=g1, _g2=g2: a * np.asarray(_g1(x)) + b * np.asarray(_g2(x))

    def mixv(key):
        v1, v2 = getattr(first, key), getattr(second, key)
        if v1 is None or v2 is None or not shared[key[-2:]]:
            return None
        return a * v1 + b * v2

    shared = {"lo": first.domain_lo == second.domain_lo == lo,
              "hi": first.domain_hi == second.domain_hi == hi}
    return FunctionBundle(
        domain_lo=lo, domain_hi=hi,
        f=mix(first.f, second.f),
        d1=mix(first.d1, second.d1),
        d2=mix(first.d2, second.d2),
        d3=mix(first.d3, second.d3),
        name=f"{a}*{first.name}+{b}*{second.name}",
        **{key: mixv(key) for key in _ENDPOINT_FIELDS},
    )


def check_bundle(bundle: FunctionBundle, lo: float | None = None,
                 hi: float | None = None, grid_n: int = 41) -> None:
    """Verify derivative data against finite differences; raise on failure.

    Interior first derivatives must agree with a central difference of f to
    1e-6*(1+|d1|); stored one-sided endpoint values must agree with
    one-sided second-order differences to 1e-5 relative.  Higher
    derivatives, when present, are checked against central differences of
    the next lower one at the interior tolerance.
    """
    lo = bundle.domain_lo if lo is None else lo
    hi = bundle.domain_hi if hi is None else hi
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("check_bundle needs a finite sampling window for an "
                         "unbounded domain")
    if not bundle.contains(lo, hi):
        raise ValueError("sampling window escapes the bundle domain")

    span = hi - lo
    xs = np.linspace(lo + 0.05 * span, hi - 0.05 * span, grid_n)

    def central(g, x, h):
        return (np.asarray(g(x + h)) - np.asarray(g(x - h))) / (2.0 * h)

    pairs = [(bundle.f, bundle.d1, "d1"), (bundle.d1, bundle.d2, "d2"),
             (bundle.d2, bundle.d3, "d3")]
    for base, deriv, label in pairs:
        if base is None or deriv is None:
            continue
        h = 6e-6 * (1.0 + np.abs(xs))
        approx = central(base, xs, h)
        exact = np.asarray(deriv(xs), dtype=float)
        tol = 1e-6 * (1.0 + np.abs(exact))
        bad = np.abs(approx - exact) > tol
        if bad.any():
            i = int(np.argmax(np.abs(approx - exact) - tol))
            raise ValueError(
                f"bundle {bundle.name!r}: {label} disagrees with finite "
                f"difference at x={xs[i]:.6g} ({exact[i]:.6g} vs {approx[i]:.6g})"
            )

    def one_sided(g, x, h):
        # second-order one-sided slope; h signed toward the interior
        return (4.0 * float(g(x + h)) - 3.0 * float(g(x)) - float(g(x + 2.0 * h))) / (2.0 * h)

    h0 = 1e-6 * (1.0 + abs(lo)) + 1e-9
    for g, x, h, stored, label in (
            (bundle.f, lo, h0, bundle.d1_plus_at_lo, "d1 at left endpoint"),
            (bundle.f, hi, -h0, bundle.d1_minus_at_hi, "d1 at right endpoint"),
            (bundle.d1, lo, h0, bundle.d2_plus_at_lo, "d2 at left endpoint"),
            (bundle.d1, hi, -h0, bundle.d2_minus_at_hi, "d2 at right endpoint")):
        # a stored value is checked only where the window reaches its end
        at_end = x == (bundle.domain_lo if h > 0 else bundle.domain_hi)
        if g is None or stored is None or not at_end:
            continue
        approx = one_sided(g, x, h)
        if abs(approx - stored) > 1e-5 * (1.0 + abs(stored)):
            raise ValueError(
                f"bundle {bundle.name!r}: stored {label} {stored:.6g} "
                f"disagrees with one-sided difference {approx:.6g}"
            )


def dd_recursive(values: Sequence[tuple]) -> float:
    """Divided difference [t0,...,tn]f of (point, value) pairs.

    Uses the standard recursion on the difference table; the result is
    independent of the input order.  The arithmetic is generic, so exact or
    extended-precision number types pass through unchanged.
    """
    values = list(values)
    if not values:
        raise ValueError("divided difference of an empty point set")
    pts = [p for p, _ in values]
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if pts[i] == pts[j]:
                raise ValueError("coincident points require dd_confluent")
    table = [v for _, v in values]
    n = len(pts)
    for level in range(1, n):
        for i in range(n - level):
            table[i] = (table[i + 1] - table[i]) / (pts[i + level] - pts[i])
    return table[0]


_SUPPORTED_SIGNATURES = {(1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,)}


@dataclass(frozen=True)
class MultiplicityPattern:
    """Points with repetition counts for a third-order divided difference."""

    points: tuple[float, ...]
    multiplicities: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(float(p) for p in self.points))
        object.__setattr__(self, "multiplicities", tuple(int(k) for k in self.multiplicities))
        if len(self.points) != len(self.multiplicities):
            raise ValueError("points and multiplicities differ in length")
        if any(k < 1 for k in self.multiplicities):
            raise ValueError("multiplicities must be positive")
        if sum(self.multiplicities) != 4:
            raise ValueError("multiplicities must sum to 4")
        if len(set(self.points)) != len(self.points):
            raise ValueError("pattern points must be pairwise distinct")
        if self.signature not in _SUPPORTED_SIGNATURES:
            raise ValueError(f"unsupported multiplicity pattern {self.signature}")

    @property
    def signature(self) -> tuple[int, ...]:
        return tuple(sorted(self.multiplicities, reverse=True))

    def expand(self, spacing: float) -> list[float]:
        """Split each multiplicity-k point into k points spaced ``spacing``
        apart, centred on the original point."""
        out = []
        for p, k in zip(self.points, self.multiplicities):
            offsets = (np.arange(k) - (k - 1) / 2.0) * spacing
            out.extend(p + o for o in offsets)
        return out


def dd_confluent(bundle: FunctionBundle, pattern: MultiplicityPattern) -> float:
    """Third-order divided difference with repeated points, by closed form.

    Patterns and their formulas (t the repeated point, x/y simple ones):

    * (2,1,1):  f'(t)/((t-x)(t-y)) + f(t)(x+y-2t)/((t-x)^2 (t-y)^2)
                + f(x)/((x-t)^2 (x-y)) + f(y)/((y-t)^2 (y-x))
    * (2,2):    [(x-t)(f'(x)+f'(t)) + 2(f(t)-f(x))] / (x-t)^3
    * (3,1):    [f(x) - f(t) - f'(t)(x-t) - f''(t)(x-t)^2/2] / (x-t)^3
    * (4):      f'''(t)/6

    All distinct points (1,1,1,1) fall back to the recursion.
    """
    for p in pattern.points:
        if not bundle.contains(p):
            raise ValueError(f"pattern point {p} escapes the bundle domain")

    sig = pattern.signature
    f = bundle.f
    if sig == (1, 1, 1, 1):
        return dd_recursive([(p, float(f(p))) for p in pattern.points])

    by_mult = sorted(zip(pattern.multiplicities, pattern.points), reverse=True)
    if sig == (2, 1, 1):
        t = by_mult[0][1]
        x, y = by_mult[1][1], by_mult[2][1]
        # evaluate with the farther simple point dividing first
        if abs(t - x) < abs(t - y):
            x, y = y, x
        ft = float(f(t))
        return (
            bundle.deriv(1, t) / ((t - x) * (t - y))
            + ft * (x + y - 2.0 * t) / ((t - x) ** 2 * (t - y) ** 2)
            + float(f(x)) / ((x - t) ** 2 * (x - y))
            + float(f(y)) / ((y - t) ** 2 * (y - x))
        )
    if sig == (2, 2):
        t, x = by_mult[0][1], by_mult[1][1]
        gap = x - t
        return ((x - t) * (bundle.deriv(1, x) + bundle.deriv(1, t))
                + 2.0 * (float(f(t)) - float(f(x)))) / gap ** 3
    if sig == (3, 1):
        t = by_mult[0][1]
        x = by_mult[1][1]
        gap = x - t
        taylor2 = float(f(t)) + bundle.deriv(1, t) * gap + 0.5 * bundle.deriv(2, t) * gap ** 2
        return (float(f(x)) - taylor2) / gap ** 3
    # sig == (4,)
    t = by_mult[0][1]
    if bundle.d3 is None:
        raise ValueError(f"insufficient bundle: d3 of {bundle.name!r} unavailable")
    return float(bundle.d3(t)) / 6.0


@dataclass(frozen=True)
class ConvexityCertificate:
    """Sampling evidence for the sign of the third derivative.

    ``min_witness`` is the smallest sampled witness of the claimed
    direction (the raw third-order values for ``three_convex``/``neither``,
    their negatives for ``neg_three_convex``); ``witness_point`` locates
    it.  A grid certificate is falsification-grade evidence, not a proof.
    """

    verdict: str
    grid_size: int
    min_witness: float
    witness_point: float

    @property
    def is_directed(self) -> bool:
        return self.verdict in (THREE_CONVEX, NEG_THREE_CONVEX)


def _verdict_from_samples(samples: np.ndarray, locations: np.ndarray,
                          grid_n: int) -> ConvexityCertificate:
    mn_i = int(np.argmin(samples))
    mx_i = int(np.argmax(samples))
    if samples[mn_i] >= -SIGN_TOL:
        return ConvexityCertificate(THREE_CONVEX, grid_n,
                                    float(samples[mn_i]), float(locations[mn_i]))
    if samples[mx_i] <= SIGN_TOL:
        return ConvexityCertificate(NEG_THREE_CONVEX, grid_n,
                                    float(-samples[mx_i]), float(locations[mx_i]))
    return ConvexityCertificate(NEITHER, grid_n,
                                float(samples[mn_i]), float(locations[mn_i]))


def certify_3convex(bundle: FunctionBundle, lo: float, hi: float,
                    grid_n: int) -> ConvexityCertificate:
    """Certify the 3-convexity direction of the bundle on [lo, hi].

    With a third derivative available it is sampled on a uniform grid of
    ``grid_n`` points.  Otherwise the check falls back to sampled
    third-order divided differences (doubled-point triples when d1 is
    available, otherwise quadruples of distinct points); an empty sample
    set yields ``indeterminate``.
    """
    if grid_n < 3:
        raise ValueError("grid_n must be at least 3")
    if not bundle.contains(lo, hi) or not lo < hi:
        raise ValueError("certification interval escapes the bundle domain")

    xs = np.linspace(lo, hi, grid_n)
    if bundle.d3 is not None:
        vals = np.asarray(bundle.d3(xs), dtype=float)
        if vals.shape != xs.shape:
            vals = np.array([float(bundle.d3(x)) for x in xs])
        if not np.isfinite(vals).all():
            raise ValueError("third derivative not finite on the grid")
        return _verdict_from_samples(vals, xs, grid_n)

    sub = xs[:: max(1, grid_n // 10)]
    samples: list[float] = []
    locations: list[float] = []
    if bundle.d1 is not None:
        for ti in range(len(sub)):
            others = np.delete(sub, ti)
            for a in range(len(others)):
                for b in range(a + 1, len(others)):
                    pat = MultiplicityPattern(
                        (sub[ti], others[a], others[b]), (2, 1, 1))
                    samples.append(dd_confluent(bundle, pat))
                    locations.append(sub[ti])
    elif len(sub) >= 4:
        fvals = [float(bundle.f(x)) for x in sub]
        idx = range(len(sub))
        from itertools import combinations
        for quad in combinations(idx, 4):
            samples.append(dd_recursive([(sub[i], fvals[i]) for i in quad]))
            locations.append(float(np.mean([sub[i] for i in quad])))
    if not samples:
        return ConvexityCertificate(INDETERMINATE, grid_n, math.nan, math.nan)
    return _verdict_from_samples(np.asarray(samples), np.asarray(locations), grid_n)
