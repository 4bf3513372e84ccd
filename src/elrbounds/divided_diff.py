"""Third-order divided differences and 3-convexity certification.

A function is 3-convex on an interval when every third-order divided
difference over four points of the interval is nonnegative; for a three
times differentiable function this is equivalent to a nonnegative third
derivative.  This module provides the divided difference over distinct
points and over repeated ones (multiplicity patterns (2,1,1), (2,2), (3,1)
and (4)), both by one Newton difference table, and a sampling-based
certifier for the sign of the third derivative.  Importing nothing from
the package, it also holds the named-bundle builders and the number rule.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from functools import cache
from itertools import combinations
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

# A sampled third derivative within SIGN_TOL times the largest sample
# magnitude counts as zero, so that a verdict does not depend on the scale
# of phi.
SIGN_TOL = 1e-12

# Sample points of check_bundle's comparison with finite differences.
CHECK_POINTS = 41

# Stored one-sided derivatives at the domain ends; the suffix names the end.
_ENDPOINT_FIELDS = ("d1_plus_at_lo", "d1_minus_at_hi", "d2_plus_at_lo",
                    "d2_minus_at_hi")


def _check_order(m: float, M: float) -> None:
    """The one rule that an interval [m, M] is not degenerate."""
    if not m < M:
        raise ValueError("degenerate interval: m must lie strictly below M")


@dataclass(frozen=True, eq=False)
class FunctionBundle:
    """A scalar function on an interval together with derivative data.

    Any of ``d1``, ``d2``, ``d3`` may be ``None`` when the corresponding
    derivative is not available.  One-sided first and second derivative
    values at the interval endpoints may be stored explicitly; where they
    are absent the two-sided callables are used instead.  Callables should
    accept numpy arrays elementwise; plain scalar functions also work, at
    the cost of the slower point-by-point fallback in ``_eval``.
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

    def __post_init__(self):
        if not self.domain_lo < self.domain_hi:
            raise ValueError("domain_lo must lie strictly below domain_hi")

    def contains(self, lo: float, hi: float | None = None) -> bool:
        hi = lo if hi is None else hi
        return self.domain_lo <= lo and hi <= self.domain_hi

    def _check_interval(self, m: float, M: float) -> None:
        """The one domain rule of every pass over [m, M]: m < M, inside the
        domain, of finite length, before the pass reads the bundle anywhere."""
        _check_order(m, M)
        if not self.contains(m, M):
            raise ValueError(f"interval [{m}, {M}] escapes the domain of {self.name!r}")
        if not math.isfinite(M - m):
            raise ValueError(f"interval [{m}, {M}] is too wide: its length overflows")

    def deriv(self, order: int, x: float) -> float:
        """phi (order 0) or its derivative of order 1, 2 or 3 at x: the
        one-read case of ``derivs``."""
        return self.derivs(((order, x),))[0]

    @np.errstate(over="ignore", divide="ignore")
    def derivs(self, reads) -> list[float]:
        """phi (order 0) or its derivative of order 1, 2 or 3 at x for each
        (order, x) of ``reads``, as floats, read in that order.

        At ``domain_lo`` the stored right value of order 1 or 2 is used and
        at ``domain_hi`` the stored left value, when there is one; anywhere
        else the two-sided callable, on ``np.float64(x)`` under ``_eval``'s
        floating-point rule, so that an overflow or a pole gives inf and not
        a Python ``OverflowError`` or ``ZeroDivisionError``.  A value the
        bundle cannot supply stops the read with a ValueError.
        """
        values = []
        for order, x in reads:
            if order not in (0, 1, 2, 3):
                raise ValueError(f"derivative order must be 0, 1, 2 or 3, got {order!r}")
            stored = None
            if order and x == self.domain_lo:
                stored = (self.d1_plus_at_lo, self.d2_plus_at_lo, None)[order - 1]
            elif order and x == self.domain_hi:
                stored = (self.d1_minus_at_hi, self.d2_minus_at_hi, None)[order - 1]
            if stored is None:
                g = (self.f, self.d1, self.d2, self.d3)[order]
                if g is None:
                    raise ValueError(
                        f"insufficient bundle: derivative of order {order} of "
                        f"{self.name!r} unavailable at x={x}")
                stored = g(np.float64(x))
            values.append(float(stored))
        return values

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
            **stored,
        )


def _on_positive_axis(name: str, f: Callable, d1: Callable, d2: Callable,
                      d3: Callable) -> FunctionBundle:
    """The bundle ``name`` of f and its three derivatives on (0, inf): the
    one home of that domain, for the divergence generators and for the
    Stolarsky-type family members and their products."""
    return FunctionBundle(domain_lo=0.0, domain_hi=math.inf, f=f, d1=d1, d2=d2,
                          d3=d3, name=name)


# The named built-ins on the real line, each f, d1, d2 and d3 under its
# name: x^3 (the mean-value reference, third derivative 6), x^4 and e^x.
_REAL_LINE_FUNCTIONS = {
    "cubic": (lambda x: np.asarray(x, dtype=float) ** 3,
              lambda x: 3.0 * np.asarray(x, dtype=float) ** 2,
              lambda x: 6.0 * np.asarray(x, dtype=float),
              lambda x: 6.0 * np.ones_like(np.asarray(x, dtype=float))),
    "quartic": (lambda x: np.asarray(x, dtype=float) ** 4,
                lambda x: 4.0 * np.asarray(x, dtype=float) ** 3,
                lambda x: 12.0 * np.asarray(x, dtype=float) ** 2,
                lambda x: 24.0 * np.asarray(x, dtype=float)),
    "exp": (np.exp, np.exp, np.exp, np.exp),
}


@cache
def _on_real_line(name: str) -> FunctionBundle:
    """The one shared bundle of _REAL_LINE_FUNCTIONS[name] on (-inf, inf)."""
    f, d1, d2, d3 = _REAL_LINE_FUNCTIONS[name]
    return FunctionBundle(domain_lo=-math.inf, domain_hi=math.inf, f=f, d1=d1, d2=d2,
                          d3=d3, name=name)


def _is_number(value, kind) -> bool:
    """Whether a value from outside is a number of ``kind`` (a ``numbers``
    ABC): a bool (JSON true and false) is not, nor is a string."""
    return _is_number_type(type(value), kind)


@cache
def _is_number_type(cls: type, kind) -> bool:
    """``_is_number`` of the values of type ``cls``, kept per type: an
    isinstance against an ABC costs about 0.5 us, and a vector asks it of
    each entry's type."""
    return issubclass(cls, kind) and not issubclass(cls, bool)


@np.errstate(over="ignore", divide="ignore")
def _eval(g: Callable, x: np.ndarray) -> np.ndarray:
    """g elementwise on the array x, as floats; a callable that rejects
    arrays (a TypeError, or a ValueError from branching on one) is applied
    point by point, FunctionBundle's scalar fallback.  The floating-point
    rule: an overflow or a pole is an inf, for the callers' finiteness
    checks to refuse, while an invalid operation still warns."""
    try:
        vals = np.asarray(g(x), dtype=float)
        if vals.shape != x.shape:
            raise TypeError
    except (TypeError, ValueError):
        vals = np.array([float(g(v)) for v in x])
    return vals


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
                 hi: float | None = None) -> None:
    """Verify derivative data against finite differences; raise on failure.

    At CHECK_POINTS points x over the window's inner 90%, each d_k (d_0 = f)
    must agree with the central difference of d_(k-1), the mean of d_k over
    [x - h, x + h], to 1e-6*|d_k(x)| plus the largest change of d_k from x
    over the step (the mean value theorem's bound on the truncation) plus 8
    ulp of the two samples of d_(k-1) over 2h (their rounding).  A stored
    endpoint value of d_k must agree with a second-order one-sided
    difference to 1e-5*|stored| plus such a change and rounding bound.
    Every tolerance is read at its own point, so 2^j*phi passes exactly when
    phi does, and a derivative wrong where phi is small is refused however
    large phi is elsewhere.  The window must be finite, inside the domain.
    """
    lo = bundle.domain_lo if lo is None else lo
    hi = bundle.domain_hi if hi is None else hi
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("check_bundle needs a finite sampling window for an "
                         "unbounded domain")
    bundle._check_interval(lo, hi)

    span = hi - lo
    xs = np.linspace(lo + 0.05 * span, hi - 0.05 * span, CHECK_POINTS)
    derivs = (bundle.f, bundle.d1, bundle.d2, bundle.d3)
    ulp8 = 8.0 * np.finfo(float).eps

    h = 6e-6 * (1.0 + np.abs(xs))
    for k in (1, 2, 3):
        base, deriv = derivs[k - 1], derivs[k]
        if base is None or deriv is None:
            continue
        up, down = _eval(base, xs + h), _eval(base, xs - h)
        approx = (up - down) / (2.0 * h)
        exact = _eval(deriv, xs)
        swing = np.maximum(np.abs(_eval(deriv, xs + h) - exact),
                           np.abs(_eval(deriv, xs - h) - exact))
        rounding = ulp8 * (np.abs(up) + np.abs(down)) / (2.0 * h)
        tol = 1e-6 * np.abs(exact) + swing + rounding
        bad = np.abs(approx - exact) > tol
        if bad.any():
            i = int(np.argmax(np.abs(approx - exact) - tol))
            raise ValueError(
                f"bundle {bundle.name!r}: d{k} disagrees with finite "
                f"difference at x={xs[i]:.6g} ({exact[i]:.6g} vs {approx[i]:.6g})"
            )

    for k, x, toward, stored, label in (
            (1, lo, 1.0, bundle.d1_plus_at_lo, "d1 at left endpoint"),
            (1, hi, -1.0, bundle.d1_minus_at_hi, "d1 at right endpoint"),
            (2, lo, 1.0, bundle.d2_plus_at_lo, "d2 at left endpoint"),
            (2, hi, -1.0, bundle.d2_minus_at_hi, "d2 at right endpoint")):
        g, deriv = derivs[k - 1], derivs[k]
        # a stored value is checked only where the window reaches its end
        at_end = x == (bundle.domain_lo if toward > 0 else bundle.domain_hi)
        if g is None or stored is None or not at_end:
            continue
        # second-order one-sided slope; h is sized from x, signed inward
        h = toward * (1e-6 * (1.0 + abs(x)) + 1e-9)
        near, at, far = float(g(x + h)), float(g(x)), float(g(x + 2.0 * h))
        approx = (4.0 * near - 3.0 * at - far) / (2.0 * h)
        # the slope is 2*mean(d_k, x..x+h) - mean(d_k, x..x+2h), so 3 times
        # d_k's change over the step bounds its truncation
        swing = 0.0 if deriv is None else 3.0 * abs(float(deriv(x + 2.0 * h))
                                                    - float(deriv(x + h)))
        tol = (1e-5 * abs(stored) + swing
               + ulp8 * (4.0 * abs(near) + 3.0 * abs(at) + abs(far)) / abs(2.0 * h))
        if abs(approx - stored) > tol:
            raise ValueError(
                f"bundle {bundle.name!r}: stored {label} {stored:.6g} "
                f"disagrees with one-sided difference {approx:.6g}"
            )


def _newton_table(points: Sequence, values: Sequence, scaled_derivative) -> float:
    """[t0,...,tn]f by the Newton (Hermite) table over ``points``, equal ones
    adjacent, from f(ti), the ``values``: an entry over k + 1 equal points t
    is ``scaled_derivative(k, t)``, f^(k)(t)/k!, every other the difference
    quotient of its two neighbours.  Only ``-`` and ``/`` touch the values."""
    table = list(values)
    n = len(points)
    for level in range(1, n):
        for i in range(n - level):
            if points[i] == points[i + level]:
                table[i] = scaled_derivative(level, points[i])
            else:
                table[i] = (table[i + 1] - table[i]) / (points[i + level] - points[i])
    return table[0]


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
    # distinct points: the table never asks for a derivative
    return _newton_table(pts, [v for _, v in values], None)


@dataclass(frozen=True)
class MultiplicityPattern:
    """Points with repetition counts for a third-order divided difference."""

    points: tuple[float, ...]
    multiplicities: tuple[int, ...]

    def __post_init__(self):
        points, multiplicities = tuple(self.points), tuple(self.multiplicities)
        if not all(_is_number(k, numbers.Integral) for k in multiplicities):
            raise ValueError(f"multiplicities must be integers, got {multiplicities!r}")
        if not all(_is_number(p, numbers.Real) for p in points):
            raise ValueError(f"pattern points must be real numbers, got {points!r}")
        object.__setattr__(self, "points", tuple(map(float, points)))
        object.__setattr__(self, "multiplicities", tuple(map(int, multiplicities)))
        if len(self.points) != len(self.multiplicities):
            raise ValueError("points and multiplicities differ in length")
        if any(k < 1 for k in self.multiplicities):
            raise ValueError("multiplicities must be positive")
        if sum(self.multiplicities) != 4:
            raise ValueError("multiplicities must sum to 4")
        if len(set(self.points)) != len(self.points):
            raise ValueError("pattern points must be pairwise distinct")

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
    """Third-order divided difference with repeated points: the Newton
    (Hermite) table over the pattern's points in their order, each repeated
    by its multiplicity, so (4) is f^(3)(t)/6.  Its values are one ``derivs``
    read of f and each derivative below the multiplicity at each point."""
    for p in pattern.points:
        if not bundle.contains(p):
            raise ValueError(f"pattern point {p} escapes the bundle domain")

    groups = list(zip(pattern.points, pattern.multiplicities))
    # f only where a difference quotient takes it: not over the one point
    # of (4), where it may be a nan at a pole whose f''' is an inf
    first = 1 if len(groups) == 1 else 0
    reads = [(order, p) for p, k in groups for order in range(first, k)]
    read = dict(zip(reads, bundle.derivs(reads)))
    points = [p for p, k in groups for _ in range(k)]
    return _newton_table(points, [read.get((0, p)) for p in points],
                         lambda k, t: read[k, t] / math.factorial(k))


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
    tol = SIGN_TOL * max(abs(samples[mn_i]), abs(samples[mx_i]))
    if samples[mn_i] >= -tol:
        return ConvexityCertificate(THREE_CONVEX, grid_n,
                                    float(samples[mn_i]), float(locations[mn_i]))
    if samples[mx_i] <= tol:
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
    if not _is_number(grid_n, numbers.Integral):
        raise ValueError(f"grid_n must be an integer, got {grid_n!r}")
    if grid_n < 3:
        raise ValueError("grid_n must be at least 3")
    bundle._check_interval(lo, hi)

    xs = np.linspace(lo, hi, grid_n)
    if bundle.d3 is not None:
        # a singular end (d3 of xlogx at 0) is an inf, rejected just below
        vals = _eval(bundle.d3, xs)
        if not np.isfinite(vals).all():
            raise ValueError("third derivative not finite on the grid")
        return _verdict_from_samples(vals, xs, grid_n)

    sub = xs[:: max(1, grid_n // 10)]
    samples: list[float] = []
    locations: list[float] = []
    if bundle.d1 is not None:
        # dd_confluent's table on each (t, t, x, y), from one read of f, f'
        pts = sub.tolist()
        values = bundle.derivs([(order, t) for order in (0, 1) for t in pts])
        f, slope = dict(zip(pts, values)), dict(zip(pts, values[len(pts):]))
        for t in pts:
            for x, y in combinations([x for x in pts if x != t], 2):
                samples.append(_newton_table((t, t, x, y), (f[t], f[t], f[x], f[y]),
                                             lambda k, at: slope[at]))
                locations.append(t)
    elif len(sub) >= 4:
        fvals = bundle.derivs([(0, float(x)) for x in sub])
        for quad in combinations(range(len(sub)), 4):
            samples.append(dd_recursive([(sub[i], fvals[i]) for i in quad]))
            locations.append(float(np.mean([sub[i] for i in quad])))
    if not samples:
        return ConvexityCertificate(INDETERMINATE, grid_n, math.nan, math.nan)
    return _verdict_from_samples(np.asarray(samples), np.asarray(locations), grid_n)
