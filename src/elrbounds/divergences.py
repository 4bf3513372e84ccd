"""Csiszar-style f-divergences for 3-convex generators and their bounds.

The divergence of probability vectors p, q is sum_i q_i f(p_i / q_i); the
generator f need not be convex here, only 3-convex in one direction, which
fixes the orientation of the bound chains.  Five named generators are
built in, each with analytic derivatives:

    kl         t*log(t)            third derivative -1/t^2      (reversed)
    hellinger  (1-sqrt(t))^2 / 2   third derivative -3/(8 t^2.5) (reversed)
    renyi      t**alpha            direct for 0<=alpha<=1 or alpha>=2
    harmonic   2t/(1+t)            third derivative 12/(1+t)^4  (direct)
    jeffreys   (t-1)*log(t)        third derivative -1/t^2-2/t^3 (reversed)
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np

from .divided_diff import (FunctionBundle, NEG_THREE_CONVEX, THREE_CONVEX, _eval,
                           certify_3convex)
from .elr_bounds import BoundReport, _pair_reports, _resolve_orientation
from .functionals import DiscreteFunctional, _normalize, check_weights, moments

__all__ = [
    "GeneratorFunction",
    "F_3CONVEX",
    "NEG_F_3CONVEX",
    "GENERATOR_NAMES",
    "DIVERGENCE_THEOREMS",
    "generator",
    "check_probability_vector",
    "f_divergence",
    "ratio_functional",
    "divergence_pass",
    "divergence_bounds",
]

F_3CONVEX = "f_3convex"
NEG_F_3CONVEX = "neg_f_3convex"

GENERATOR_NAMES = ("kl", "hellinger", "renyi", "harmonic", "jeffreys")

# The bound pairs that the divergence corollaries specialize.
DIVERGENCE_THEOREMS = ("derivative", "taylor")


@dataclass(frozen=True)
class GeneratorFunction:
    """A divergence generator: bundle, 3-convexity direction, and the
    boundary limits needed by the zero-mass conventions.

    ``value_at_zero`` is lim f(t) as t -> 0+ and ``slope_at_inf`` is
    lim f(t)/t as t -> inf; either may be ``math.inf`` or, for custom
    generators that never meet zero masses, ``None``.
    """

    bundle: FunctionBundle
    direction: str
    name: str
    params: tuple[float, ...] = ()
    value_at_zero: float | None = None
    slope_at_inf: float | None = None

    def __post_init__(self):
        if self.direction not in (F_3CONVEX, NEG_F_3CONVEX):
            raise ValueError(f"unknown direction {self.direction!r}")

    def convexity_verdict(self) -> str:
        return THREE_CONVEX if self.direction == F_3CONVEX else NEG_THREE_CONVEX


def _positive_bundle(f, d1, d2, d3, name) -> FunctionBundle:
    return FunctionBundle(domain_lo=0.0, domain_hi=math.inf, f=f, d1=d1,
                          d2=d2, d3=d3, name=name)


# The 3-convexity direction that the closed-form third derivative of each
# named generator's bundle proves on (0, inf): the signs of the docstring's
# d3, and for renyi the sign of a(a-1)(a-2), the constant of c*t^(a-3)
# (d3 is identically 0 for a in {0, 1, 2}).  Keyed by the bundle, not the
# name: a hand-built generator on another bundle, or a replace()d bundle,
# has no entry whatever it is called, and _spot_check_direction certifies it.
_PROVED: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def generator(name: str, alpha: float | None = None) -> GeneratorFunction:
    """Build a named generator; ``renyi`` needs ``alpha``.  A custom
    generator is a ``GeneratorFunction`` built by hand."""
    if name == "kl":
        gen = GeneratorFunction(
            bundle=_positive_bundle(
                lambda t: t * np.log(t),
                lambda t: np.log(t) + 1.0,
                lambda t: 1.0 / t,
                lambda t: -1.0 / t ** 2,
                "t*log(t)"),
            direction=NEG_F_3CONVEX, name="kl",
            value_at_zero=0.0, slope_at_inf=math.inf)
    elif name == "hellinger":
        gen = GeneratorFunction(
            bundle=_positive_bundle(
                lambda t: 0.5 * (1.0 - np.sqrt(t)) ** 2,
                lambda t: 0.5 * (1.0 - 1.0 / np.sqrt(t)),
                lambda t: 0.25 * t ** -1.5,
                lambda t: -0.375 * t ** -2.5,
                "(1-sqrt(t))^2/2"),
            direction=NEG_F_3CONVEX, name="hellinger",
            value_at_zero=0.5, slope_at_inf=0.5)
    elif name == "renyi":
        if alpha is None:
            raise ValueError("renyi generator requires alpha")
        a = float(alpha)
        if not math.isfinite(a * (a - 1.0) * (a - 2.0)):
            raise ValueError(f"renyi alpha {alpha!r} overflows its third derivative")
        # the k-th derivative c*t^(a-k), identically 0 when c is: t^(a-k)
        # may be inf at t = 0, and 0*inf is a nan
        power = lambda k, c: (lambda t: c * t ** (a - k)) if c else np.zeros_like
        gen = GeneratorFunction(
            bundle=_positive_bundle(
                lambda t: t ** a, power(1.0, a), power(2.0, a * (a - 1.0)),
                power(3.0, a * (a - 1.0) * (a - 2.0)), f"t^{a}"),
            direction=(F_3CONVEX if 0.0 <= a <= 1.0 or a >= 2.0
                       else NEG_F_3CONVEX), name="renyi", params=(a,),
            value_at_zero=(0.0 if a > 0 else 1.0 if a == 0 else math.inf),
            slope_at_inf=(0.0 if a < 1 else 1.0 if a == 1 else math.inf))
    elif name == "harmonic":
        gen = GeneratorFunction(
            bundle=_positive_bundle(
                lambda t: 2.0 * t / (1.0 + t),
                lambda t: 2.0 / (1.0 + t) ** 2,
                lambda t: -4.0 / (1.0 + t) ** 3,
                lambda t: 12.0 / (1.0 + t) ** 4,
                "2t/(1+t)"),
            direction=F_3CONVEX, name="harmonic",
            value_at_zero=0.0, slope_at_inf=0.0)
    elif name == "jeffreys":
        gen = GeneratorFunction(
            bundle=_positive_bundle(
                lambda t: (t - 1.0) * np.log(t),
                lambda t: np.log(t) + 1.0 - 1.0 / t,
                lambda t: 1.0 / t + 1.0 / t ** 2,
                lambda t: -1.0 / t ** 2 - 2.0 / t ** 3,
                "(t-1)*log(t)"),
            direction=NEG_F_3CONVEX, name="jeffreys",
            value_at_zero=math.inf, slope_at_inf=math.inf)
    else:
        raise ValueError(f"unknown generator {name!r}")
    _PROVED[gen.bundle] = gen.direction
    return gen


def check_probability_vector(entries, label: str = "distribution") -> np.ndarray:
    """The entries as a probability vector; see ``check_weights``."""
    return check_weights(entries, label)


def _check_pair(p, q) -> tuple[np.ndarray, np.ndarray]:
    p = check_probability_vector(p, "p")
    q = check_probability_vector(q, "q")
    if p.size != q.size:
        raise ValueError("p and q differ in length")
    return p, q


def _ratios(p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, float]:
    """p_i/q_i of entries of a checked pair with q_i > 0, and the largest;
    they must be finite: a tiny q_i can overflow the ratio, and that is an
    input error, not a numpy warning."""
    with np.errstate(over="ignore"):
        ratios = p / q
    # each ratio is >= 0 and none is a nan, so they are finite when the
    # largest is, and the first inf is the first largest
    hi = float(ratios.max())
    if hi == math.inf:
        i = int(ratios.argmax())
        raise ValueError(f"ratio p_i/q_i overflows: {float(p[i])!r}/{float(q[i])!r}")
    return ratios, hi


def f_divergence(p, q, gen: GeneratorFunction) -> float:
    """sum_i q_i f(p_i/q_i) under the usual zero-mass conventions.

    A pair (0, 0) contributes nothing; q_i = 0 with p_i = a > 0 contributes
    a * lim f(t)/t; p_i = 0 uses lim f(t) as t -> 0+.  The result is
    ``math.inf`` when a required limit diverges.
    """
    p, q = _check_pair(p, q)
    total = 0.0
    regular = (q > 0) & (p > 0)
    if regular.any():
        qs = q[regular]
        total += float(qs @ _eval(gen.bundle.f, _ratios(p[regular], qs)[0]))
    zero_p = (q > 0) & (p == 0)
    if zero_p.any():
        if gen.value_at_zero is None:
            raise ValueError(
                f"generator {gen.name!r} has no declared limit at zero")
        total += float(q[zero_p].sum()) * gen.value_at_zero
    zero_q = (q == 0) & (p > 0)
    if zero_q.any():
        if gen.slope_at_inf is None:
            raise ValueError(
                f"generator {gen.name!r} has no declared slope at infinity")
        total += float(p[zero_q].sum()) * gen.slope_at_inf
    return total


def ratio_functional(p, q, m: float | None = None, M: float | None = None
                     ) -> tuple[DiscreteFunctional, float, float, np.ndarray]:
    """(functional, m, M, masses): the functional with nodes p_i/q_i and
    weights q_i (zero-zero pairs dropped), whose mean is 1, on [m, M], and
    those q_i as given, unrenormalized.

    A missing interval end is taken from the ratio range widened to
    include 1.  The interval must satisfy m <= 1 <= M and m < M and hold
    every ratio.
    """
    p, q = _check_pair(p, q)
    if np.fmin.reduce(q) > 0.0:  # no zero mass to drop, as in every Dirichlet draw
        masses = q.copy()  # q may be the caller's own array
    else:
        if ((q == 0) & (p > 0)).any():
            raise ValueError("zero q-mass with positive p-mass puts the ratio "
                             "outside every finite interval")
        keep = q > 0
        masses, p = q[keep], p[keep]
    ratios, hi = _ratios(p, masses)
    lo = float(ratios.min())
    m = min(lo, 1.0) if m is None else float(m)
    M = max(hi, 1.0) if M is None else float(M)
    if not (m <= 1.0 <= M):
        raise ValueError("theorem requires m <= 1 <= M")
    if m == M:
        raise ValueError("degenerate interval: all ratios coincide; supply a "
                         "wider [m, M]")
    if lo < m or hi > M:
        outside = (ratios < m) | (ratios > M)
        raise ValueError(f"ratio outside [m, M]: {float(ratios[outside][0])!r}")
    # The kept masses need only make_functional's normalization: _check_pair
    # has checked every q_i, and dropping exact zeros leaves the real sum of
    # q, which it has checked to lie within WEIGHT_DRIFT_TOL of 1, unchanged.
    ratios.flags.writeable = False
    weights = _normalize(masses.copy(), ((1, masses.size),),
                         masses.sum(keepdims=True))
    return DiscreteFunctional(nodes=ratios, weights=weights), m, M, masses


def _spot_check_direction(gen: GeneratorFunction, m: float, M: float) -> None:
    """certify_3convex at 33 points of [m, M] must find the declared direction
    (three_convex of -f if 3-concave), unless _PROVED holds a proof of it."""
    if _PROVED.get(gen.bundle) == gen.direction:
        return
    convex = gen.direction == F_3CONVEX
    bundle = gen.bundle if convex else gen.bundle.negated()
    if certify_3convex(bundle, m, M, 33).verdict != THREE_CONVEX:
        declared, sign = ("convex", "negative") if convex else ("concave", "positive")
        raise ValueError(
            f"generator {gen.name!r} declared 3-{declared} but its third "
            f"derivative is {sign} on [{m}, {M}]")


def divergence_pass(p, q, gen: GeneratorFunction, m: float | None = None,
                    M: float | None = None, theorems=DIVERGENCE_THEOREMS
                    ) -> tuple[float, list[BoundReport]]:
    """(divergence, reports): the divergence and the bound pairs named in
    ``theorems`` from one ratio functional (``ratio_functional``, which
    checks the pair and derives the interval), one evaluation of f at its
    nodes and one MomentSet.  Every kept ratio is positive, so the
    divergence is f_divergence's sum."""
    unknown = [name for name in theorems if name not in DIVERGENCE_THEOREMS]
    if unknown:
        raise ValueError(f"unknown theorem {unknown[0]!r}")
    auto = m is None or M is None
    functional, m, M, masses = ratio_functional(p, q, m, M)
    if m <= 0.0:
        raise ValueError("ratios must stay strictly positive for generator "
                         "bounds")
    gen.bundle._check_interval(m, M)
    _spot_check_direction(gen, m, M)
    phi_vals = _eval(gen.bundle.f, functional.nodes)
    ms = moments(functional, gen.bundle, m, M, phi_vals=phi_vals)
    reports = _pair_reports(ms, gen.bundle, m, M, theorems,
                            _resolve_orientation(gen.convexity_verdict()), "divergence_",
                            {"m": m, "M": M, "interval_auto_derived": auto,
                             "generator": gen.name, "params": list(gen.params)})
    return float(masses @ phi_vals), reports


def divergence_bounds(p, q, gen: GeneratorFunction, m: float | None = None,
                      M: float | None = None,
                      theorem: str = "derivative") -> BoundReport:
    """The bound pair named ``theorem``: divergence_pass of that one."""
    return divergence_pass(p, q, gen, m, M, (theorem,))[1][0]
