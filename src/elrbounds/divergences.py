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
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .divided_diff import FunctionBundle, _eval, _on_positive_axis
from .elr_bounds import (ORIENT_DIRECT, ORIENT_REVERSED, BoundReport, _certified,
                         _check_theorems, _pair_reports)
from .functionals import (DiscreteFunctional, _landed_functional, _parameter, check_weights,
                          moments)

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

# Each named generator and how many parameters it takes: renyi's alpha.
_GENERATOR_PARAMS = {"kl": 0, "hellinger": 0, "renyi": 1, "harmonic": 0, "jeffreys": 0}
GENERATOR_NAMES = tuple(_GENERATOR_PARAMS)

# The bound pairs that the divergence corollaries specialize.
DIVERGENCE_THEOREMS = ("derivative", "taylor")

# Named generators kept by ``generator()``: renyi's alpha is the one
# open-ended key, so a sweep over alphas holds at most this many of them.
GENERATOR_CACHE_SIZE = 64


@dataclass(frozen=True)
class GeneratorFunction:
    """A divergence generator: bundle, name, parameters, and the boundary
    limits needed by the zero-mass conventions.

    ``value_at_zero`` is lim f(t) as t -> 0+ and ``slope_at_inf`` is
    lim f(t)/t as t -> inf; either may be ``math.inf`` or, for custom
    generators that never meet zero masses, ``None``.  ``direction`` is the
    3-convexity direction that ``generator()`` proves from a named
    generator's closed-form third derivative.  It is not a constructor
    argument, so a hand-built or ``replace``d generator has ``None``, and
    its bundle is certified on each interval instead.
    """

    bundle: FunctionBundle
    direction: str | None = field(default=None, init=False)
    name: str
    params: tuple[float, ...] = ()
    value_at_zero: float | None = None
    slope_at_inf: float | None = None


def generator(name: str, alpha: float | None = None) -> GeneratorFunction:
    """The named generator; ``renyi`` needs ``alpha`` and the others take
    none.  A custom generator is a ``GeneratorFunction`` built by hand.

    Each name, and each ``float(alpha)`` of renyi (``_parameter``: not a
    bool or a string), is built once and then returned as the same frozen
    object (the GENERATOR_CACHE_SIZE most recent); a refused input is
    refused on every call."""
    if name not in GENERATOR_NAMES:
        raise ValueError(f"unknown generator {name!r}")
    # the cache key is the name as spelled here: the one given may be unhashable
    name = GENERATOR_NAMES[GENERATOR_NAMES.index(name)]
    if not _GENERATOR_PARAMS[name]:
        if alpha is not None:
            raise ValueError(f"{name} generator takes no alpha")
        return _named(name, None)
    if alpha is None:
        raise ValueError("renyi generator requires alpha")
    a = _parameter(alpha, "renyi alpha")
    if not math.isfinite(a * (a - 1.0) * (a - 2.0)):
        raise ValueError(f"renyi alpha {alpha!r} overflows its third derivative")
    # -0.0 == 0.0, but each prints its own sign in the bundle name and params
    return _named(name, (a, math.copysign(1.0, a)))


# Each generator but renyi: f, d1, d2 and d3 on (0, inf), the
# bundle's name, and the limits value_at_zero and slope_at_inf.
_FIXED = {
    "kl": (lambda t: t * np.log(t), lambda t: np.log(t) + 1.0, lambda t: 1.0 / t,
           lambda t: -1.0 / t ** 2, "t*log(t)", 0.0, math.inf),
    "hellinger": (lambda t: 0.5 * (1.0 - np.sqrt(t)) ** 2,
                  lambda t: 0.5 * (1.0 - 1.0 / np.sqrt(t)),
                  lambda t: 0.25 * t ** -1.5, lambda t: -0.375 * t ** -2.5,
                  "(1-sqrt(t))^2/2", 0.5, 0.5),
    "harmonic": (lambda t: 2.0 * t / (1.0 + t), lambda t: 2.0 / (1.0 + t) ** 2,
                 lambda t: -4.0 / (1.0 + t) ** 3, lambda t: 12.0 / (1.0 + t) ** 4,
                 "2t/(1+t)", 0.0, 0.0),
    "jeffreys": (lambda t: (t - 1.0) * np.log(t), lambda t: np.log(t) + 1.0 - 1.0 / t,
                 lambda t: 1.0 / t + 1.0 / t ** 2, lambda t: -1.0 / t ** 2 - 2.0 / t ** 3,
                 "(t-1)*log(t)", math.inf, math.inf),
}


@lru_cache(maxsize=GENERATOR_CACHE_SIZE)
def _named(name: str, key: tuple[float, float] | None) -> GeneratorFunction:
    """Build the generator ``name``, renyi's with alpha ``key[0]``."""
    if key is None:
        *derivatives, label, at_zero, at_inf = _FIXED[name]
        gen = GeneratorFunction(bundle=_on_positive_axis(label, *derivatives), name=name,
                                value_at_zero=at_zero, slope_at_inf=at_inf)
    else:
        a = key[0]
        # the k-th derivative c*t^(a-k), identically 0 when c is: t^(a-k)
        # may be inf at t = 0, and 0*inf is a nan
        power = lambda k, c: (lambda t: c * t ** (a - k)) if c else np.zeros_like
        gen = GeneratorFunction(
            bundle=_on_positive_axis(
                f"t^{a}", lambda t: t ** a, power(1.0, a), power(2.0, a * (a - 1.0)),
                power(3.0, a * (a - 1.0) * (a - 2.0))),
            name="renyi", params=(a,),
            value_at_zero=(0.0 if a > 0 else 1.0 if a == 0 else math.inf),
            slope_at_inf=(0.0 if a < 1 else 1.0 if a == 1 else math.inf))
    # proved by the closed-form d3 of the module docstring on (0, inf): only
    # harmonic's is positive, and renyi's has the sign of a(a-1)(a-2), the
    # constant of c*t^(a-3) (identically 0 for a in {0, 1, 2})
    convex = (0.0 <= a <= 1.0 or a >= 2.0) if name == "renyi" else name == "harmonic"
    object.__setattr__(gen, "direction", F_3CONVEX if convex else NEG_F_3CONVEX)
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
    if lo < m or hi > M:
        outside = (ratios < m) | (ratios > M)
        raise ValueError(f"ratio outside [m, M]: {float(ratios[outside][0])!r}")
    if m == M:
        raise ValueError("degenerate interval: all ratios coincide; supply a "
                         "wider [m, M]")
    # The kept masses need only make_functional's landing: _check_pair has
    # checked every q_i, and dropping exact zeros leaves the real sum of q,
    # which it has checked to lie within WEIGHT_DRIFT_TOL of 1, unchanged;
    # every ratio is finite and the masses are positive.
    return _landed_functional(ratios, masses, float(masses.sum())), m, M, masses


def divergence_pass(p, q, gen: GeneratorFunction, m: float | None = None,
                    M: float | None = None, theorems=DIVERGENCE_THEOREMS
                    ) -> tuple[float, list[BoundReport]]:
    """(divergence, reports): the divergence and the bound pairs named in
    ``theorems`` from one ratio functional (``ratio_functional``, which
    checks the pair and derives the interval), one evaluation of f at its
    nodes and one MomentSet.  Every kept ratio is positive, so the
    divergence is f_divergence's sum."""
    _check_theorems(theorems, DIVERGENCE_THEOREMS)
    auto = m is None or M is None
    functional, m, M, masses = ratio_functional(p, q, m, M)
    if m <= 0.0:
        raise ValueError("ratios must stay strictly positive for generator "
                         "bounds")
    gen.bundle._check_interval(m, M)
    if gen.direction is None:
        orientation = _certified(gen.bundle, m, M)[1]
    else:
        orientation = ORIENT_DIRECT if gen.direction == F_3CONVEX else ORIENT_REVERSED
    phi_vals = _eval(gen.bundle.f, functional.nodes)
    ms = moments(functional, gen.bundle, m, M, phi_vals=phi_vals)
    reports = _pair_reports(ms, gen.bundle, m, M, theorems, orientation, "divergence_",
                            {"m": m, "M": M, "interval_auto_derived": auto,
                             "generator": gen.name, "params": list(gen.params)})
    return float(masses @ phi_vals), reports


def divergence_bounds(p, q, gen: GeneratorFunction, m: float | None = None,
                      M: float | None = None,
                      theorem: str = "derivative") -> BoundReport:
    """The bound pair named ``theorem``: divergence_pass of that one."""
    return divergence_pass(p, q, gen, m, M, (theorem,))[1][0]
