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
from dataclasses import dataclass

import numpy as np

from .divided_diff import FunctionBundle, NEG_THREE_CONVEX, THREE_CONVEX
from .elr_bounds import BoundReport, theorem_triple, _resolve_orientation
from .functionals import DiscreteFunctional, make_functional

__all__ = [
    "GeneratorFunction",
    "F_3CONVEX",
    "NEG_F_3CONVEX",
    "GENERATOR_NAMES",
    "generator",
    "check_probability_vector",
    "f_divergence",
    "divergence_bounds",
]

F_3CONVEX = "f_3convex"
NEG_F_3CONVEX = "neg_f_3convex"

GENERATOR_NAMES = ("kl", "hellinger", "renyi", "harmonic", "jeffreys")


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

    def convexity_verdict(self) -> str:
        return THREE_CONVEX if self.direction == F_3CONVEX else NEG_THREE_CONVEX


def _positive_bundle(f, d1, d2, d3, name) -> FunctionBundle:
    return FunctionBundle(domain_lo=0.0, domain_hi=math.inf, f=f, d1=d1,
                          d2=d2, d3=d3, name=name)


def _renyi_direction(alpha: float) -> str:
    if 0.0 <= alpha <= 1.0 or alpha >= 2.0:
        return F_3CONVEX
    return NEG_F_3CONVEX


def generator(name: str, alpha: float | None = None,
              bundle: FunctionBundle | None = None,
              direction: str | None = None,
              value_at_zero: float | None = None,
              slope_at_inf: float | None = None) -> GeneratorFunction:
    """Build a named generator; ``renyi`` needs ``alpha``, ``custom`` needs
    a full bundle plus a declared direction."""
    if name == "kl":
        return GeneratorFunction(
            bundle=_positive_bundle(
                lambda t: t * np.log(t),
                lambda t: np.log(t) + 1.0,
                lambda t: 1.0 / t,
                lambda t: -1.0 / t ** 2,
                "t*log(t)"),
            direction=NEG_F_3CONVEX, name="kl",
            value_at_zero=0.0, slope_at_inf=math.inf)
    if name == "hellinger":
        return GeneratorFunction(
            bundle=_positive_bundle(
                lambda t: 0.5 * (1.0 - np.sqrt(t)) ** 2,
                lambda t: 0.5 * (1.0 - 1.0 / np.sqrt(t)),
                lambda t: 0.25 * t ** -1.5,
                lambda t: -0.375 * t ** -2.5,
                "(1-sqrt(t))^2/2"),
            direction=NEG_F_3CONVEX, name="hellinger",
            value_at_zero=0.5, slope_at_inf=0.5)
    if name == "renyi":
        if alpha is None:
            raise ValueError("renyi generator requires alpha")
        a = float(alpha)
        return GeneratorFunction(
            bundle=_positive_bundle(
                lambda t: t ** a,
                lambda t: a * t ** (a - 1.0),
                lambda t: a * (a - 1.0) * t ** (a - 2.0),
                lambda t: a * (a - 1.0) * (a - 2.0) * t ** (a - 3.0),
                f"t^{a}"),
            direction=_renyi_direction(a), name="renyi", params=(a,),
            value_at_zero=(0.0 if a > 0 else 1.0 if a == 0 else math.inf),
            slope_at_inf=(0.0 if a < 1 else 1.0 if a == 1 else math.inf))
    if name == "harmonic":
        return GeneratorFunction(
            bundle=_positive_bundle(
                lambda t: 2.0 * t / (1.0 + t),
                lambda t: 2.0 / (1.0 + t) ** 2,
                lambda t: -4.0 / (1.0 + t) ** 3,
                lambda t: 12.0 / (1.0 + t) ** 4,
                "2t/(1+t)"),
            direction=F_3CONVEX, name="harmonic",
            value_at_zero=0.0, slope_at_inf=0.0)
    if name == "jeffreys":
        return GeneratorFunction(
            bundle=_positive_bundle(
                lambda t: (t - 1.0) * np.log(t),
                lambda t: np.log(t) + 1.0 - 1.0 / t,
                lambda t: 1.0 / t + 1.0 / t ** 2,
                lambda t: -1.0 / t ** 2 - 2.0 / t ** 3,
                "(t-1)*log(t)"),
            direction=NEG_F_3CONVEX, name="jeffreys",
            value_at_zero=math.inf, slope_at_inf=math.inf)
    if name == "custom":
        if bundle is None or direction is None:
            raise ValueError("custom generator requires a bundle and a direction")
        if direction not in (F_3CONVEX, NEG_F_3CONVEX):
            raise ValueError(f"unknown direction {direction!r}")
        return GeneratorFunction(bundle=bundle, direction=direction,
                                 name="custom", value_at_zero=value_at_zero,
                                 slope_at_inf=slope_at_inf)
    raise ValueError(f"unknown generator {name!r}")


def check_probability_vector(entries, label: str = "distribution") -> np.ndarray:
    entries = np.asarray(entries, dtype=float).reshape(-1)
    if entries.size == 0:
        raise ValueError(f"{label} is empty")
    if (entries < 0).any():
        raise ValueError(f"{label} has a negative entry")
    total = float(entries.sum())
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"{label} must sum to 1 (got {total!r})")
    return entries


def f_divergence(p, q, gen: GeneratorFunction) -> float:
    """sum_i q_i f(p_i/q_i) under the usual zero-mass conventions.

    A pair (0, 0) contributes nothing; q_i = 0 with p_i = a > 0 contributes
    a * lim f(t)/t; p_i = 0 uses lim f(t) as t -> 0+.  The result is
    ``math.inf`` when a required limit diverges.
    """
    p = check_probability_vector(p, "p")
    q = check_probability_vector(q, "q")
    if p.size != q.size:
        raise ValueError("p and q differ in length")
    total = 0.0
    regular = (q > 0) & (p > 0)
    if regular.any():
        qs = q[regular]
        total += float(qs @ np.asarray(gen.bundle.f(p[regular] / qs), dtype=float))
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


def ratio_functional(p, q) -> tuple[DiscreteFunctional, np.ndarray]:
    """Functional with nodes p_i/q_i and weights q_i (zero-zero pairs
    dropped); the mean of this functional is 1."""
    p = check_probability_vector(p, "p")
    q = check_probability_vector(q, "q")
    if p.size != q.size:
        raise ValueError("p and q differ in length")
    if ((q == 0) & (p > 0)).any():
        raise ValueError("zero q-mass with positive p-mass puts the ratio "
                         "outside every finite interval")
    keep = q > 0
    ratios = p[keep] / q[keep]
    return make_functional(ratios, q[keep]), ratios


def _auto_interval(ratios: np.ndarray, m: float | None,
                   M: float | None) -> tuple[float, float, bool]:
    auto = m is None or M is None
    if m is None:
        m = min(float(ratios.min()), 1.0)
    if M is None:
        M = max(float(ratios.max()), 1.0)
    if not (m <= 1.0 <= M):
        raise ValueError("theorem requires m <= 1 <= M")
    return float(m), float(M), auto


def _spot_check_direction(gen: GeneratorFunction, m: float, M: float) -> None:
    if gen.bundle.d3 is None:
        return
    grid = np.linspace(m, M, 33)
    vals = np.asarray(gen.bundle.d3(grid), dtype=float)
    tol = 1e-12
    if gen.direction == F_3CONVEX and (vals < -tol).any():
        raise ValueError(
            f"generator {gen.name!r} declared 3-convex but its third "
            f"derivative is negative on [{m}, {M}]")
    if gen.direction == NEG_F_3CONVEX and (vals > tol).any():
        raise ValueError(
            f"generator {gen.name!r} declared 3-concave but its third "
            f"derivative is positive on [{m}, {M}]")


def divergence_bounds(p, q, gen: GeneratorFunction, m: float | None = None,
                      M: float | None = None,
                      theorem: str = "derivative") -> BoundReport:
    """Bound pair around the ELR difference of the divergence.

    When the interval is not supplied it is derived from the ratio range,
    widened to include 1.  Delegates to the generic functional bounds with
    nodes p_i/q_i and weights q_i, whose mean is 1.
    """
    if theorem not in ("derivative", "taylor"):
        raise ValueError(f"unknown theorem {theorem!r}")
    if gen.direction not in (F_3CONVEX, NEG_F_3CONVEX):
        raise ValueError("theorem hypotheses unmet: generator direction is "
                         f"{gen.direction!r}")
    functional, ratios = ratio_functional(p, q)
    m, M, auto = _auto_interval(ratios, m, M)
    if m == M:
        raise ValueError("degenerate interval: all ratios coincide; supply a "
                         "wider [m, M]")
    if m <= 0.0:
        raise ValueError("ratios must stay strictly positive for generator "
                         "bounds")
    if (ratios < m).any() or (ratios > M).any():
        bad = ratios[(ratios < m) | (ratios > M)][0]
        raise ValueError(f"ratio outside [m, M]: {bad!r}")
    _spot_check_direction(gen, m, M)
    orientation = _resolve_orientation(gen.convexity_verdict())
    lower, mid, upper = theorem_triple(theorem, functional, gen.bundle, m, M)
    return BoundReport(
        lower=lower, upper=upper, mid=mid, orientation=orientation,
        theorem_tag=f"divergence_{theorem}",
        details={"m": m, "M": M, "interval_auto_derived": auto,
                 "generator": gen.name, "params": list(gen.params)},
    )
