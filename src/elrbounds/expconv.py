"""Positive linear functionals built from the bound pairs, exponential
convexity testing, log-convexity (Lyapunov) checks and Stolarsky quotients.

Ten functionals are indexed 1..10.  Odd indices measure the gap between
the mid quantity and its lower bound, even indices between the upper bound
and the mid quantity, so every functional is nonnegative on 3-convex
input.  Indices 1-6 act on a discrete functional context (secant,
derivative and taylor pairs in that order); 7-10 act on a pair of
probability vectors through the divergence specialization (derivative pair
for 7/8, taylor pair for 9/10).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable

import numpy as np

from .divided_diff import FunctionBundle
from .divergences import _auto_interval, ratio_functional
from .elr_bounds import theorem_triple
from .functionals import DiscreteFunctional

__all__ = [
    "GammaContext",
    "GammaCurve",
    "ExpConvexityResult",
    "elr_context",
    "divergence_context",
    "gamma",
    "exp_convexity_check",
    "lyapunov_check",
    "stolarsky_quotient",
]

THEOREM_BY_INDEX = {
    1: "secant", 2: "secant",
    3: "derivative", 4: "derivative",
    5: "taylor", 6: "taylor",
    7: "derivative", 8: "derivative",
    9: "taylor", 10: "taylor",
}

# Gram eigenvalues may dip below zero by this much, relative to the
# matrix scale, before the positive-semidefiniteness check fails.
PSD_FLOOR = 1e-10

# Cap on sampled index subsets per size in the exponential-convexity check.
MAX_SUBSETS = 200


@dataclass(frozen=True)
class GammaContext:
    """Where a functional of the family acts: a discrete functional on
    [m, M] for indices 1-6, a ratio functional built from a distribution
    pair for indices 7-10."""

    index: int
    functional: DiscreteFunctional
    m: float
    M: float
    kind: str

    def __post_init__(self):
        if self.index not in THEOREM_BY_INDEX:
            raise ValueError("functional index must be in 1..10")
        expected = "elr" if self.index <= 6 else "divergence"
        if self.kind != expected:
            raise ValueError(
                f"index {self.index} requires a {expected} context, got "
                f"{self.kind!r}")
        if not self.m < self.M:
            raise ValueError("degenerate interval: m must lie strictly below M")


def elr_context(index: int, functional: DiscreteFunctional, m: float,
                M: float) -> GammaContext:
    """Context for indices 1-6."""
    return GammaContext(index=index, functional=functional, m=float(m),
                        M=float(M), kind="elr")


def divergence_context(index: int, p, q, m: float | None = None,
                       M: float | None = None) -> GammaContext:
    """Context for indices 7-10; [m, M] defaults to the ratio range
    widened to include 1."""
    functional, ratios = ratio_functional(p, q)
    m, M, _ = _auto_interval(ratios, m, M)
    return GammaContext(index=index, functional=functional, m=m, M=M,
                        kind="divergence")


def gamma(ctx: GammaContext, bundle: FunctionBundle) -> float:
    """Value of the indexed functional on the bundle.

    Defined as (mid - lower) for odd indices and (upper - mid) for even
    ones, taken from the bound pair named by the index, which makes the
    value nonnegative whenever the bundle is 3-convex on [m, M].
    """
    theorem = THEOREM_BY_INDEX[ctx.index]
    lower, mid, upper = theorem_triple(theorem, ctx.functional, bundle,
                                       ctx.m, ctx.M)
    return mid - lower if ctx.index % 2 == 1 else upper - mid


@dataclass
class GammaCurve:
    """The map t -> Gamma(phi_t) over a parameterized bundle family."""

    context: GammaContext
    family: Callable[[float], FunctionBundle]
    t_grid: np.ndarray
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        self.t_grid = np.asarray(self.t_grid, dtype=float).reshape(-1)
        if self.t_grid.size and (np.diff(self.t_grid) <= 0).any():
            raise ValueError("t_grid must be strictly increasing")

    def value(self, t: float) -> float:
        t = float(t)
        if t not in self._cache:
            self._cache[t] = gamma(self.context, self.family(t))
        return self._cache[t]


@dataclass(frozen=True)
class ExpConvexityResult:
    passed: bool
    min_eigenvalue: float
    subsets_checked: int


def exp_convexity_check(curve: GammaCurve, n: int,
                        rng: np.random.Generator | None = None) -> ExpConvexityResult:
    """Test n-exponential convexity of the curve in the Jensen sense.

    For sampled n-point subsets of the grid the Gram matrix
    G[j, k] = Gamma(phi at (t_j + t_k)/2) must be positive semidefinite;
    all subsets are checked when there are at most 200, otherwise 200 are
    drawn at random.  A subset passes when its smallest eigenvalue is at
    least -1e-10 times max(1, spectral norm).
    """
    grid = curve.t_grid
    if grid.size < n:
        raise ValueError("grid too small for the requested order")
    if n < 1:
        raise ValueError("order must be at least 1")
    total = math.comb(grid.size, n)
    if total <= MAX_SUBSETS:
        subsets = list(combinations(range(grid.size), n))
    else:
        rng = np.random.default_rng(0) if rng is None else rng
        subsets = [tuple(sorted(rng.choice(grid.size, size=n, replace=False)))
                   for _ in range(MAX_SUBSETS)]
    passed = True
    min_eig = math.inf
    for subset in subsets:
        ts = grid[list(subset)]
        G = np.empty((n, n))
        for j in range(n):
            for k in range(j, n):
                G[j, k] = G[k, j] = curve.value(0.5 * (ts[j] + ts[k]))
        eigs = np.linalg.eigvalsh(G)
        scale = max(1.0, float(np.abs(eigs).max()))
        if eigs[0] < -PSD_FLOOR * scale:
            passed = False
        min_eig = min(min_eig, float(eigs[0]))
    return ExpConvexityResult(passed=passed, min_eigenvalue=min_eig,
                              subsets_checked=len(subsets))


def lyapunov_check(curve: GammaCurve, r: float, s: float,
                   t: float) -> tuple[bool, float]:
    """Log-convexity inequality of the curve at r < s < t.

    Returns (holds, residual) where the residual is
    (t-r) log G(s) - (t-s) log G(r) - (s-r) log G(t); the inequality holds
    when the residual is at most 1e-9.  The curve must be strictly
    positive at the three parameters.
    """
    if not r < s < t:
        raise ValueError("parameters must satisfy r < s < t")
    gr, gs, gt = curve.value(r), curve.value(s), curve.value(t)
    if min(gr, gs, gt) <= 0:
        raise ValueError("Lyapunov requires strictly positive curve")
    residual = ((t - r) * math.log(gs) - (t - s) * math.log(gr)
                - (s - r) * math.log(gt))
    return residual <= 1e-9, residual


# Parameter gaps below this use the derivative branch of the quotient.
EQUAL_PARAM_TOL = 1e-8
DERIVATIVE_STEP = 1e-5


def stolarsky_quotient(curve: GammaCurve, s: float, t: float) -> float:
    """The two-parameter quotient (G(s)/G(t))^(1/(s-t)).

    Within 1e-8 of the diagonal the ratio branch is replaced by
    exp(d log G / ds) at the midpoint, computed by a central difference
    with step 1e-5.  The curve must be strictly positive where sampled.
    """
    def positive(v: float) -> float:
        if v <= 0:
            raise ValueError("Stolarsky quotient requires strictly positive "
                             "functional values")
        return v

    if s < t:
        s, t = t, s  # symmetric by definition; make that exact
    if abs(s - t) > EQUAL_PARAM_TOL:
        gs = positive(curve.value(s))
        gt = positive(curve.value(t))
        return (gs / gt) ** (1.0 / (s - t))
    mid = 0.5 * (s + t)
    h = DERIVATIVE_STEP
    g_hi = positive(curve.value(mid + h))
    g_lo = positive(curve.value(mid - h))
    return math.exp((math.log(g_hi) - math.log(g_lo)) / (2.0 * h))
