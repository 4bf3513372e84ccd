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
import numbers
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from typing import Callable

import numpy as np

from .divided_diff import FunctionBundle, _check_order, _is_number
from .divergences import ratio_functional
from .elr_bounds import _read_ends, _refuse_overflow, _slopes, theorem_triple
from .functionals import DiscreteFunctional, MomentBasis, _node_values, moment_basis

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
    pair for indices 7-10.

    A context computes once, at its first Gamma, the moments that do not
    depend on the bundle (``basis``: the node check, mean, cross, sq_lo and
    sq_hi), and once per bundle its Gamma; ``dataclasses.replace`` gives a
    context that starts both afresh.
    """

    index: int
    functional: DiscreteFunctional
    m: float
    M: float
    # Gamma of each bundle seen here; a bundle hashes by identity
    _gammas: dict = field(default_factory=dict, init=False, repr=False,
                          compare=False)

    def __post_init__(self):
        _check_index(self.index)
        _check_order(self.m, self.M)

    @cached_property
    def basis(self) -> MomentBasis:
        """The bundle-free moments of the functional on [m, M]."""
        return moment_basis(self.functional, self.m, self.M)


def _check_index(index) -> None:
    # a bool is no index, though True == 1
    if not (_is_number(index, numbers.Real) and index in THEOREM_BY_INDEX):
        raise ValueError("functional index must be in 1..10")


def elr_context(index: int, functional: DiscreteFunctional, m: float,
                M: float) -> GammaContext:
    """Context for indices 1-6."""
    m, M = float(m), float(M)
    _check_index(index)
    if index in (7, 8, 9, 10):
        raise ValueError(f"index {index} requires a divergence context, got 'elr'")
    return GammaContext(index=index, functional=functional, m=m, M=M)


def divergence_context(index: int, p, q, m: float | None = None,
                       M: float | None = None) -> GammaContext:
    """Context for indices 7-10; [m, M] defaults to the ratio range
    widened to include 1 and must hold every ratio."""
    functional, m, M, _ = ratio_functional(p, q, m, M)
    _check_index(index)
    if index in (1, 2, 3, 4, 5, 6):
        raise ValueError(f"index {index} requires a elr context, got 'divergence'")
    return GammaContext(index=index, functional=functional, m=m, M=M)


def gamma(ctx: GammaContext, bundle: FunctionBundle) -> float:
    """Value of the indexed functional on the bundle.

    Defined as (mid - lower) for odd indices and (upper - mid) for even
    ones, taken from the bound pair named by the index, which makes the
    value nonnegative whenever the bundle is 3-convex on [m, M].  It is
    computed once per bundle and context, from the context's basis and the
    rows its theorem reads: f at the nodes, and phi' there only for the
    derivative pair (indices 3, 4, 7 and 8), after [m, M] passes the
    bundle's domain rule, and one endpoint read, after the node checks,
    which also gives phi' at the nodes on an end.  A value that is not
    finite is refused, for the interval when the moments on it overflow.
    """
    value = ctx._gammas.get(bundle)
    if value is None:
        m, M = ctx.m, ctx.M
        bundle._check_interval(m, M)
        theorem = THEOREM_BY_INDEX[ctx.index]
        basis = ctx.basis
        phi_vals = _node_values(bundle.f, basis.nodes)
        ends = _read_ends(bundle, m, M, (theorem,))
        ms = basis.moments(bundle, theorem == "derivative", _slopes(ends), phi_vals)
        lower, mid, upper = theorem_triple(theorem, ms, bundle, m, M, ends)
        value = mid - lower if ctx.index % 2 == 1 else upper - mid
        if not math.isfinite(value):
            _refuse_overflow(ms, m, M)
            raise ValueError(f"Gamma_{ctx.index} of {bundle.name!r} is not "
                             f"finite: {value!r}")
        ctx._gammas[bundle] = value
    return value


@dataclass
class GammaCurve:
    """The map t -> Gamma(phi_t) over a parameterized bundle family; each
    value is kept by the context, under the bundle ``family(t)`` returns."""

    context: GammaContext
    family: Callable[[float], FunctionBundle]
    t_grid: np.ndarray

    def __post_init__(self):
        self.t_grid = np.asarray(self.t_grid, dtype=float).reshape(-1)
        bad = self.t_grid[~np.isfinite(self.t_grid)]
        if bad.size:
            raise ValueError(f"t_grid must be finite, got {float(bad[0])!r}")
        if self.t_grid.size and (np.diff(self.t_grid) <= 0).any():
            raise ValueError("t_grid must be strictly increasing")

    def value(self, t: float) -> float:
        return gamma(self.context, self.family(float(t)))


@dataclass(frozen=True)
class ExpConvexityResult:
    passed: bool
    min_eigenvalue: float
    subsets_checked: int


def exp_convexity_check(curve: GammaCurve, n: int) -> ExpConvexityResult:
    """Test n-exponential convexity of the curve in the Jensen sense.

    For sampled n-point subsets of the grid the Gram matrix
    G[j, k] = Gamma(phi at (t_j + t_k)/2) must be positive semidefinite;
    all subsets are checked when there are at most 200, otherwise 200 are
    drawn by ``np.random.default_rng(0)``, so a check repeats exactly.  A
    subset passes when its smallest eigenvalue is at least -1e-10 times
    its spectral norm, so 2^k * phi gets phi's verdict (an all-zero Gram
    matrix passes).
    """
    if not _is_number(n, numbers.Integral):
        raise ValueError(f"order must be an integer, got {n!r}")
    grid = curve.t_grid
    if grid.size < n:
        raise ValueError("grid too small for the requested order")
    if n < 1:
        raise ValueError("order must be at least 1")
    if math.comb(grid.size, n) <= MAX_SUBSETS:
        subsets = list(combinations(range(grid.size), n))
    else:
        rng = np.random.default_rng(0)
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
        if eigs[0] < -PSD_FLOOR * np.abs(eigs).max():
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


# Parameter gaps at or below this are the diagonal of a two-parameter
# quotient; its closed limit rows also snap this close to a singular value.
EQUAL_PARAM_TOL = 1e-8
DERIVATIVE_STEP = 1e-5


def _positive_value(gamma_at: Callable[[float], float], u: float) -> float:
    value = gamma_at(u)
    if value <= 0:
        raise ValueError("two-parameter quotient requires strictly positive "
                         f"functional values (got {value!r} at parameter {u!r})")
    return value


def _quotient(gamma_at: Callable[[float], float], s: float, t: float,
              ratio_map: Callable, diagonal: Callable) -> float:
    """ratio_map(G(s)/G(t), s - t) for s > t with G = gamma_at, in that order
    so that exchanging s and t changes no bit; a gap of at most 1e-8 is the
    diagonal, diagonal(midpoint, G).  Every G value must be strictly positive,
    and a quotient that overflows (an ill-conditioned G) is refused."""
    s, t = float(s), float(t)
    if s < t:
        s, t = t, s
    try:
        if s - t > EQUAL_PARAM_TOL:
            return ratio_map(_positive_value(gamma_at, s)
                             / _positive_value(gamma_at, t), s - t)
        return diagonal(0.5 * (s + t), lambda u: _positive_value(gamma_at, u))
    except OverflowError:
        raise ValueError(f"two-parameter quotient at ({s!r}, {t!r}) overflows") from None


def stolarsky_quotient(curve: GammaCurve, s: float, t: float) -> float:
    """The two-parameter quotient (G(s)/G(t))^(1/(s-t)).

    Within 1e-8 of the diagonal the ratio branch is replaced by
    exp(d log G / ds) at the midpoint, computed by a central difference
    with step 1e-5.  The curve must be strictly positive where sampled.
    """
    def central_difference(u: float, positive: Callable[[float], float]) -> float:
        g_hi = positive(u + DERIVATIVE_STEP)
        g_lo = positive(u - DERIVATIVE_STEP)
        return math.exp((math.log(g_hi) - math.log(g_lo))
                        / (2.0 * DERIVATIVE_STEP))

    return _quotient(curve.value, s, t, lambda ratio, gap: ratio ** (1.0 / gap),
                     central_difference)
