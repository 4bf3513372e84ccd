"""Randomized falsification harness for the bound chains.

Draws random functionals, intervals and 3-convex (or 3-concave) target
functions, evaluates every bound pair through the public API and records
any bracket violation beyond tolerance.  Used by the command line
``verify`` command and by the acceptance suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.interpolate import BSpline

from .divided_diff import FunctionBundle, certify_3convex
from .elr_bounds import THEOREMS, bounds
from .functionals import DiscreteFunctional, make_functional, moments
from .registry import resolve_phi

__all__ = [
    "FuzzReport",
    "random_three_convex_bundle",
    "random_functional",
    "draw_bundle",
    "bracket_fuzz",
]


def random_three_convex_bundle(rng: np.random.Generator, lo: float,
                               hi: float) -> FunctionBundle:
    """A bundle whose third derivative is a random nonnegative cubic
    B-spline on [lo, hi], integrated three times.

    B-splines with nonnegative coefficients are nonnegative, so the result
    is 3-convex by construction, with exactly consistent derivative data
    from the spline antiderivatives.
    """
    degree = 3
    n_coef = int(rng.integers(4, 9))
    interior = np.sort(rng.uniform(lo, hi, max(n_coef - degree - 1, 0)))
    knots = np.concatenate([[lo] * (degree + 1), interior, [hi] * (degree + 1)])
    coef = rng.uniform(0.0, 3.0, n_coef)
    d3 = BSpline(knots, coef, degree, extrapolate=True)
    d2 = d3.antiderivative(1)
    d1 = d2.antiderivative(1)
    return FunctionBundle(domain_lo=lo, domain_hi=hi, f=d1.antiderivative(1),
                          d1=d1, d2=d2, d3=d3, name="spline3convex")


def random_functional(rng: np.random.Generator, m: float, M: float,
                      max_nodes: int = 50) -> DiscreteFunctional:
    """Random nodes in [m, M] (endpoints occasionally included) with
    random normalized weights."""
    k = int(rng.integers(1, max_nodes + 1))
    nodes = rng.uniform(m, M, k)
    if k >= 2 and rng.random() < 0.25:
        nodes[0] = m
        nodes[1] = M
    weights = rng.uniform(0.0, 1.0, k) + 1e-12
    weights /= weights.sum()
    return make_functional(nodes, weights)


_POOL = ("cubic", "quartic", "exp", "xlogx", "spline")


def draw_bundle(rng: np.random.Generator, name: str, lo: float,
                hi: float) -> FunctionBundle:
    if name == "spline":
        return random_three_convex_bundle(rng, lo, hi)
    return resolve_phi({"name": name})


def draw_interval(rng: np.random.Generator, name: str) -> tuple[float, float]:
    # xlogx lives on positive arguments; the quartic is 3-convex only
    # where its third derivative 24x keeps one sign
    lo_min, lo_max = (0.05, 3.0) if name in ("xlogx", "quartic") else (-5.0, 3.0)
    m = rng.uniform(lo_min, lo_max)
    M = min(m + rng.uniform(0.1, 2.5), 5.0)
    return float(m), float(M)


@dataclass(frozen=True)
class FuzzReport:
    seed: int
    count: int
    max_violation: float
    violations: list

    @property
    def clean(self) -> bool:
        return not self.violations


def bracket_fuzz(seed: int, instances: int, tolerance: float = 1e-9,
                 batch: int = 400) -> FuzzReport:
    """Run ``instances`` random bracket checks over all three bound pairs,
    in both the direct and the reversed orientation.

    Returns a report whose violations (sorted by magnitude, largest first)
    carry enough of the instance to reproduce it.
    """
    rng = np.random.default_rng(seed)
    violations: list[dict] = []
    done = 0
    while done < instances:
        take = min(batch, instances - done)
        name = _POOL[int(rng.integers(len(_POOL)))]
        m, M = draw_interval(rng, name)
        bundle = draw_bundle(rng, name, m, M)
        cert = certify_3convex(bundle, m, M, 65)
        neg = bundle.negated()
        neg_cert = certify_3convex(neg, m, M, 65)
        for _ in range(take):
            functional = random_functional(rng, m, M)
            for target, certificate in ((bundle, cert), (neg, neg_cert)):
                ms = moments(functional, target, m, M)
                for theorem in THEOREMS:
                    report = bounds(theorem, functional, target, m, M,
                                    certificate, precomputed=ms)
                    excess = report.violation()
                    if excess > tolerance:
                        violations.append({
                            "theorem": theorem,
                            "orientation": report.orientation,
                            "violation": excess,
                            "phi": target.name,
                            "interval": [m, M],
                            "nodes": functional.nodes.tolist(),
                            "weights": functional.weights.tolist(),
                        })
        done += take
    violations.sort(key=lambda v: v["violation"], reverse=True)
    max_violation = violations[0]["violation"] if violations else 0.0
    return FuzzReport(seed=seed, count=instances,
                      max_violation=max_violation, violations=violations)
