"""Discrete positive linear functionals and their moment quantities.

The functional is a finite weighted average: nonnegative weights summing
to one attached to real nodes.  Every bound in this package is expressed
through a handful of moments of the node values against a function bundle
(mean, endpoint cross products, squared endpoint distances, and first
derivative moments), collected here in one pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .divided_diff import FunctionBundle

__all__ = [
    "DiscreteFunctional",
    "MomentSet",
    "make_functional",
    "apply",
    "moments",
]

# Weight sums drifting from 1 by at most this much are renormalized;
# larger deviations are rejected as modeling errors.
WEIGHT_DRIFT_TOL = 1e-9


@dataclass(frozen=True)
class DiscreteFunctional:
    """Nonnegative weights summing to one attached to real nodes."""

    nodes: np.ndarray
    weights: np.ndarray

    @property
    def size(self) -> int:
        return self.nodes.size


def make_functional(nodes: Sequence[float], weights: Sequence[float]) -> DiscreteFunctional:
    """Validate and normalize a discrete functional.

    Raises ``ValueError`` for mismatched lengths, negative weights, or a
    weight sum off 1 by more than 1e-9; smaller drift is renormalized.
    """
    nodes = np.asarray(nodes, dtype=float).reshape(-1)
    weights = np.asarray(weights, dtype=float).reshape(-1).copy()
    if nodes.size != weights.size:
        raise ValueError("nodes and weights differ in length")
    if nodes.size == 0:
        raise ValueError("functional needs at least one node")
    if not np.isfinite(nodes).all():
        raise ValueError("nodes must be finite")
    if (weights < 0).any():
        raise ValueError("negative weight in functional")
    total = float(weights.sum())
    if abs(total - 1.0) > WEIGHT_DRIFT_TOL:
        raise ValueError(f"weights must sum to 1 (got {total!r})")
    weights /= total
    # land the exact real-number mass on 1, so that the exactly-rounded
    # summation in apply() returns 1.0 on the bit; the measured drift is
    # itself rounded, hence the short iteration
    for _ in range(4):
        drift = math.fsum(weights) - 1.0
        if drift == 0.0:
            break
        weights[int(np.argmax(weights))] -= drift
    nodes = nodes.copy()
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return DiscreteFunctional(nodes=nodes, weights=weights)


def _eval(g: Callable, x: np.ndarray) -> np.ndarray:
    """Evaluate g elementwise, tolerating non-vectorized callables."""
    try:
        vals = np.asarray(g(x), dtype=float)
        if vals.shape != x.shape:
            raise TypeError
    except TypeError:
        vals = np.array([float(g(v)) for v in x])
    return vals


def apply(functional: DiscreteFunctional, g: Callable) -> float:
    """The functional applied to g: sum of w_i * g(x_i).

    Raises ``ValueError`` if g is not finite at some node, carrying the
    offending node in the message.
    """
    vals = _eval(g, functional.nodes)
    finite = np.isfinite(vals)
    if not finite.all():
        bad = float(functional.nodes[~finite][0])
        raise ValueError(f"functional argument is not finite at node {bad!r}")
    # exactly-rounded summation keeps A(1) == 1 on the bit
    return math.fsum(functional.weights * vals)


@dataclass(frozen=True)
class MomentSet:
    """Moments of the node values under the functional on [m, M].

    ``d_lo``/``d_hi`` are the first-derivative moments and are ``None``
    when the bundle carries no usable first derivative at the nodes.
    """

    mean: float        # A(f)
    cross: float       # A[(M-f)(f-m)]
    sq_lo: float       # A[(f-m)^2]
    sq_hi: float       # A[(M-f)^2]
    value: float       # A(phi(f))
    d_lo: float | None  # A[(f-m) phi'(f)]
    d_hi: float | None  # A[(M-f) phi'(f)]


def node_derivatives(bundle: FunctionBundle, x: np.ndarray, m: float,
                     M: float) -> np.ndarray:
    """phi' at the nodes: two-sided in the interior, one-sided at m and M."""
    out = np.empty_like(x)
    at_m = x == m
    at_M = x == M
    interior = ~(at_m | at_M)
    if interior.any():
        if bundle.d1 is None:
            raise ValueError(
                f"insufficient bundle: d1 of {bundle.name!r} unavailable at "
                "interior nodes")
        out[interior] = _eval(bundle.d1, x[interior])
    for end, at_end in ((m, at_m), (M, at_M)):
        if at_end.any():
            out[at_end] = bundle.deriv(1, end)
    return out


def moments(functional: DiscreteFunctional, bundle: FunctionBundle, m: float,
            M: float) -> MomentSet:
    """All moment quantities of the functional against the bundle on [m, M]."""
    if not m < M:
        raise ValueError("degenerate interval: m must lie strictly below M")
    x = functional.nodes
    w = functional.weights
    if (x < m).any() or (x > M).any():
        bad = float(x[(x < m) | (x > M)][0])
        raise ValueError(f"node escapes interval [{m}, {M}]: {bad!r}")

    phi_vals = _eval(bundle.f, x)
    if not np.isfinite(phi_vals).all():
        bad = float(x[~np.isfinite(phi_vals)][0])
        raise ValueError(f"functional argument is not finite at node {bad!r}")
    mean = float(w @ x)
    value = float(w @ phi_vals)
    cross = float(w @ ((M - x) * (x - m)))
    sq_lo = float(w @ ((x - m) ** 2))
    sq_hi = float(w @ ((M - x) ** 2))
    try:
        dvals = node_derivatives(bundle, x, m, M)
        d_lo = float(w @ ((x - m) * dvals))
        d_hi = float(w @ ((M - x) * dvals))
    except ValueError:
        d_lo = None
        d_hi = None
    return MomentSet(mean=mean, cross=cross, sq_lo=sq_lo, sq_hi=sq_hi,
                     value=value, d_lo=d_lo, d_hi=d_hi)
