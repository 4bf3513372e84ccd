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

from .divided_diff import FunctionBundle, _eval

__all__ = [
    "DiscreteFunctional",
    "MomentSet",
    "check_weights",
    "make_functional",
    "make_functionals",
    "FunctionalBatch",
    "row_blocks",
    "apply",
    "moments",
    "moments_batch",
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


def check_weights(weights, label: str = "weights") -> np.ndarray:
    """The flat float array of weights that form a probability vector:
    non-empty, finite, nonnegative, summing to 1 within WEIGHT_DRIFT_TOL.
    ``label`` names the vector in error messages."""
    weights = _floats(weights, label)
    _check_entries(weights, label)
    _check_sums(weights, (float(weights.sum()),), label)
    return weights


def _floats(entries, label: str) -> np.ndarray:
    """The entries as a flat float array; a non-numeric entry is a
    ValueError naming the vector."""
    try:
        return np.asarray(entries, dtype=float).reshape(-1)
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"{label} must be a list of numbers") from exc


def _check_entries(weights: np.ndarray, label: str) -> None:
    """The entrywise part of the check_weights rule, which must come before
    any sum: numpy warns when it adds inf and -inf, or overflows."""
    if weights.size == 0:
        raise ValueError(f"{label} has no weights")
    if (weights < 0).any():
        raise ValueError(f"negative weight in {label}")
    if (weights > 1.0 + WEIGHT_DRIFT_TOL).any():
        if not np.isfinite(weights).all():
            raise ValueError(f"non-finite weight in {label}")
        raise ValueError(f"weights of {label} must sum to 1 (got a weight "
                         f"{float(weights.max())!r})")


def _check_sums(weights: np.ndarray, sums, label: str) -> None:
    """The rest of the check_weights rule, given the sum of each vector
    whose entries make up the flat ``weights``."""
    for total in sums:
        if not abs(total - 1.0) <= WEIGHT_DRIFT_TOL:
            # with no entry negative, a sum is finite unless an entry is
            # not (or the sum overflows, which is a sum off 1)
            if not np.isfinite(weights).all():
                raise ValueError(f"non-finite weight in {label}")
            raise ValueError(f"weights of {label} must sum to 1 (got {total!r})")


def row_blocks(values: np.ndarray, shapes) -> list[np.ndarray]:
    """Views of the last axis of ``values``, laid out block after block as
    in FunctionalBatch, as (..., rows, k) arrays: one per (rows, k) in
    ``shapes``."""
    lead = values.shape[:-1]
    blocks, start = [], 0
    for count, k in shapes:
        stop = start + count * k
        blocks.append(values[..., start:stop].reshape(lead + (count, k)))
        start = stop
    return blocks


@dataclass(frozen=True)
class FunctionalBatch:
    """A sequence of discrete functionals, grouped in blocks of equal node
    count so that each block reduces with one stacked product.

    ``nodes`` and ``weights`` hold the rows of all blocks one after
    another; ``shapes`` gives the (rows, nodes per row) of each block and
    ``order`` the index in the sequence of each row (None: the rows are in
    sequence order).
    """

    nodes: np.ndarray
    weights: np.ndarray
    shapes: tuple
    order: np.ndarray | None = None

    def __len__(self) -> int:
        return sum(count for count, _ in self.shapes)

    def functional(self, index: int) -> DiscreteFunctional:
        """The functional at ``index`` of the sequence."""
        row = index if self.order is None else int(np.flatnonzero(self.order == index)[0])
        for nodes, weights in zip(row_blocks(self.nodes, self.shapes),
                                  row_blocks(self.weights, self.shapes)):
            if row < len(nodes):
                return DiscreteFunctional(nodes=nodes[row], weights=weights[row])
            row -= len(nodes)
        raise IndexError(index)


def make_functionals(nodes: np.ndarray, weights: np.ndarray, shapes,
                     order: np.ndarray | None = None) -> FunctionalBatch:
    """A batch of functionals from flat nodes and weights laid out as
    FunctionalBatch stores them: validated in one pass (finite nodes, the
    check_weights rule per row), then renormalized row by row."""
    nodes = np.array(nodes, dtype=float)
    weights = np.array(weights, dtype=float)
    if not nodes.shape == weights.shape == (sum(c * k for c, k in shapes),):
        raise ValueError("nodes, weights and block shapes differ in size")
    if not np.isfinite(nodes).all():
        raise ValueError("nodes must be finite")
    _check_entries(weights, "functional")
    blocks = row_blocks(weights, shapes)
    sums = [block.sum(axis=1) for block in blocks]
    _check_sums(weights, np.concatenate(sums).tolist(), "functional")
    for block, block_sums in zip(blocks, sums):
        block /= block_sums[:, None]
        for row in block:
            _land_on_one(row)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return FunctionalBatch(nodes, weights, tuple(shapes), order)


def make_functional(nodes: Sequence[float], weights: Sequence[float]) -> DiscreteFunctional:
    """Validate and normalize a discrete functional.

    Raises ``ValueError`` for mismatched lengths, non-finite nodes, or
    weights that ``check_weights`` rejects; a weight sum off 1 by at most
    WEIGHT_DRIFT_TOL is renormalized.  The batch of one of make_functionals.
    """
    nodes, weights = _floats(nodes, "nodes"), _floats(weights, "weights")
    if nodes.size != weights.size:
        raise ValueError("nodes and weights differ in length")
    if nodes.size == 0:
        raise ValueError("functional needs at least one node")
    return make_functionals(nodes, weights, ((1, nodes.size),)).functional(0)


def _land_on_one(weights: np.ndarray) -> None:
    """Land the exact real-number mass of the weights on 1, in place, so
    that the exactly-rounded summation in apply() returns 1.0 on the bit;
    the measured drift is itself rounded, hence the short iteration."""
    for _ in range(4):
        # a memoryview yields plain floats without building a list
        drift = math.fsum(memoryview(weights)) - 1.0
        if drift == 0.0:
            break
        weights[weights.argmax()] -= drift


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

    The fields are floats for one functional (``moments``) and arrays with
    one entry per functional for a batch (``moments_batch``).
    ``d_lo``/``d_hi`` are the first-derivative moments and are ``None``
    when the bundle carries no usable first derivative at the nodes (of
    some functional of the batch).
    """

    mean: float        # A(f)
    cross: float       # A[(M-f)(f-m)]
    sq_lo: float       # A[(f-m)^2]
    sq_hi: float       # A[(M-f)^2]
    value: float       # A(phi(f))
    d_lo: float | None = None  # A[(f-m) phi'(f)]
    d_hi: float | None = None  # A[(M-f) phi'(f)]


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


def moments_batch(batch: FunctionalBatch, bundle: FunctionBundle, m: float,
                  M: float) -> MomentSet:
    """All moment quantities of each functional of the batch against the
    bundle on [m, M], as arrays in the batch's sequence order."""
    return MomentSet(*_moment_sums(batch.nodes, batch.weights, batch.shapes,
                                   batch.order, bundle, m, M))


def moments(functional: DiscreteFunctional, bundle: FunctionBundle, m: float,
            M: float) -> MomentSet:
    """All moment quantities of the functional against the bundle on [m, M]."""
    sums = _moment_sums(functional.nodes, functional.weights,
                        ((1, functional.nodes.size),), None, bundle, m, M)
    return MomentSet(*sums[:, 0].tolist())


def _moment_sums(x: np.ndarray, weights: np.ndarray, shapes, order,
                 bundle: FunctionBundle, m: float, M: float) -> np.ndarray:
    """(quantity, functional) array of the MomentSet fields of the batch
    with these FunctionalBatch fields, without the derivative moments when
    the bundle cannot supply them.

    The bundle is evaluated once over the nodes of the whole batch; each
    block then reduces with one stacked product, which computes every row
    exactly as ``w @ v`` computes one functional.
    """
    if not m < M:
        raise ValueError("degenerate interval: m must lie strictly below M")
    if x.min() < m or x.max() > M:
        bad = float(x[(x < m) | (x > M)][0])
        raise ValueError(f"node escapes interval [{m}, {M}]: {bad!r}")

    phi_vals = _eval(bundle.f, x)
    if not np.isfinite(phi_vals).all():
        bad = float(x[~np.isfinite(phi_vals)][0])
        raise ValueError(f"functional argument is not finite at node {bad!r}")
    try:
        dvals = node_derivatives(bundle, x, m, M)
    except ValueError:
        dvals = None
    # summands in MomentSet field order, written in place; a moment may
    # overflow to inf, or be a nan where an end node meets an infinite
    # derivative (0 * inf), and BoundReport refuses a pair that is not finite
    terms = np.empty((5 if dvals is None else 7, x.size))
    terms[0] = x
    terms[4] = phi_vals
    with np.errstate(over="ignore", invalid="ignore"):
        lo, hi = x - m, M - x
        np.multiply(hi, lo, out=terms[1])
        np.square(lo, out=terms[2])
        np.square(hi, out=terms[3])
        if dvals is not None:
            np.multiply(lo, dvals, out=terms[5])
            np.multiply(hi, dvals, out=terms[6])
        parts = [(w[:, None, :] @ block[..., None])[..., 0, 0]
                 for w, block in zip(row_blocks(weights, shapes), row_blocks(terms, shapes))]
    sums = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)
    if order is not None:
        sums[:, order] = sums.copy()
    return sums
