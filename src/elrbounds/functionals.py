"""Discrete positive linear functionals and their moment quantities.

The functional is a finite weighted average: nonnegative weights summing
to one attached to real nodes.  Every bound in this package is expressed
through a handful of moments of the node values against a function bundle
(mean, endpoint cross products, squared endpoint distances, and first
derivative moments), collected here in one pass, or, for many bundles
against one functional, from a bundle-free basis computed once.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .divided_diff import FunctionBundle, _check_order, _eval, _is_number, _is_number_type

__all__ = [
    "DiscreteFunctional",
    "MomentSet",
    "check_weights",
    "make_functional",
    "make_functionals",
    "FunctionalBatch",
    "apply",
    "moments",
    "moments_batch",
    "MomentBasis",
    "moment_basis",
]

# Weight sums drifting from 1 by at most this much are renormalized;
# larger deviations are rejected as modeling errors.
WEIGHT_DRIFT_TOL = 1e-9


@dataclass(frozen=True)
class DiscreteFunctional:
    """Nonnegative weights summing to one attached to real nodes.  Built by
    hand, it is refused with make_functional's messages unless it already
    is one, in flat numeric arrays, stored as float64 (a float64 array as
    given); it is never renormalized.  The package's builders check their
    fields themselves and skip this check (``_functional``)."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        _store_floats(self)
        _check_fields(self.nodes, self.weights)

    @property
    def size(self) -> int:
        return self.nodes.size


def _store_floats(fields) -> None:
    """The nodes and weights of a hand-built functional or batch, each
    of which must be a flat numeric array, stored as float64 (a float64
    array as given)."""
    for label in ("nodes", "weights"):
        values = getattr(fields, label)
        if not (isinstance(values, np.ndarray) and values.ndim == 1
                and values.dtype.kind in "iuf"):
            raise ValueError(f"{label} must be a flat array of numbers")
        object.__setattr__(fields, label, values.astype(float, copy=False))


def _functional(nodes: np.ndarray, weights: np.ndarray) -> DiscreteFunctional:
    """The functional of checked fields (``_check_fields``, or a checked
    batch's rows), made read-only, without __post_init__'s check."""
    nodes.flags.writeable = weights.flags.writeable = False
    functional = object.__new__(DiscreteFunctional)
    object.__setattr__(functional, "nodes", nodes)
    object.__setattr__(functional, "weights", weights)
    return functional


def _check_fields(nodes: np.ndarray, weights: np.ndarray) -> float:
    """The field rules of one functional on flat float arrays, in the order
    of their messages: equal lengths, at least one node, finite nodes, then
    the check_weights rule on the weights; returns the weights' sum."""
    if nodes.size != weights.size:
        raise ValueError("nodes and weights differ in length")
    if nodes.size == 0:
        raise ValueError("functional needs at least one node")
    _check_finite(nodes)
    return _weight_total(weights, "functional")


def _check_finite(nodes: np.ndarray) -> None:
    """The node rule of a functional and of every row of a batch."""
    if not np.isfinite(nodes).all():
        raise ValueError("nodes must be finite")


def check_weights(weights, label: str = "weights") -> np.ndarray:
    """The flat float array of weights that form a probability vector:
    non-empty, finite, nonnegative, summing to 1 within WEIGHT_DRIFT_TOL.
    ``label`` names the vector in error messages."""
    weights = _floats(weights, label)
    _weight_total(weights, label)
    return weights


def _weight_total(weights: np.ndarray, label: str) -> float:
    """The check_weights rule on a flat float array; returns its sum."""
    _check_entries(weights, label)
    # one float compare: an array compare would cost more than the rest
    # of this check, which every divergence and means op makes
    total = float(weights.sum())
    if not abs(total - 1.0) <= WEIGHT_DRIFT_TOL:
        _refuse_sum(weights, repr(total), label)
    return total


def _parameter(value, label: str) -> float:
    """float(value) of a generator or family parameter ``label``, which must
    be a real number (``_is_number``) or a 0-d numeric array."""
    if not (_is_number(value, numbers.Real) or isinstance(value, np.ndarray)
            and value.shape == () and value.dtype.kind in "iuf"):
        raise ValueError(f"{label} must be a number, got {value!r}")
    return float(value)


def _floats(entries, label: str) -> np.ndarray:
    """The entries as a flat float array, from a number, a list or tuple
    of numbers (``_is_number``) or a numeric array of at most one
    dimension; anything else (a bool or a string, alone or as an entry, a
    nested or ragged list) is a ValueError naming the vector."""
    try:
        if isinstance(entries, (list, tuple)):
            if not all(_is_number_type(t, numbers.Real) for t in set(map(type, entries))):
                raise TypeError
        elif isinstance(entries, np.ndarray):
            if entries.dtype.kind not in "iuf":
                raise TypeError
        elif not _is_number(entries, numbers.Real):
            raise TypeError
        values = np.asarray(entries, dtype=float)
        if values.ndim > 1:
            raise TypeError
        return values.reshape(-1)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{label} must be a list of numbers") from exc


def _check_entries(weights: np.ndarray, label: str) -> None:
    """The entrywise part of the check_weights rule, which must come before
    any sum: numpy warns when it adds inf and -inf, or overflows."""
    if weights.size == 0:
        raise ValueError(f"{label} has no weights")
    # one reduction per rule: fmin and fmax skip nans, as the entrywise
    # compares do, so the verdicts and their order are those of
    # (weights < 0).any() and (weights > 1 + WEIGHT_DRIFT_TOL).any()
    if np.fmin.reduce(weights) < 0.0:
        raise ValueError(f"negative weight in {label}")
    top = np.fmax.reduce(weights)
    if top > 1.0 + WEIGHT_DRIFT_TOL:
        # a nan entry is refused as non-finite before this top is shown
        _refuse_sum(weights, f"a weight {float(top)!r}", label)


def _check_sums(weights: np.ndarray, sums: np.ndarray, label: str) -> None:
    """The sum part of the check_weights rule on each vector whose entries
    make up the flat ``weights``, given the array of their sums: one
    comparison over all sums, and the first that fails is refused."""
    within = abs(sums - 1.0) <= WEIGHT_DRIFT_TOL
    first = int(within.argmin())
    if not within[first]:
        _refuse_sum(weights, repr(float(sums[first])), label)


def _refuse_sum(weights: np.ndarray, got: str, label: str) -> None:
    """The check_weights error for a vector of ``weights`` whose sum is off
    1, as ``got`` shows (the sum, or a weight above 1)."""
    # with no entry negative, a sum is finite unless an entry is not (or
    # the sum overflows, which is a sum off 1)
    if not np.isfinite(weights).all():
        raise ValueError(f"non-finite weight in {label}")
    raise ValueError(f"weights of {label} must sum to 1 (got {got})")


@dataclass(frozen=True)
class FunctionalBatch:
    """A sequence of discrete functionals, held as rows one after another
    in the order given: ``nodes`` and ``weights`` hold row after row, and
    row i has ``sizes[i]`` nodes.  moments_batch reduces each run of
    neighbouring rows of equal size with one stacked product, so a batch
    whose rows are grouped by size reduces fastest.

    Built by hand (or by ``dataclasses.replace``), it is refused with
    make_functionals' messages unless every row already is a functional:
    flat numeric arrays, stored as float64 (a float64 array as given), the
    row sizes, finite nodes and the check_weights rule per row; it is never
    renormalized.  The package's builders, make_functionals and
    random_functionals, skip this check (``_landed_batch``).
    """

    nodes: np.ndarray
    weights: np.ndarray
    sizes: np.ndarray

    def __post_init__(self):
        _store_floats(self)
        sizes = _row_sizes(self.sizes)
        _check_rows(self.nodes, self.weights, sizes)
        object.__setattr__(self, "sizes", sizes)

    def __len__(self) -> int:
        return self.sizes.size

    def functional(self, index: int) -> DiscreteFunctional:
        """The functional of row ``index``, an integer (``_is_number``: a
        bool is no index, nor is a float)."""
        if not _is_number(index, numbers.Integral):
            raise TypeError(f"index {index!r} is not an integer")
        if not 0 <= index < len(self):
            raise IndexError(f"index {index} is out of range for a batch of "
                             f"{len(self)} functionals")
        start = int(self.sizes[:index].sum())
        stop = start + int(self.sizes[index])
        return _functional(self.nodes[start:stop], self.weights[start:stop])


def make_functionals(nodes: np.ndarray, weights: np.ndarray, sizes) -> FunctionalBatch:
    """A batch of functionals from flat nodes and weights laid out as
    FunctionalBatch stores them, which it copies: validated in one pass
    (row sizes that are integers >= 1, finite nodes, the check_weights rule
    per row), then built by ``_landed_batch``, which renormalizes each
    row."""
    sizes = _row_sizes(sizes)
    nodes = np.array(nodes, dtype=float)
    weights = np.array(weights, dtype=float)
    _check_rows(nodes, weights, sizes)
    return _landed_batch(nodes, weights, sizes)


def _row_sizes(sizes) -> np.ndarray:
    """The row sizes as an integer array; each must be an integer
    (``_is_number``) >= 1, and the first that is not is refused."""
    for size in sizes:
        if not (_is_number(size, numbers.Integral) and size >= 1):
            raise ValueError(f"each row size must be an integer >= 1, got {size!r}")
    return np.array(sizes, dtype=np.intp)


def _check_rows(nodes: np.ndarray, weights: np.ndarray, sizes: np.ndarray) -> None:
    """The rules of a batch on flat float nodes and weights whose rows have
    the entry counts ``sizes``, in the order of their messages: the sizes
    agree, the nodes are finite and each row of weights meets the
    check_weights rule."""
    if not nodes.shape == weights.shape == (sizes.sum(),):
        raise ValueError("nodes, weights and row sizes differ in size")
    _check_finite(nodes)
    _check_entries(weights, "functional")
    _check_sums(weights, _weight_sums(weights, sizes), "functional")


def _landed_batch(nodes: np.ndarray, weights: np.ndarray,
                  sizes: np.ndarray) -> FunctionalBatch:
    """The batch of flat float nodes and weights, whose rows have the entry
    counts ``sizes``, that meet make_functionals' rules (checked there, or
    a fuzz draw, which meets them by construction), which it keeps: each
    row of weights divided by its sum and landed (_normalize), all three
    arrays made read-only, without __post_init__'s check.  The one builder
    of a landed batch."""
    nodes.flags.writeable = sizes.flags.writeable = False
    batch = object.__new__(FunctionalBatch)
    for label, value in (("nodes", nodes),
                         ("weights", _normalize(weights, sizes, _weight_sums(weights, sizes))),
                         ("sizes", sizes)):
        object.__setattr__(batch, label, value)
    return batch


def _weight_sums(weights: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """numpy's sum of each row of the flat weights, whose rows have the
    entry counts ``sizes``, bit for bit, in one reduction: a block's
    ``sum(axis=1)`` is 0.0 plus the pairwise sum of each row, and
    np.add.reduceat starts each segment from its first entry, so each row
    is led by an inserted 0.0 (which also makes a row of -0.0 sum to
    +0.0, as numpy's does)."""
    starts = np.cumsum(sizes) - sizes
    return np.add.reduceat(np.insert(weights, starts, 0.0),
                           starts + np.arange(sizes.size))


def _divide_rows(weights: np.ndarray, sizes: np.ndarray, sums: np.ndarray) -> None:
    """Each row of the flat weights, whose rows have the entry counts
    ``sizes``, divided in place by its entry of ``sums``, in one
    division."""
    weights /= np.repeat(sums, sizes)


# A row of at least this many entries, landed on its own (_land_row),
# lands on its exact int64 total (_land_held); below it the fsum loop is
# faster.  The measured break-even of the two on rows of Zipf-Mandelbrot
# masses.
LIMB_LANDING_ENTRIES = 512

# r < 2**52 is split in halves of 26 bits, so that a row sum of a limb
# cannot overflow int64 below 2**37 entries
_HALF = 26
_HALF_MASK = (1 << _HALF) - 1


def _normalize(weights: np.ndarray, sizes: np.ndarray, sums: np.ndarray) -> np.ndarray:
    """The checked flat weights, whose rows have the entry counts
    ``sizes``, made exact: each row divided in place by its sum (``sums``
    holds one per row, in row order), landed on 1, and the array made
    read-only.

    Landing puts fsum(row), the correctly rounded sum, on 1, so that the
    exactly-rounded summation in apply() returns 1.0 on the bit (the exact
    sum may still miss 1 by an ulp); the drift, fsum(row) - 1, is itself
    rounded, hence up to four adjustments, each at the row's current
    first largest weight.

    There is one path per caller shape.  A batch divides all rows at once
    and runs the rule over the whole batch on the limbs of its weights
    (_land_batch).  The one row of make_functional and ratio_functional
    (_landed_functional) lands on its own (_land_row): shorter than
    LIMB_LANDING_ENTRIES entries as a Python loop of fsum passes
    (_land_rows), longer on its own exact total (_land_held), with one
    split into limbs and no second pass over the row.  The limbs are
    exact: w is h * 2**-52 + r * 2**-104, they add exactly in any order,
    and fsum(row) is then fl(A * 2**-52 + B * 2**-104) from the carried
    limb sums A and B, one correctly rounded add of two exact doubles
    (_limb_sums).  Rows holding a weight with a bit below 2**-104 (the
    tail of a steep Zipf law, say) take the loop instead.  Every path
    gives the same bits."""
    _divide_rows(weights, sizes, sums)
    _land_batch(weights, sizes)
    weights.flags.writeable = False
    return weights


def _land_row(row: np.ndarray, total: float) -> None:
    """A checked row of weights summing to ``total``, divided by it and
    landed in place: _land_held from LIMB_LANDING_ENTRIES entries on, when
    the limbs hold the row, else the fsum loop."""
    row /= total
    if row.size < LIMB_LANDING_ENTRIES or not _land_held(row):
        _land_rows(row, ((0, row.size),))


def _land_rows(weights: np.ndarray, spans) -> None:
    """The landing rule of _normalize on the rows weights[start:stop] for
    (start, stop) in ``spans``."""
    # slices of one memoryview yield plain floats, with no numpy view per
    # row; most rows already sum to 1 on the bit and need no adjustment
    flat = memoryview(weights)
    for start, stop in spans:
        for _ in range(4):
            drift = math.fsum(flat[start:stop]) - 1.0
            if drift == 0.0:
                break
            flat[start + int(weights[start:stop].argmax())] -= drift


def _land_held(row: np.ndarray) -> bool:
    """The landing rule of _normalize on one divided row, in place, on its
    exact total: the row split once into limbs, each adjustment an argmax
    and an exact update of the total, with no second pass over the row;
    False, with the row untouched, when the limbs cannot hold it."""
    limbs, held = _limbs(row)
    if np.count_nonzero(held) < row.size:
        return False
    # Python ints: _limb_sums on three numpy scalars costs 8 times more
    totals = limbs.sum(axis=1).tolist()
    for _ in range(4):
        drift = _limb_sums(totals) - 1.0
        if drift == 0.0:
            break
        at = int(row.argmax())
        old = float(row[at])
        row[at] = new = old - drift
        # both weights are held (see _land_batch), whole numbers of
        # 2**-104, so the low limb's total takes the change exactly
        totals[2] += int(new * 2.0**104) - int(old * 2.0**104)
    return True


def _land_batch(weights: np.ndarray, sizes: np.ndarray) -> None:
    """The landing rule of _normalize on every row of the flat divided
    weights, whose rows have the entry counts ``sizes``, in whole-batch
    numpy on the limbs of the weights; the rows the limbs cannot hold go
    to _land_rows."""
    stops = np.cumsum(sizes)
    starts = stops - sizes
    limbs, held = _limbs(weights)
    totals = np.add.reduceat(limbs, starts, axis=1)
    drift = _limb_sums(totals) - 1.0
    loose = []  # the rows the limbs cannot hold
    if not held.all():
        loose = np.unique(np.searchsorted(stops, np.flatnonzero(~held), side="right"))
        drift[loose] = 0.0  # the loop measures these rows itself
    rows = np.flatnonzero(drift)
    drift = drift[rows]
    for _ in range(4):
        if not rows.size:
            break
        at = _first_argmax(weights, starts, sizes, rows)
        weights[at] -= drift
        # the limbs hold every landed weight: a drift is a multiple of
        # 2**-53, so a held weight less it is a multiple of 2**-104 again
        landed = _limbs(weights[at])[0]
        totals[:, rows] += landed - limbs[:, at]
        limbs[:, at] = landed
        drift = _limb_sums(totals[:, rows]) - 1.0
        rows, drift = rows[drift != 0.0], drift[drift != 0.0]
    _land_rows(weights, zip(starts[loose].tolist(), stops[loose].tolist()))


def _limbs(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (3, n) int64 limbs of the weights w in [0, 2): h = floor(w * 2**52)
    and the high and low half of r = (w - h * 2**-52) * 2**104; and the
    mask of the weights they hold exactly, those whose r is an integer
    (no bit of w below 2**-104)."""
    r = w * 2.0**52
    h = np.floor(r)
    # every step is exact: w * 2**52 - h is the bits of w below 2**-52
    r -= h
    r *= 2.0**52
    whole = r.astype(np.int64)
    limbs = np.empty((3, w.size), dtype=np.int64)
    limbs[0] = h
    np.right_shift(whole, _HALF, out=limbs[1])
    np.bitwise_and(whole, _HALF_MASK, out=limbs[2])
    return limbs, whole == r


def _limb_sums(totals: np.ndarray) -> np.ndarray:
    """fsum of each row from the row sums ``totals`` (3, rows) of its
    limbs, or of one row from a list of three Python ints: whatever the
    width or sign of each sum, the carries make A * 2**-52 + B * 2**-104
    with B < 2**52, and both terms are exact doubles (A < 2**53 for a sum
    near 1), so one add rounds the exact sum correctly, half to even, as
    fsum does."""
    high = totals[1] + (totals[2] >> _HALF)
    low = ((high & _HALF_MASK) << _HALF) | (totals[2] & _HALF_MASK)
    return (totals[0] + (high >> _HALF)) * 2.0**-52 + low * 2.0**-104


def _first_argmax(weights: np.ndarray, starts: np.ndarray, sizes: np.ndarray,
                  rows: np.ndarray) -> np.ndarray:
    """The flat index of the first largest weight of each of ``rows``,
    as ``argmax`` picks it."""
    size = sizes[rows]
    ends = np.cumsum(size)
    offsets = ends - size
    flat = np.repeat(starts[rows] - offsets, size) + np.arange(ends[-1])
    values = weights[flat]
    hits = np.flatnonzero(values == np.repeat(np.maximum.reduceat(values, offsets), size))
    # each row holds a hit; the first at or after its offset is its first
    return flat[hits[np.searchsorted(hits, offsets)]]


def make_functional(nodes: Sequence[float], weights: Sequence[float]) -> DiscreteFunctional:
    """Validate and normalize a discrete functional.

    Raises ``ValueError`` for mismatched lengths, non-finite nodes, or
    weights that ``check_weights`` rejects; a weight sum off 1 by at most
    WEIGHT_DRIFT_TOL is renormalized, bit for bit as make_functionals
    renormalizes a batch of one; the given arrays are copied.
    """
    nodes, weights = _floats(nodes, "nodes"), _floats(weights, "weights")
    total = _check_fields(nodes, weights)
    return _landed_functional(nodes.copy(), weights, total)


def _landed_functional(nodes: np.ndarray, weights: np.ndarray,
                       total: float) -> DiscreteFunctional:
    """The functional of checked nodes, which it keeps, and a checked row
    of weights summing to ``total``, which it copies and lands on its own
    (_land_row): the one-row builder of make_functional and
    ratio_functional."""
    weights = weights.copy()
    _land_row(weights, total)
    return _functional(nodes, weights)


def apply(functional: DiscreteFunctional, g: Callable) -> float:
    """The functional applied to g: sum of w_i * g(x_i).

    Raises ``ValueError`` if g is not finite at some node, carrying the
    offending node in the message.
    """
    _check_functional(functional)
    vals = _node_values(g, functional.nodes)
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


def moments_batch(batch: FunctionalBatch, bundle: FunctionBundle, m: float,
                  M: float, *, slopes: tuple | None = None) -> MomentSet:
    """All moment quantities of each functional of the batch against the
    bundle on [m, M], as arrays in row order; ``slopes`` is phi' at m and
    at M, when the caller has read it.  Each run of neighbouring rows of
    equal size reduces with one stacked product."""
    sizes = batch.sizes
    heads = np.flatnonzero(np.diff(sizes, prepend=0))
    counts = np.diff(heads, append=sizes.size)
    return MomentSet(*_moment_sums(batch.nodes, batch.weights,
                                   list(zip(counts.tolist(), sizes[heads].tolist())),
                                   bundle, m, M, slopes=slopes))


def moments(functional: DiscreteFunctional, bundle: FunctionBundle, m: float,
            M: float, *, phi_vals: np.ndarray | None = None,
            slopes: tuple | None = None, extremes: tuple | None = None) -> MomentSet:
    """All moment quantities of the functional against the bundle on [m, M].

    A bound pass hands over what it holds: ``phi_vals``, f at the nodes;
    ``slopes``, phi' at m and at M from its endpoint read, which the moment
    pass then does not make again; and ``extremes``, the least and the
    largest node, when it has run ``_checked_nodes`` itself, whose checked
    f at the nodes is then ``phi_vals``."""
    _check_functional(functional)
    sums = _moment_sums(functional.nodes, functional.weights,
                        ((1, functional.nodes.size),), bundle, m, M,
                        phi_vals, slopes, extremes)
    return MomentSet(*sums[:, 0].tolist())


@dataclass(frozen=True)
class MomentBasis:
    """The part of a functional's moments on [m, M] that does not depend on
    the bundle (``moment_basis``): the checked nodes, their weights as one
    row, x - m and M - x at the nodes, the sums mean, cross, sq_lo and
    sq_hi of MomentSet, and where the nodes sit (``places``, from
    ``_node_places``: None when no node is on m or M).  Any bundle's
    moments then cost only the rows that read phi, and phi' at nodes that
    are all interior is one evaluation, with no masks."""

    nodes: np.ndarray
    weights: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    sums: tuple
    places: tuple | None

    def moments(self, bundle: FunctionBundle, derivative: bool,
                slopes: tuple | None = None, phi_vals: np.ndarray | None = None
                ) -> MomentSet:
        """The MomentSet of the bundle, equal to ``moments`` bit for bit;
        with ``derivative`` false phi' is not evaluated and d_lo and d_hi
        are None.  A caller hands over what it holds, as to ``moments``:
        ``slopes``, phi' at m and at M from its endpoint read, and
        ``phi_vals``, f at the nodes as ``_node_values`` has checked it."""
        x = self.nodes
        if phi_vals is None:
            phi_vals = _node_values(bundle.f, x)
        dvals = _derivative_values(bundle, x, self.places, slopes) if derivative else None
        terms = np.empty((1 if dvals is None else 3, x.size))
        with np.errstate(over="ignore", invalid="ignore"):
            _phi_rows(phi_vals, dvals, self.lo, self.hi, terms)
            sums = _row_sums(self.weights, terms[:, None])
        return MomentSet(*self.sums, *sums[:, 0].tolist())


def moment_basis(functional: DiscreteFunctional, m: float, M: float) -> MomentBasis:
    """The bundle-free moments of the functional on [m, M], computed once;
    a node outside [m, M] is refused here as in ``moments``."""
    _check_functional(functional)
    x, weights = functional.nodes, functional.weights[None]
    extremes = _check_nodes(x, m, M)
    terms = np.empty((4, x.size))
    with np.errstate(over="ignore", invalid="ignore"):
        lo, hi = _basis_rows(x, m, M, terms)
        sums = _row_sums(weights, terms[:, None])
    return MomentBasis(x, weights, lo, hi, tuple(sums[:, 0].tolist()),
                       _node_places(x, m, M, *extremes))


def _moment_sums(x: np.ndarray, weights: np.ndarray, blocks,
                 bundle: FunctionBundle, m: float, M: float,
                 phi_vals: np.ndarray | None = None, slopes: tuple | None = None,
                 extremes: tuple | None = None) -> np.ndarray:
    """(quantity, functional) array of the MomentSet fields of the rows of
    the flat nodes ``x`` and ``weights``, laid out in ``blocks``, one
    (rows, nodes per row) pair per block, without the derivative moments
    when the bundle cannot supply them.

    The bundle is evaluated once over the nodes of the whole batch (f only
    when ``phi_vals`` does not already hold it, phi' at an end only when
    ``slopes`` does not), after the checks of ``_checked_nodes`` unless
    ``extremes`` says the caller has run them (``moments``); the rows of
    both writers fill one array, whose blocks then reduce once each, each
    straight into its columns of the result.
    """
    if extremes is None:
        phi_vals, extremes = _checked_nodes(x, bundle, m, M, phi_vals)
    dvals = _derivative_values(bundle, x, _node_places(x, m, M, *extremes), slopes)
    # terms and the basis rows come after the bundle's evaluations, on
    # purpose: with them first, a 400-row spline moments_batch took
    # 2.0-2.1 ms instead of 1.0-1.4 ms (best of 9 x 200 calls), likely as
    # the live array sits in the way of the spline's temporaries
    terms = np.empty((5 if dvals is None else 7, x.size))
    sums = np.empty((len(terms), sum(count for count, _ in blocks)))
    with np.errstate(over="ignore", invalid="ignore"):
        lo, hi = _basis_rows(x, m, M, terms)
        _phi_rows(phi_vals, dvals, lo, hi, terms[4:])
        start = row = 0
        for count, k in blocks:
            stop = start + count * k
            _row_sums(weights[start:stop].reshape(count, k),
                      terms[:, start:stop].reshape(len(terms), count, k),
                      sums[:, row:row + count])
            start, row = stop, row + count
    return sums


def _check_functional(functional: DiscreteFunctional) -> None:
    """Refuse anything but a DiscreteFunctional: a FunctionalBatch would
    otherwise be read as one functional of all its rows."""
    if not isinstance(functional, DiscreteFunctional):
        raise ValueError("expected a DiscreteFunctional, got "
                         f"{type(functional).__name__}")


def _checked_nodes(x: np.ndarray, bundle: FunctionBundle, m: float, M: float,
                   phi_vals: np.ndarray | None = None) -> tuple[np.ndarray, tuple]:
    """The checks of a moment pass, in the order of their messages: the
    bundle's domain rule on [m, M], every node x in it, then f finite at
    the nodes (``_node_values`` of ``phi_vals``); returns f at the nodes
    and the least and the largest node."""
    bundle._check_interval(m, M)
    extremes = _check_nodes(x, m, M)
    return _node_values(bundle.f, x, phi_vals), extremes


def _check_nodes(x: np.ndarray, m: float, M: float) -> tuple[float, float]:
    """Every node lies in [m, M], and m < M; returns the least and the
    largest node."""
    _check_order(m, M)
    least, most = x.min(), x.max()
    if least < m or most > M:
        bad = float(x[(x < m) | (x > M)][0])
        raise ValueError(f"node escapes interval [{m}, {M}]: {bad!r}")
    return least, most


def _node_values(g: Callable, x: np.ndarray,
                 values: np.ndarray | None = None) -> np.ndarray:
    """g at the nodes x (evaluated unless given as ``values``), which must
    be finite: the first node where it is not is named."""
    if values is None:
        values = _eval(g, x)
    finite = np.isfinite(values)
    if not finite.all():
        bad = float(x[~finite][0])
        raise ValueError(f"functional argument is not finite at node {bad!r}")
    return values


def _node_places(x: np.ndarray, m: float, M: float, least: float,
                 most: float) -> tuple | None:
    """Where the nodes, the least of which is ``least`` and the largest
    ``most`` (_check_nodes), sit on [m, M]: None when every node is
    interior, or the mask of the interior nodes and each end that holds a
    node as (0 for m or 1 for M, the end, the mask of the nodes on it)."""
    ends = [(side, end, x == end)
            for side, end, held in ((0, m, least == m), (1, M, most == M)) if held]
    return (~(ends[0][2] | ends[-1][2]), ends) if ends else None


def _derivative_values(bundle: FunctionBundle, x: np.ndarray, places: tuple | None,
                       slopes: tuple | None = None) -> np.ndarray | None:
    """phi' at the nodes, two-sided in the interior and one-sided at the
    ends, given the ``places`` of the nodes (``_node_places``): from
    ``slopes``, phi' at m and at M, which every bound pass hands over from
    its one endpoint read, or else, for a direct call of ``moments``,
    ``moments_batch`` or ``MomentBasis.moments``, from one ``derivs`` read;
    None when the bundle cannot supply it."""
    try:
        if places is None:
            return None if bundle.d1 is None else _eval(bundle.d1, x)
        interior, ends = places
        out = np.empty_like(x)
        if interior.any():
            if bundle.d1 is None:
                return None
            out[interior] = _eval(bundle.d1, x[interior])
        values = ([slopes[side] for side, _, _ in ends] if slopes is not None
                  else bundle.derivs([(1, end) for _, end, _ in ends]))
        for (_, _, at_end), value in zip(ends, values):
            out[at_end] = value
        return out
    except ValueError:
        return None


# The row writers and the stacked product below run under the caller's
# np.errstate(over="ignore", invalid="ignore"): a moment may overflow to
# inf, or be a nan where an end node meets an infinite derivative
# (0 * inf), and BoundReport refuses a pair that is not finite.

def _basis_rows(x: np.ndarray, m: float, M: float,
                out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The summands of mean, cross, sq_lo and sq_hi written to out[0:4];
    returns x - m and M - x."""
    out[0] = x
    lo, hi = x - m, M - x
    np.multiply(hi, lo, out=out[1])
    np.square(lo, out=out[2])
    np.square(hi, out=out[3])
    return lo, hi


def _phi_rows(phi_vals: np.ndarray, dvals: np.ndarray | None, lo: np.ndarray,
              hi: np.ndarray, out: np.ndarray) -> None:
    """The summands of value, and of d_lo and d_hi when phi' is given,
    written to out[0], out[1] and out[2]."""
    out[0] = phi_vals
    if dvals is not None:
        np.multiply(lo, dvals, out=out[1])
        np.multiply(hi, dvals, out=out[2])


def _row_sums(w: np.ndarray, rows: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """(row, functional) sums of ``rows`` (row, functional, k) under the
    weights ``w`` (functional, k) of a block, written to ``out`` when given
    (a view, so a batch's blocks fill one array): one stacked product,
    which computes every row exactly as ``w @ v`` computes one
    functional."""
    if out is None:
        return (w[:, None, :] @ rows[..., None])[..., 0, 0]
    np.matmul(w[:, None, :], rows[..., None], out=out[..., None, None])
    return out
