"""Randomized falsification harness for the bound chains.

Draws random functionals, intervals and 3-convex (or 3-concave) target
functions, evaluates every bound pair for a whole batch of functionals at
once (``moments_batch``, then ``theorem_triple`` on its arrays) and
records any bracket violation beyond tolerance.  Used by the command line
``verify`` command and by the acceptance suite.

Besides the named bundles, a target may be a random spline: a cubic
B-spline with nonnegative coefficients as third derivative, integrated
three times.  It is built and evaluated as a piecewise polynomial in
numpy alone.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .divided_diff import FunctionBundle, _check_integer, _is_number
from .elr_bounds import (THEOREMS, _certified, _excess, _negated_orientation, _read_ends,
                         theorem_triple)
from .functionals import (
    DiscreteFunctional,
    FunctionalBatch,
    _divide_rows,
    _landed_batch,
    _weight_sums,
    make_functional,
    moments_batch,
)
from .registry import resolve_phi

__all__ = [
    "FuzzReport",
    "random_three_convex_bundle",
    "random_functional",
    "random_functionals",
    "draw_bundle",
    "bracket_fuzz",
]

# Most nodes of a random functional.
MAX_NODES = 50

# Functionals drawn per bundle by bracket_fuzz.
BATCH = 400

# The default tolerance of bracket_fuzz and of verify: an excess at or
# below it is rounding, not a violation.
TOLERANCE = 1e-9


@dataclass(frozen=True, eq=False)
class _PiecewisePolynomial:
    """A piecewise polynomial on the increasing ``breaks``: on
    [breaks[j], breaks[j+1]] it is the polynomial with coefficients
    ``coef[j]`` in ascending powers of x - breaks[j].  Beyond the ends the
    end pieces continue."""

    breaks: np.ndarray
    coef: np.ndarray

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        # each point's piece is the count of inner breaks at or below it, so
        # a point beyond an end lies in its end piece (and a nan in the first)
        piece = np.zeros(x.shape, dtype=np.intp)
        for b in self.breaks[1:-1]:
            piece += x >= b
        rows = self.coef.T.take(piece, axis=-1)  # one row per power
        return _horner(rows, x - self.breaks[piece])[()]

    def antiderivative(self) -> "_PiecewisePolynomial":
        """The continuous antiderivative with value 0 at breaks[0]."""
        coef = np.zeros((len(self.coef), self.coef.shape[1] + 1))
        coef[:, 1:] = self.coef / np.arange(1, self.coef.shape[1] + 1)
        # each piece starts where the previous one ends
        ends = _horner(coef.T, np.diff(self.breaks))
        coef[1:, 0] = np.cumsum(ends[:-1])
        return _PiecewisePolynomial(self.breaks, coef)


def _horner(rows: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The polynomials with ascending coefficients ``rows[0], rows[1], ...``
    (at least two) at s, computed in place in one new array, so the result
    holds no reference to ``rows``."""
    value = rows[-1] * s
    value += rows[-2]
    for power in range(len(rows) - 3, -1, -1):
        value *= s
        value += rows[power]
    return value


def _bspline_pieces(knots: np.ndarray, coef: np.ndarray,
                   degree: int) -> _PiecewisePolynomial:
    """The B-spline sum_i coef[i] B_{i,degree} on ``knots`` as a piecewise
    polynomial over its knot intervals of positive length.

    The Cox-de Boor recurrence
    B_{i,p} = (x - t_i)/(t_{i+p} - t_i) B_{i,p-1}
              + (t_{i+p+1} - x)/(t_{i+p+1} - t_{i+1}) B_{i+1,p-1}
    runs on polynomials in s = x - t_j, for every interval [t_j, t_{j+1})
    at once; a term over an empty knot span is zero.
    """
    starts = np.arange(degree, len(coef))
    starts = starts[knots[starts] < knots[starts + 1]]
    left = knots[starts][:, None, None]
    # basis[:, r] holds the coefficients of B_{j-p+r,p}, r = 0..p, in s
    basis = np.ones((len(starts), 1, 1))
    for p in range(1, degree + 1):
        i = (starts[:, None] - p + np.arange(p + 1))[..., None]
        # lower[:, r] is B_{j-p+r,p-1} with room for one more power of s;
        # B_{j-p,p-1} and B_{j+1,p-1} vanish on the interval
        lower = np.zeros((len(starts), p + 2, p + 1))
        lower[:, 1:-1, :-1] = basis
        own, succ = lower[:, :-1], lower[:, 1:]
        up, down = (np.divide(1.0, span, out=np.zeros_like(span), where=span > 0)
                    for span in (knots[i + p] - knots[i],
                                 knots[i + p + 1] - knots[i + 1]))
        # (s + t_j - t_i) up B_{i,p-1} + (t_{i+p+1} - t_j - s) down B_{i+1,p-1}
        basis = (left - knots[i]) * up * own + (knots[i + p + 1] - left) * down * succ
        basis[..., 1:] += up * own[..., :-1] - down * succ[..., :-1]
    pieces = np.einsum("jr,jrk->jk", coef[starts[:, None] - degree
                                          + np.arange(degree + 1)], basis)
    return _PiecewisePolynomial(np.append(knots[starts], knots[starts[-1] + 1]),
                               pieces)


def random_three_convex_bundle(rng: np.random.Generator, lo: float,
                               hi: float) -> FunctionBundle:
    """A bundle whose third derivative is a random nonnegative cubic
    B-spline on [lo, hi], integrated three times.

    B-splines with nonnegative coefficients are nonnegative, so the result
    is 3-convex by construction.  The spline is converted once to a
    piecewise polynomial (``_bspline_pieces``) and integrated exactly three
    times, each antiderivative continuous with value 0 at lo, so the
    derivative data are consistent to rounding.
    """
    degree = 3
    n_coef = int(rng.integers(4, 9))
    interior = np.sort(rng.uniform(lo, hi, max(n_coef - degree - 1, 0)))
    knots = np.concatenate([[lo] * (degree + 1), interior, [hi] * (degree + 1)])
    coef = rng.uniform(0.0, 3.0, n_coef)
    d3 = _bspline_pieces(knots, coef, degree)
    d2 = d3.antiderivative()
    d1 = d2.antiderivative()
    return FunctionBundle(domain_lo=lo, domain_hi=hi, f=d1.antiderivative(),
                          d1=d1, d2=d2, d3=d3, name="spline3convex")


def random_functional(rng: np.random.Generator, m: float,
                      M: float) -> DiscreteFunctional:
    """Random nodes in [m, M] (1 to MAX_NODES of them, endpoints
    occasionally included) with random normalized weights: the draw of
    ``random_functionals`` for a count of 1, built on make_functional's
    one-row path."""
    nodes, weights, _, _ = _draw(rng, m, M, 1)
    return make_functional(nodes, weights)


def random_functionals(rng: np.random.Generator, m: float, M: float,
                       count: int) -> FunctionalBatch:
    """``count`` draws of ``random_functional``, with the same draws from
    the generator in the same order, landed as one batch whose rows are
    grouped by node count: the groups in the order of each count's first
    draw, a group's rows in draw order, so that each group reduces with one
    stacked product in ``moments_batch``.

    Each row draws one bounded integer, its node count k, as
    ``rng.integers(1, MAX_NODES + 1)`` does, then 2k + 1 doubles (2 when
    k = 1) as ``rng.random`` does: k nodes, the end-pin coin (not drawn
    when k = 1) and k weights.  numpy's ``uniform(lo, hi, k)`` is
    ``lo + (hi - lo) * random(k)``, so the nodes and weights are those of
    separate ``uniform`` calls, bit for bit.

    The batch makes no generator call per row: it replays PCG64's stream
    from raw 64-bit words, taken in one block of count * (MAX_NODES + 3)
    + 2 * MAX_NODES + 2 words (a little above a batch's mean) and in more
    chunks if the batch outgrows it.  A node count is Lemire's bounded
    draw on a 32-bit half-word: the low half of a fresh word, whose high
    half numpy buffers for the next count (``has_uint32``).  A double is
    ``(word >> 11) * 2**-53``.  The generator is left where the per-row
    calls leave it, its buffered half-word included.  So ``rng`` must be
    a Generator on ``np.random.PCG64``, as ``default_rng`` makes.  Any
    other generator, a count that is not an integer >= 1 and an interval
    with m > M or a non-finite length are refused before any draw.

    The draw meets make_functionals' rules by construction, so it is
    landed (``functionals._landed_batch``) without a second check or copy:
    its nodes lie in [m, M], its weights are positive rows divided by their
    sums and its row sizes come from the walk.  The batch is
    make_functionals' batch of the draw, bit for bit.
    """
    nodes, weights, sizes, _ = _draw(rng, m, M, count)
    return _landed_batch(nodes, weights, sizes)


def _draw(rng: np.random.Generator, m: float, M: float, count: int) -> tuple:
    """The draw of ``random_functionals``, with its refusals: the flat
    nodes and weights, each row divided by its sum, and the row sizes, as
    make_functionals takes them, then ``order``, the draw index of each
    row.  The rows are grouped in numpy from each row's node count: the
    groups in the order of each count's first row, a group's rows in draw
    order."""
    _check_integer(count, "count", 1)
    m, M = float(m), float(M)
    span = M - m
    if not 0.0 <= span < math.inf:
        raise ValueError(f"interval [{m!r}, {M!r}] must have m <= M and a "
                         "finite length")
    bit_generator = getattr(rng, "bit_generator", None)
    if type(bit_generator) is not np.random.PCG64:
        raise ValueError("random_functionals replays PCG64's stream: rng must "
                         f"be a Generator on np.random.PCG64, got {rng!r}")
    entry = bit_generator.state
    buffered, half = entry["has_uint32"], entry["uinteger"]
    bound = MAX_NODES  # read per call, so that a patched value holds
    threshold = (2**32 - bound) % bound
    room = 2 * bound + 2  # the words of one count and the most doubles
    per_row = bound + 3  # a little above the mean words of a row
    raw = bit_generator.random_raw(count * per_row + room)
    words, size, pos = memoryview(raw), raw.size, 0
    ks = []  # each row's node count, in draw order
    starts = []  # each row's first double word
    for index in range(count):
        while True:
            if size - pos < room:
                raw = np.concatenate((raw, bit_generator.random_raw(
                    room + (count - index) * per_row)))
                words, size = memoryview(raw), raw.size
            if bound == 1:  # numpy draws nothing for a range of one value
                k = 1
                break
            if buffered:
                buffered, low = 0, half
            else:
                word = words[pos]
                pos += 1
                buffered, low, half = 1, word & 0xFFFFFFFF, word >> 32
            scaled = low * bound
            if scaled & 0xFFFFFFFF >= threshold:
                k = 1 + (scaled >> 32)
                break
        ks.append(k)
        starts.append(pos)
        pos += 2 * k + (k >= 2)
    bit_generator.state = entry
    bit_generator.advance(pos)
    after = bit_generator.state
    after["has_uint32"], after["uinteger"] = buffered, half
    bit_generator.state = after

    ks = np.array(ks, dtype=np.intp)
    counts = np.bincount(ks)
    present = np.flatnonzero(counts)
    # each k's first row heads its run in a stable sort by k; the groups
    # follow their first rows, and a group's rows the draw
    firsts = np.argsort(ks, kind="stable")[np.cumsum(counts[present]) - counts[present]]
    lead = np.empty_like(counts)
    lead[present] = firsts
    order = np.argsort(lead[ks], kind="stable")
    sizes = ks[order]
    first = np.array(starts)[order]
    ends = np.cumsum(sizes)
    row_start = ends - sizes
    # each row's k node words, then (k >= 2) its coin and its k weights
    node_words = np.repeat(first - row_start, sizes) + np.arange(ends[-1])
    pairs = sizes >= 2
    weight_words = node_words + np.repeat(sizes + pairs, sizes)
    nodes = m + span * _doubles(raw[node_words])
    pinned = row_start[pairs][_doubles(raw[(first + sizes)[pairs]]) < 0.25]
    nodes[pinned] = m
    nodes[pinned + 1] = M
    weights = _doubles(raw[weight_words]) + 1e-12
    _divide_rows(weights, sizes, _weight_sums(weights, sizes))
    return nodes, weights, sizes, order


def _doubles(words: np.ndarray) -> np.ndarray:
    """The doubles in [0, 1) that ``Generator.random`` makes of raw PCG64
    words."""
    return (words >> 11) * 2.0**-53


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


def bracket_fuzz(seed: int, instances: int, tolerance: float = TOLERANCE) -> FuzzReport:
    """Run ``instances`` random bracket checks over all three bound pairs,
    in both the direct and the reversed orientation.

    Each batch draws one bundle and BATCH functionals and evaluates
    them together; the reversed orientation is the negated bundle, whose
    triples are the exact negations of the direct ones and whose
    orientation is read off the bundle's one certificate
    (``elr_bounds._negated_orientation``).  Returns a report
    whose violations (sorted by magnitude, largest first) carry enough of
    the instance to reproduce it.  ``seed`` is an integer from 0 on, and
    ``instances`` from 1 on.
    """
    _check_integer(seed, "seed", 0)
    _check_integer(instances, "instances", 1)
    if not (_is_number(tolerance, numbers.Real) and math.isfinite(tolerance)
            and tolerance >= 0):
        raise ValueError(f"tolerance must be a finite number >= 0, got {tolerance!r}")
    rng = np.random.default_rng(seed)
    violations: list[dict] = []
    done = 0
    while done < instances:
        take = min(BATCH, instances - done)
        name = _POOL[int(rng.integers(len(_POOL)))]
        m, M = draw_interval(rng, name)
        bundle = draw_bundle(rng, name, m, M)
        cert, orientation = _certified(bundle, m, M)
        orientations = (orientation, _negated_orientation(bundle, m, M, cert))
        names = [bundle.name, None]  # the negated name once a record needs it
        nodes, weights, sizes, order = _draw(rng, m, M, take)
        functionals = _landed_batch(nodes, weights, sizes)
        # one endpoint read for the moments (every batch has rows pinned to
        # m and M) and all three theorems
        read = _read_ends(bundle, m, M, THEOREMS)
        ms = moments_batch(functionals, bundle, m, M, slopes=read[0][2:4])
        # (theorem, lower/mid/upper, functional)
        triples = np.array([theorem_triple(theorem, ms, bundle, m, M, read)
                            for theorem in THEOREMS])
        # excess[i, o, t]: the i-th draw, orientation o (direct, then
        # reversed), theorem t, so that argwhere lists records in draw
        # order, one functional at a time; each orientation is one _excess
        # pass over all theorems
        rows = np.argsort(order)  # each draw's row of the batch
        excess = np.stack([
            _excess(*(sign * triples).swapaxes(0, 1), oriented)
            for sign, oriented in zip((1.0, -1.0), orientations)]).transpose(2, 0, 1)[rows]
        for index, o, t in np.argwhere(excess > tolerance):
            if names[o] is None:
                names[o] = bundle.negated().name
            functional = functionals.functional(rows[index])
            violations.append({
                "theorem": THEOREMS[t],
                "orientation": orientations[o],
                "violation": float(excess[index, o, t]),
                "phi": names[o],
                "interval": [m, M],
                "nodes": functional.nodes.tolist(),
                "weights": functional.weights.tolist(),
            })
        done += take
    violations.sort(key=lambda v: v["violation"], reverse=True)
    max_violation = violations[0]["violation"] if violations else 0.0
    return FuzzReport(seed=seed, count=instances,
                      max_violation=max_violation, violations=violations)
