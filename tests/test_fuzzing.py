"""The batched falsifier against the scalar API it replaces.

``bracket_fuzz`` evaluates a whole batch of functionals at once
(``random_functionals``, ``moments_batch``, ``theorem_triple`` on arrays)
and takes the reversed orientation as the exact negation of the direct
one.  These
tests hold it to the per-functional loop over the public scalar API, with
the draw written out as one functional at a time.  The random 3-convex
spline is held to scipy's ``BSpline`` as a test-only oracle.
"""

import hashlib
import math
import struct
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from elrbounds import functionals, fuzzing
from elrbounds.divergences import ratio_functional
from elrbounds.divided_diff import certify_3convex, check_bundle
from elrbounds.elr_bounds import THEOREMS, bounds, theorem_triple
from elrbounds.functionals import make_functional, make_functionals, moments, moments_batch
from elrbounds.functionals import row_blocks
from elrbounds.fuzzing import (
    bracket_fuzz,
    random_functional,
    random_functionals,
    random_three_convex_bundle,
)
from elrbounds.registry import resolve_phi
from elrbounds.zipf_mandelbrot import zm_distribution


def drawn_functional(rng, m, M, max_nodes=50):
    """One random functional, drawn and built one at a time."""
    k = int(rng.integers(1, max_nodes + 1))
    nodes = rng.uniform(m, M, k)
    if k >= 2 and rng.random() < 0.25:
        nodes[0] = m
        nodes[1] = M
    weights = rng.uniform(0.0, 1.0, k) + 1e-12
    weights /= weights.sum()
    return make_functional(nodes, weights)


def reference_fuzz(seed, instances, tolerance, batch):
    """bracket_fuzz as a loop over moments and bounds, one functional and
    one orientation at a time."""
    rng = np.random.default_rng(seed)
    violations = []
    done = 0
    while done < instances:
        take = min(batch, instances - done)
        name = fuzzing._POOL[int(rng.integers(len(fuzzing._POOL)))]
        m, M = fuzzing.draw_interval(rng, name)
        bundle = fuzzing.draw_bundle(rng, name, m, M)
        neg = bundle.negated()
        for _ in range(take):
            functional = drawn_functional(rng, m, M)
            for target in (bundle, neg):
                for theorem in THEOREMS:
                    report = bounds(theorem, functional, target, m, M)
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
    return violations


def test_violations_match_the_scalar_loop(monkeypatch):
    cubic = resolve_phi({"name": "cubic"})

    def broken_cubic(rng, name, lo, hi):
        # the true right slope at lo is 3 lo^2; a larger stored one breaks
        # the brackets that read it
        return replace(cubic, domain_lo=lo, d1_plus_at_lo=3.0 * lo * lo + 0.5,
                       name="broken cubic")

    monkeypatch.setattr(fuzzing, "draw_bundle", broken_cubic)
    for seed in (1, 2):
        report = bracket_fuzz(seed, 900, tolerance=1e-9)
        expected = reference_fuzz(seed, 900, 1e-9, 400)
        assert len(expected) > 50
        assert {v["orientation"] for v in expected} == {"direct", "reversed"}
        assert report.violations == expected
        assert report.max_violation == expected[0]["violation"]


@pytest.mark.parametrize("name", fuzzing._POOL)
def test_batched_triples_equal_scalar_triples(name):
    """Equal as floats, so bit for bit up to the sign of a zero."""
    rng = np.random.default_rng(2024)
    m, M = fuzzing.draw_interval(rng, name)
    bundle = fuzzing.draw_bundle(rng, name, m, M)
    neg = bundle.negated()
    batch = random_functionals(rng, m, M, 120)
    functionals = [batch.functional(i) for i in range(len(batch))]
    assert any(m in F.nodes and M in F.nodes for F in functionals)
    ms = moments_batch(batch, bundle, m, M)
    triples = np.array([theorem_triple(theorem, ms, bundle, m, M) for theorem in THEOREMS])
    assert triples.shape == (len(THEOREMS), 3, len(batch))
    for i, F in enumerate(functionals):
        scalar_ms = moments(F, bundle, m, M)
        assert all(getattr(ms, f)[i] == getattr(scalar_ms, f)
                   for f in vars(scalar_ms))
        for t, theorem in enumerate(THEOREMS):
            assert tuple(triples[t, :, i]) == theorem_triple(
                theorem, moments(F, bundle, m, M), bundle, m, M)
            assert tuple(-triples[t, :, i]) == theorem_triple(
                theorem, moments(F, neg, m, M), neg, m, M)


def test_batch_draw_matches_single_draws():
    m, M = -0.5, 1.25
    take = 300
    rngs = [np.random.default_rng(11) for _ in range(3)]
    batch = random_functionals(rngs[0], m, M, take)
    singles = [random_functional(rngs[1], m, M) for _ in range(take)]
    reference = [drawn_functional(rngs[2], m, M) for _ in range(take)]
    assert len(batch) == take
    for i in range(take):
        F = batch.functional(i)
        for other in (singles[i], reference[i]):
            assert np.array_equal(F.nodes, other.nodes)
            assert np.array_equal(F.weights, other.weights)
    state = rngs[0].bit_generator.state
    assert rngs[1].bit_generator.state == state
    assert rngs[2].bit_generator.state == state


def test_single_draw_lands_on_the_one_row_path(monkeypatch):
    """random_functional builds its row as make_functional does, never as
    a batch of one."""
    def no_batch(*args):
        raise AssertionError("a single draw was landed as a batch")

    monkeypatch.setattr(functionals, "_land_batch", no_batch)
    monkeypatch.setattr(fuzzing, "make_functionals", no_batch)
    rng, reference_rng = np.random.default_rng(5), np.random.default_rng(5)
    for _ in range(200):
        F = random_functional(rng, -2.0, 0.5)
        other = drawn_functional(reference_rng, -2.0, 0.5)
        assert F.nodes.tobytes() == other.nodes.tobytes()
        assert F.weights.tobytes() == other.weights.tobytes()
    assert rng.bit_generator.state == reference_rng.bit_generator.state


# sha256 of every label and float of bracket_fuzz(seed, 4000, tolerance=0.0)
# records, in report order, with (record count, max_violation): taken before
# the excess pass judged all theorems at once.  At tolerance 0 the rounding
# excesses become records, so these pin the _excess values and the order
# in which argwhere lists them.
TOLERANCE_ZERO_DIGESTS = {
    1: (18, 1.4210854715202004e-14,
        "f60279a55241896f5520203358a88a9f260375a70d6503701eaf8c4794e455e2"),
    2: (24, 2.842170943040401e-14,
        "ba3b49424c9715a0176fee24d314b5798707ce3d8e08d0651a18e44968c06f6f"),
    3: (32, 2.842170943040401e-14,
        "8597de3c76b638be8a9e04c26c07c1ba235576688e7b7e3fa4ef8734db0eb0cf"),
}


@pytest.mark.parametrize("seed", sorted(TOLERANCE_ZERO_DIGESTS))
def test_tolerance_zero_records_keep_their_bits(seed):
    report = bracket_fuzz(seed, 4000, tolerance=0.0)
    digest = hashlib.sha256()
    for v in report.violations:
        digest.update(f"{v['theorem']}/{v['orientation']}/{v['phi']};".encode())
        floats = [v["violation"], *v["interval"], *v["nodes"], *v["weights"]]
        digest.update(struct.pack(f"<{len(floats)}d", *floats))
    got = (len(report.violations), report.max_violation, digest.hexdigest())
    assert got == TOLERANCE_ZERO_DIGESTS[seed]


@pytest.mark.parametrize("kwargs", [
    {"instances": -5}, {"instances": 0}, {"instances": 2.0},
    {"instances": True}, {"instances": "10"}, {"instances": None},
    {"tolerance": float("nan")}, {"tolerance": float("inf")},
    {"tolerance": -1e-9}, {"tolerance": "1e-9"},
])
def test_bad_arguments_rejected(kwargs):
    args = {"seed": 1, "instances": 10, **kwargs}
    with pytest.raises(ValueError):
        bracket_fuzz(**args)


@pytest.mark.parametrize("seed", [None, True, False, 1.5, "7", -1,
                                  np.int64(-1), [1]])
def test_bad_seed_refused_before_any_draw(seed, monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("a generator was made for a bad seed")

    monkeypatch.setattr(fuzzing.np.random, "default_rng", no_draw)
    with pytest.raises(ValueError, match=r"^seed must be an integer >= 0, got "):
        bracket_fuzz(seed, 10)


def test_numpy_integer_seed_is_the_int_seed():
    assert bracket_fuzz(np.uint32(3), 50) == bracket_fuzz(3, 50)


def test_batch_layout_must_cover_the_arrays():
    nodes = np.array([0.1, 0.2, 0.3])
    weights = np.array([0.5, 0.5, 1.0])
    with pytest.raises(ValueError, match="differ in size"):
        make_functionals(nodes, weights, ((1, 2),))
    batch = make_functionals(nodes, weights, ((1, 2), (1, 1)), np.array([1, 0]))
    assert batch.functional(0).nodes.tolist() == [0.3]
    assert batch.functional(1).weights.tolist() == [0.5, 0.5]


def drawn_spline(rng, lo, hi):
    """The knots and coefficients that random_three_convex_bundle draws."""
    n_coef = int(rng.integers(4, 9))
    interior = np.sort(rng.uniform(lo, hi, n_coef - 4))
    knots = np.concatenate([[lo] * 4, interior, [hi] * 4])
    return knots, rng.uniform(0.0, 3.0, n_coef)


def spline_draws(seed, count):
    """(lo, hi, generator state before the draw, bundle) for ``count``
    spline bundles on random intervals like the fuzzer's."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        lo = float(rng.uniform(-5.0, 3.0))
        hi = lo + float(rng.uniform(0.1, 2.5))
        state = rng.bit_generator.state
        yield lo, hi, state, random_three_convex_bundle(rng, lo, hi)


def generator_at(state):
    rng = np.random.default_rng()
    rng.bit_generator.state = state
    return rng


def test_spline_matches_scipy_bspline():
    """f, d1, d2, d3 agree with BSpline and its antiderivatives to
    1e-14 of the largest value, at 2000 points, the knots and both ends."""
    BSpline = pytest.importorskip("scipy.interpolate").BSpline
    for lo, hi, state, bundle in spline_draws(5, 500):
        knots, coef = drawn_spline(generator_at(state), lo, hi)
        d3 = BSpline(knots, coef, 3, extrapolate=True)
        d2 = d3.antiderivative(1)
        d1 = d2.antiderivative(1)
        x = np.concatenate([np.linspace(lo, hi, 2000), knots, [lo, hi]])
        for label, mine, oracle in (("f", bundle.f, d1.antiderivative(1)),
                                    ("d1", bundle.d1, d1), ("d2", bundle.d2, d2),
                                    ("d3", bundle.d3, d3)):
            expected = oracle(x)
            error = np.max(np.abs(mine(x) - expected))
            assert error <= 1e-14 * np.max(np.abs(expected)), (label, lo, hi)


def test_spline_draw_keeps_the_generator_stream():
    """A seed means the same spline instances: one call makes exactly the
    draws of the reference, and the spline starts at 0 at lo."""
    for lo, hi, state, bundle in spline_draws(6, 50):
        reference = generator_at(state)
        drawn_spline(reference, lo, hi)
        after = generator_at(state)
        random_three_convex_bundle(after, lo, hi)
        assert after.bit_generator.state == reference.bit_generator.state
        assert bundle.f(lo) == bundle.d1(lo) == bundle.d2(lo) == 0.0


def test_spline_bundles_pass_check_bundle():
    for lo, hi, _, bundle in spline_draws(7, 50):
        check_bundle(bundle)
        assert certify_3convex(bundle, lo, hi, 65).verdict == "three_convex"


def searchsorted_pieces(pp, x):
    """The piecewise polynomial ``pp`` at x as first written: each point's
    piece by ``np.searchsorted`` on the inner breaks, its row of
    coefficients gathered, then Horner on fresh temporaries."""
    x = np.asarray(x, dtype=float)
    piece = np.searchsorted(pp.breaks[1:-1], x, side="right")
    coef, s = pp.coef[piece], x - pp.breaks[piece]
    value = coef[..., -1]
    for power in range(coef.shape[-1] - 2, -1, -1):
        value = value * s + coef[..., power]
    return value


def test_spline_evaluation_matches_searchsorted_form():
    """f, d1, d2 and d3 of 600 drawn splines give the oracle's bits, type
    and shape at random points, on and next to every break, at +-inf and
    nan, and at a scalar, a 0-d array and a 2-D array."""
    rng = np.random.default_rng(26)
    for lo, hi, _, bundle in spline_draws(26, 600):
        for pp in (bundle.f, bundle.d1, bundle.d2, bundle.d3):
            breaks = pp.breaks
            for x in (rng.uniform(lo - 1.0, hi + 1.0, 50), breaks,
                      np.nextafter(breaks, math.inf), np.nextafter(breaks, -math.inf),
                      np.array([math.inf, -math.inf, math.nan]),
                      float(rng.uniform(lo, hi)), np.array(breaks[len(breaks) // 2]),
                      rng.uniform(lo, hi, (3, 4))):
                mine, oracle = pp(x), searchsorted_pieces(pp, x)
                assert type(mine) is type(oracle)
                assert np.shape(mine) == np.shape(oracle)
                assert np.asarray(mine).tobytes() == np.asarray(oracle).tobytes()


# The draw contract of random_functionals: one bounded integer per row,
# then one call for the row's 2k + 1 doubles (2 when k = 1), which must be
# the draws of drawn_functional's separate uniform and random calls.

def expected_layout(reference):
    """The shapes and order of a batch holding the reference functionals,
    grouped by node count in order of first appearance."""
    groups = {}
    for index, functional in enumerate(reference):
        groups.setdefault(functional.size, []).append(index)
    shapes = tuple((len(group), k) for k, group in groups.items())
    return shapes, [index for group in groups.values() for index in group]


def assert_batch_is_reference(seed, m, M, count, max_nodes=fuzzing.MAX_NODES):
    """random_functionals against count calls of drawn_functional from the
    same generator state: the same bits, layout and state after."""
    batch_rng, reference_rng = (np.random.default_rng([seed, count]) for _ in range(2))
    batch = random_functionals(batch_rng, m, M, count)
    reference = [drawn_functional(reference_rng, m, M, max_nodes) for _ in range(count)]
    shapes, order = expected_layout(reference)
    assert batch.shapes == shapes
    assert batch.order.tolist() == order
    in_order = [reference[index] for index in order]
    assert batch.nodes.tobytes() == np.concatenate([F.nodes for F in in_order]).tobytes()
    assert batch.weights.tobytes() == np.concatenate([F.weights for F in in_order]).tobytes()
    assert batch_rng.bit_generator.state == reference_rng.bit_generator.state
    return batch


@pytest.mark.parametrize("count", [1, 2, 7, 400])
@pytest.mark.parametrize("name", fuzzing._POOL)
@pytest.mark.parametrize("seed", range(50))
def test_batch_draws_are_the_per_call_draws(seed, name, count):
    m, M = fuzzing.draw_interval(np.random.default_rng(seed), name)
    assert_batch_is_reference(seed, m, M, count)


def test_one_and_two_node_rows_keep_the_draws(monkeypatch):
    """k = 1 rows draw no end-pin coin; k = 2 rows draw it and are pinned
    to (m, M) a quarter of the time."""
    monkeypatch.setattr(fuzzing, "MAX_NODES", 2)
    m, M = -0.75, 2.5
    pinned = 0
    for seed in range(20):
        batch = assert_batch_is_reference(seed, m, M, 60, max_nodes=2)
        assert {k for _, k in batch.shapes} == {1, 2}
        pinned += sum(F.nodes.tolist() == [m, M] for F in
                      map(batch.functional, range(len(batch))))
    assert pinned > 100
    monkeypatch.setattr(fuzzing, "MAX_NODES", 1)
    batch = assert_batch_is_reference(3, m, M, 50, max_nodes=1)
    assert batch.shapes == ((50, 1),)


def test_uniform_is_the_affine_map_of_random():
    """The canary for the single draw: numpy's Generator.uniform(lo, hi, k)
    is lo + (hi - lo) * random(k) bit for bit.  A numpy whose formula
    differs would change every fuzz instance of a seed."""
    intervals = [(0.0, 1.0), (-5.0, 3.0), (0.05, 3.0), (-0.75, 2.5), (1e-300, 1e300)]
    intervals += [fuzzing.draw_interval(np.random.default_rng(seed), name)
                  for seed in range(20) for name in fuzzing._POOL]
    for seed, (lo, hi) in enumerate(intervals):
        for k in (1, 2, 50, 101):
            uniform_rng, random_rng = (np.random.default_rng([seed, k]) for _ in range(2))
            drawn = uniform_rng.uniform(lo, hi, k)
            assert drawn.tobytes() == (lo + (hi - lo) * random_rng.random(k)).tobytes()
            assert uniform_rng.bit_generator.state == random_rng.bit_generator.state


@pytest.mark.parametrize("count", [0, -1, 2.0, True, "3", None])
def test_count_must_be_a_positive_integer(count):
    rng = np.random.default_rng(1)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="count"):
        random_functionals(rng, 0.0, 1.0, count)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("m, M", [
    (1.0, 0.5), (0.0, np.inf), (-np.inf, 0.0), (np.nan, 1.0), (0.0, np.nan),
    (-1e308, 1e308),
])
def test_bad_interval_refused_before_any_draw(m, M):
    rng = np.random.default_rng(1)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="interval"):
        random_functionals(rng, m, M, 5)
    assert rng.bit_generator.state == state


def test_point_interval_still_draws():
    batch = random_functionals(np.random.default_rng(4), 0.5, 0.5, 9)
    assert (batch.nodes == 0.5).all()


def landed_row_by_row(weights, shapes):
    """make_functionals' normalization as a loop over numpy row views:
    each row divided by its sum, then up to four adjustments of its fsum
    drift at the row's current argmax."""
    weights = np.array(weights, dtype=float)
    for block in row_blocks(weights, shapes):
        block /= block.sum(axis=1)[:, None]
        for row in block:
            for _ in range(4):
                drift = math.fsum(row) - 1.0
                if drift == 0.0:
                    break
                row[row.argmax()] -= drift
    return weights


def test_landing_matches_the_row_by_row_loop():
    rng = np.random.default_rng(8)
    cases = []
    for _ in range(30):
        shapes = random_functionals(rng, 0.0, 1.0, 400).shapes
        weights = rng.uniform(0.0, 1.0, sum(c * k for c, k in shapes)) + 1e-12
        for block in row_blocks(weights, shapes):
            block /= block.sum(axis=1, keepdims=True)
        cases.append((weights, shapes))
    # rows whose largest weight is tied, with and without a drift to land
    ties = [np.array(row) / sum(row) for row in
            ([1.0] * 3, [0.3, 0.3, 0.1, 0.2], [1.0] * 49, [0.25, 0.5, 0.25])]
    assert sum(math.fsum(row) != 1.0 for row in ties) == 2
    cases.append((np.concatenate(ties), tuple((1, row.size) for row in ties)))
    adjusted = 0
    for weights, shapes in cases:
        expected = landed_row_by_row(weights, shapes)
        landed = make_functionals(np.zeros(weights.size), weights, shapes).weights
        assert landed.tobytes() == expected.tobytes()
        for block in row_blocks(weights, shapes):
            rows = block / block.sum(axis=1)[:, None]
            adjusted += sum(math.fsum(row) != 1.0 for row in rows)
    assert adjusted > 1000


# Canaries for the replayed stream: random_functionals reads PCG64's raw
# words itself, so each case is held to numpy's own per-row calls from the
# same entry state, bits and generator state after (buffered half-word too).

def assert_batch_from_state(state, m, M, count, max_nodes=fuzzing.MAX_NODES):
    batch_rng, reference_rng = generator_at(state), generator_at(state)
    batch = random_functionals(batch_rng, m, M, count)
    reference = [drawn_functional(reference_rng, m, M, max_nodes) for _ in range(count)]
    shapes, order = expected_layout(reference)
    assert batch.shapes == shapes
    assert batch.order.tolist() == order
    in_order = [reference[index] for index in order]
    assert batch.nodes.tobytes() == np.concatenate([F.nodes for F in in_order]).tobytes()
    assert batch.weights.tobytes() == np.concatenate([F.weights for F in in_order]).tobytes()
    assert batch_rng.bit_generator.state == reference_rng.bit_generator.state
    return batch_rng.bit_generator.state


def with_buffer(seed, uinteger):
    state = np.random.default_rng(seed).bit_generator.state
    state["has_uint32"], state["uinteger"] = 1, uinteger
    return state


def test_buffered_zero_half_word_takes_the_rejection_branch():
    """A half-word of 0 is rejected (Lemire's leftover 0 is below the
    threshold), so the first count comes from the next word's low half."""
    for seed in range(5):
        state = with_buffer(seed, 0)
        probe = generator_at(state)
        probe.integers(1, fuzzing.MAX_NODES + 1)
        assert probe.bit_generator.state["state"] != state["state"]
        for count in (1, 2, 30):
            assert_batch_from_state(state, -1.0, 2.0, count)


def test_one_node_rows_draw_no_count(monkeypatch):
    """With MAX_NODES == 1 numpy draws no count: each row takes its two
    doubles alone and the buffered half-word survives the batch."""
    monkeypatch.setattr(fuzzing, "MAX_NODES", 1)
    for state in (np.random.default_rng(12).bit_generator.state, with_buffer(12, 77)):
        after = assert_batch_from_state(state, 0.0, 1.0, 40, max_nodes=1)
        doubles = generator_at(state)
        doubles.random(80)
        assert after == doubles.bit_generator.state
        assert (after["has_uint32"], after["uinteger"]) == (
            state["has_uint32"], state["uinteger"])


@pytest.mark.parametrize("pre_draws", [1, 3, 7])
def test_entry_with_a_buffered_half_word(pre_draws):
    """An odd number of 32-bit draws before the batch leaves a half-word
    buffered, which the batch's first count must use."""
    for seed in range(10):
        rng = np.random.default_rng(seed)
        for _ in range(pre_draws):
            rng.integers(5)
        state = rng.bit_generator.state
        assert state["has_uint32"] == 1
        for count in (1, 2, 9, 400):
            assert_batch_from_state(state, -2.0, 0.5, count)


def test_batch_that_outgrows_the_first_block():
    """The first block holds count * (MAX_NODES + 3) + 2 * MAX_NODES + 2
    words and is refilled when fewer than 2 * MAX_NODES + 2 are left at a
    row; batches that need it keep the stream."""
    count, room = 400, 2 * fuzzing.MAX_NODES + 2
    block = count * (fuzzing.MAX_NODES + 3) + room
    outgrown = 0
    for seed in range(20):
        state = np.random.default_rng([seed, 15]).bit_generator.state
        draws, words = generator_at(state), 0
        for index in range(count):
            last_row_at = words
            k = int(draws.integers(1, fuzzing.MAX_NODES + 1))
            draws.random(2 * k + (k >= 2))
            # a fresh word for every other count: none was rejected
            words += (index % 2 == 0) + 2 * k + (k >= 2)
        advanced = generator_at(state)
        advanced.bit_generator.advance(words)
        assert advanced.bit_generator.state["state"] == draws.bit_generator.state["state"]
        outgrown += block - last_row_at < room
        assert_batch_from_state(state, 0.25, 4.0, count)
    assert outgrown >= 3


@pytest.mark.parametrize("make", [
    lambda: np.random.Generator(np.random.PCG64DXSM(3)),
    lambda: np.random.Generator(np.random.Philox(3)),
    lambda: np.random.Generator(np.random.MT19937(3)),
    lambda: np.random.RandomState(3),
], ids=["PCG64DXSM", "Philox", "MT19937", "RandomState"])
def test_other_bit_generators_refused_before_any_draw(make):
    rng = make()
    with pytest.raises(ValueError, match="PCG64"):
        random_functionals(rng, 0.0, 1.0, 5)
    assert rng.random(3).tolist() == make().random(3).tolist()


# The batch path of the landing: every batch, of any row count, lands its
# weights on exact int64 limb sums (functionals._land_batch), held here to
# landed_row_by_row bit for bit on rows that reach each of its branches.

def normalized_rows(weights, shapes):
    for block in row_blocks(weights, shapes):
        block /= block.sum(axis=1, keepdims=True)
    return weights


def assert_batch_lands_row_by_row(weights, shapes):
    landed = make_functionals(np.zeros(weights.size), weights, shapes).weights
    assert landed.tobytes() == landed_row_by_row(weights, shapes).tobytes()


def adjustments_row_by_row(weights, shapes):
    """How many adjustments landed_row_by_row makes on each row."""
    counts = []
    for block in row_blocks(np.array(weights), shapes):
        for row in block / block.sum(axis=1)[:, None]:
            count = 0
            while count < 4 and math.fsum(row) != 1.0:
                row[row.argmax()] -= math.fsum(row) - 1.0
                count += 1
            counts.append(count)
    return np.array(counts)


def rows_the_limbs_cannot_hold(weights, shapes):
    """Whether each row holds a weight with a bit below 2**-104."""
    held = functionals._limbs(weights)[1]
    return np.concatenate([~block.all(axis=1) for block in row_blocks(held, shapes)])


def random_rows(rng, count=400):
    shapes = random_functionals(rng, 0.0, 1.0, count).shapes
    weights = rng.uniform(0.0, 1.0, sum(c * k for c, k in shapes)) + 1e-12
    return weights, shapes


def test_batch_landing_leaves_rows_the_limbs_cannot_hold_to_the_loop():
    rng = np.random.default_rng(16)
    for _ in range(10):
        weights, shapes = random_rows(rng)
        tiny = rng.random(weights.size) < 0.02
        weights[tiny] *= 10.0 ** rng.uniform(-32.0, -28.0, tiny.sum())
        normalized_rows(weights, shapes)
        loose = rows_the_limbs_cannot_hold(weights, shapes)
        assert 0 < loose.sum() < loose.size
        assert (adjustments_row_by_row(weights, shapes)[loose] > 0).any()
        assert_batch_lands_row_by_row(weights, shapes)
    # steep Zipf-Mandelbrot laws, whose tails fall below 2**-104
    laws = [zm_distribution(40, q, s).pmf for q, s in
            zip(rng.uniform(0.0, 5.0, 60), rng.uniform(8.0, 30.0, 60))]
    weights, shapes = np.concatenate(laws), ((60, 40),)
    loose = rows_the_limbs_cannot_hold(weights, shapes)
    assert 0 < loose.sum() < loose.size
    assert_batch_lands_row_by_row(weights, shapes)


def test_batch_landing_on_rows_whose_plain_limb_sums_overflow_int64():
    """Rows of 5000 entries and more: their r limbs (up to 2**52 each)
    sum past int64, which the 26-bit halves do not."""
    rng = np.random.default_rng(17)
    shapes = ((6, 5000), (2, 12_000), (60, 7))
    weights = normalized_rows(rng.uniform(0.0, 1.0, 54_420) + 1e-12, shapes)
    limbs = functionals._limbs(weights)[0]
    r = (limbs[1] << 26) | limbs[2]
    r_sums = [sum(row.tolist()) for block in row_blocks(r, shapes[:2]) for row in block]
    assert max(r_sums) > 2**63
    assert (adjustments_row_by_row(weights, shapes)[:8] > 0).any()
    assert_batch_lands_row_by_row(weights, shapes)


def test_batch_landing_on_rows_that_take_two_rounds():
    rng = np.random.default_rng(18)
    for _ in range(10):
        weights, shapes = random_rows(rng)
        normalized_rows(weights, shapes)
        assert set(adjustments_row_by_row(weights, shapes).tolist()) == {0, 1, 2}
        assert_batch_lands_row_by_row(weights, shapes)


def test_batch_landing_at_a_tied_largest_weight():
    """Rows whose largest weight is tied land at its first place, as
    argmax picks it."""
    rng = np.random.default_rng(19)
    tied_and_adjusted = 0
    for _ in range(5):
        weights, shapes = random_rows(rng)
        tied = []
        for block in row_blocks(weights, shapes):
            for row in block[:4]:
                if row.size >= 2:
                    row[rng.choice(row.size, min(row.size, 3), replace=False)] = row.max()
                tied.append(row.size >= 2)
            tied += [False] * (len(block) - len(block[:4]))
        normalized_rows(weights, shapes)
        tied_and_adjusted += (adjustments_row_by_row(weights, shapes)[np.array(tied)] > 0).sum()
        assert_batch_lands_row_by_row(weights, shapes)
    assert tied_and_adjusted > 50


@pytest.mark.parametrize("count", [1, 2, 47])
def test_batch_landing_on_small_batches(count):
    """Batches of one, two and 47 rows land on the limbs as verify's
    batches of 400 do, half of them holding weights below the limbs."""
    rng = np.random.default_rng(20 + count)
    adjustments, loose = set(), 0
    for draw in range(60):
        weights, shapes = random_rows(rng, count)
        if draw % 2:
            tiny = rng.random(weights.size) < 0.05
            weights[tiny] *= 10.0 ** rng.uniform(-32.0, -28.0, tiny.sum())
        normalized_rows(weights, shapes)
        adjustments |= set(adjustments_row_by_row(weights, shapes).tolist())
        loose += rows_the_limbs_cannot_hold(weights, shapes).sum()
        assert_batch_lands_row_by_row(weights, shapes)
    assert adjustments == {0, 1, 2} and loose > 0


def test_one_row_callers_land_as_the_loop_on_criterion_4_pairs():
    """ratio_functional and make_functional land a single row by the loop,
    on the first 2000 pairs of acceptance criterion 4."""
    rng = np.random.default_rng(77)
    for _ in range(2000):
        k = int(rng.integers(2, 9))
        p, q = rng.dirichlet(np.ones(k)), rng.dirichlet(np.ones(k))
        functional, _, _, masses = ratio_functional(p, q)
        expected = landed_row_by_row(masses, ((1, masses.size),))
        assert functional.weights.tobytes() == expected.tobytes()
        assert make_functional(p, q).weights.tobytes() == \
            landed_row_by_row(q, ((1, k),)).tobytes()


@pytest.mark.parametrize("row, expected", [
    ([1.0, 2**-53], 1.0),
    ([1.0, 2**-53, 2**-105], 1.0 + 2**-52),
    ([1.0, -2**-54], 1.0),
])
def test_fsum_and_one_add_round_ties_to_even(row, expected):
    """The canary for the limb sums, which take fsum(row) as one float add
    fl(A * 2**-52 + B * 2**-104) of the exact row sum split at 2**-52:
    on a tie, or just past one, math.fsum and that add must both round
    half to even.  A Python whose fsum rounds otherwise would move the
    landed bits of every batch."""
    A, B = divmod(sum(map(Fraction, row)) * 2**104, 2**52)
    assert math.fsum(row) == float(A) * 2.0**-52 + float(B) * 2.0**-104 == expected
    limbs, held = functionals._limbs(np.array(row))
    # 2**-105 lies below the limbs, which leave its row to fsum
    assert held.all() == (B.denominator == 1)
    if held.all():
        B = int(B)
        canonical = np.array([[A], [B >> 26], [B & (2**26 - 1)]])
        assert functionals._limb_sums(canonical)[0] == expected
        assert functionals._limb_sums(limbs.sum(axis=1, keepdims=True))[0] == expected
