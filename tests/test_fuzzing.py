"""The batched falsifier against the scalar API it replaces.

``bracket_fuzz`` evaluates a whole batch of functionals at once
(``random_functionals``, ``moments_batch``, ``theorem_triples``) and takes
the reversed orientation as the exact negation of the direct one.  These
tests hold it to the per-functional loop over the public scalar API, with
the draw written out as one functional at a time.
"""

from dataclasses import replace

import numpy as np
import pytest

from elrbounds import fuzzing
from elrbounds.divided_diff import certify_3convex
from elrbounds.elr_bounds import THEOREMS, bounds, theorem_triple, theorem_triples
from elrbounds.functionals import make_functional, make_functionals, moments, moments_batch
from elrbounds.fuzzing import bracket_fuzz, random_functional, random_functionals
from elrbounds.registry import resolve_phi


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
        cert = certify_3convex(bundle, m, M, 65)
        neg = bundle.negated()
        neg_cert = certify_3convex(neg, m, M, 65)
        for _ in range(take):
            functional = drawn_functional(rng, m, M)
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
    return violations


def test_violations_match_the_scalar_loop(monkeypatch):
    cubic = resolve_phi({"name": "cubic"})

    def broken_cubic(rng, name, lo, hi):
        # the true right slope at lo is 3 lo^2; a larger stored one breaks
        # the brackets that read it
        return replace(cubic, domain_lo=lo, d1_plus_at_lo=3.0 * lo * lo + 0.5,
                       name="broken cubic", _memo={})

    monkeypatch.setattr(fuzzing, "draw_bundle", broken_cubic)
    for seed in (1, 2):
        report = bracket_fuzz(seed, 900, tolerance=1e-9, batch=400)
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
    triples = theorem_triples(ms, bundle, m, M)
    assert triples.shape == (len(THEOREMS), 3, len(batch))
    for i, F in enumerate(functionals):
        scalar_ms = moments(F, bundle, m, M)
        assert all(getattr(ms, f)[i] == getattr(scalar_ms, f)
                   for f in vars(scalar_ms))
        for t, theorem in enumerate(THEOREMS):
            assert tuple(triples[t, :, i]) == theorem_triple(theorem, F, bundle, m, M)
            assert tuple(-triples[t, :, i]) == theorem_triple(theorem, F, neg, m, M)


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


@pytest.mark.parametrize("kwargs", [
    {"instances": -5}, {"instances": 0}, {"instances": 2.0},
    {"instances": True}, {"batch": 0}, {"batch": -1},
    {"tolerance": float("nan")}, {"tolerance": float("inf")},
    {"tolerance": -1e-9}, {"tolerance": "1e-9"},
])
def test_bad_arguments_rejected(kwargs):
    args = {"seed": 1, "instances": 10, **kwargs}
    with pytest.raises(ValueError):
        bracket_fuzz(**args)


def test_batch_layout_must_cover_the_arrays():
    nodes = np.array([0.1, 0.2, 0.3])
    weights = np.array([0.5, 0.5, 1.0])
    with pytest.raises(ValueError, match="differ in size"):
        make_functionals(nodes, weights, ((1, 2),))
    batch = make_functionals(nodes, weights, ((1, 2), (1, 1)), np.array([1, 0]))
    assert batch.functional(0).nodes.tolist() == [0.3]
    assert batch.functional(1).weights.tolist() == [0.5, 0.5]
