"""Scaling phi by a power of two is exact in floating point, so it must
change nothing but the scale: 2^k*phi gets phi's certified verdict and 2^k
times its witness, and 2^k times each of its bound triples, bit for bit.
A sign rule with an absolute floor fails this for a small enough 2^k."""

import numpy as np
import pytest

from elrbounds import FunctionBundle, certify_3convex, generator
from elrbounds.elr_bounds import CERTIFY_POINTS, THEOREMS, theorem_triple
from elrbounds.functionals import make_functional, moments
from elrbounds.fuzzing import draw_bundle, draw_interval
from elrbounds.registry import poly_bundle, resolve_phi

_SCALED = ("f", "d1", "d2", "d3")
_STORED = ("d1_plus_at_lo", "d1_minus_at_hi", "d2_plus_at_lo", "d2_minus_at_hi")


def scaled(bundle: FunctionBundle, s: float) -> FunctionBundle:
    """The bundle of s*phi, every derivative and stored end value times s."""
    def times(g):
        if g is None:
            return None
        return lambda x: s * np.asarray(g(x)) if np.ndim(x) else s * float(g(x))

    fields = {key: times(getattr(bundle, key)) for key in _SCALED}
    fields.update({key: None if getattr(bundle, key) is None else s * getattr(bundle, key)
                   for key in _STORED})
    return FunctionBundle(domain_lo=bundle.domain_lo, domain_hi=bundle.domain_hi,
                          name=f"2^k*{bundle.name}", **fields)


def draws(rng, count):
    """(bundle, m, M): the fuzzer's pool with its intervals (splines
    included), the named generators on positive intervals, and random
    polynomials of degree 3 to 5 on random intervals."""
    generators = [generator(name) for name in ("kl", "hellinger", "harmonic", "jeffreys")]
    generators += [generator("renyi", alpha=a) for a in (-0.5, 1.5, 3.0)]
    for i in range(count):
        kind = i % 3
        if kind == 0:
            name = ("cubic", "quartic", "exp", "xlogx", "spline")[int(rng.integers(5))]
            m, M = draw_interval(rng, name)
            yield draw_bundle(rng, name, m, M), m, M
        elif kind == 1:
            m = float(rng.uniform(0.05, 2.0))
            yield generators[int(rng.integers(len(generators)))].bundle, m, m + float(
                rng.uniform(0.05, 4.0))
        else:
            m = float(rng.uniform(-3.0, 2.0))
            coefficients = rng.normal(size=int(rng.integers(4, 7))).tolist()
            yield poly_bundle(coefficients), m, m + float(rng.uniform(0.05, 3.0))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_power_of_two_scaling_is_exact(seed):
    rng = np.random.default_rng(seed)
    for bundle, m, M in draws(rng, 90):
        k = int(rng.integers(-60, 61))
        s = 2.0 ** k
        big = scaled(bundle, s)
        cert = certify_3convex(bundle, m, M, CERTIFY_POINTS)
        got = certify_3convex(big, m, M, CERTIFY_POINTS)
        where = (bundle.name, m, M, k)
        assert (got.verdict, got.witness_point) == (cert.verdict, cert.witness_point), where
        assert got.min_witness == s * cert.min_witness, where
        n = int(rng.integers(1, 8))
        weights = rng.uniform(0.05, 1.0, n)
        F = make_functional(rng.uniform(m, M, n), weights / weights.sum())
        ms, big_ms = moments(F, bundle, m, M), moments(F, big, m, M)
        for theorem in THEOREMS:
            triple = theorem_triple(theorem, ms, bundle, m, M)
            assert theorem_triple(theorem, big_ms, big, m, M) == tuple(
                s * v for v in triple), (theorem, *where)


def test_tiny_three_concave_cubic_keeps_its_verdict():
    """-x^3/6 is 3-concave, and so is 2^-40 of it, whose d3 lies well
    inside an absolute floor of 1e-12."""
    cubic = resolve_phi({"poly": [0.0, 0.0, 0.0, -1.0 / 6.0]})
    for k in (0, -40):
        cert = certify_3convex(scaled(cubic, 2.0 ** k), 0.0, 1.0, CERTIFY_POINTS)
        assert cert.verdict == "neg_three_convex", k
