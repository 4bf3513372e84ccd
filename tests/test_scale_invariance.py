"""Scaling phi by a power of two is exact in floating point, so it must
change nothing but the scale: 2^k*phi gets phi's certified verdict and 2^k
times its witness, and 2^k times each of its bound triples, bit for bit,
check_bundle refuses it exactly when it refuses phi, and it gets phi's
mean-value points and exponential-convexity verdict.  A sign rule or a
tolerance with an absolute floor fails this for a small enough 2^k."""

from dataclasses import replace

import numpy as np
import pytest

from elrbounds import (FunctionBundle, GammaCurve, cauchy_xi, certify_3convex, check_bundle,
                       elr_context, exp_convexity_check, generator, mvt_xi)
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


def refused(bundle, m, M) -> bool:
    try:
        check_bundle(bundle, m, M)
    except ValueError as err:
        assert "disagrees" in str(err)
        return True
    return False


def wrong_d1(bundle: FunctionBundle) -> FunctionBundle:
    """The bundle with d1 off by 0.1%, which any scale should refuse."""
    return replace(bundle, d1=lambda x, d1=bundle.d1: 1.001 * np.asarray(d1(x)),
                   name=f"wrong d1 of {bundle.name}")


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_check_bundle_refuses_at_every_scale_alike(seed):
    """2^k*phi is refused exactly when phi is, over the draws and over
    their planted wrong-d1 copies; the copies are refused at scale 1, so an
    absolute tolerance lets the small ones through."""
    rng = np.random.default_rng(seed)
    planted = 0
    for bundle, m, M in draws(rng, 90):
        k = int(rng.integers(-60, 61))
        for phi in (bundle, wrong_d1(bundle)):
            verdict = refused(phi, m, M)
            assert refused(scaled(phi, 2.0 ** k), m, M) == verdict, (phi.name, m, M, k)
            planted += verdict and phi is not bundle
    assert planted >= 60


def test_check_bundle_refuses_a_tiny_wrong_derivative():
    """2^-40*x^3 on [0, 1] with d1 = 2^-40*2x^2 is refused, as at scale 1;
    so is a wrong stored slope at its left end."""
    s = 2.0 ** -40
    cube = FunctionBundle(domain_lo=0.0, domain_hi=1.0, f=lambda x: s * x ** 3,
                          d1=lambda x: s * 3.0 * x ** 2, d2=lambda x: s * 6.0 * x,
                          d3=lambda x: s * 6.0 + 0.0 * x, name="tiny cube")
    check_bundle(cube)
    with pytest.raises(ValueError, match="d1 disagrees with finite difference at x=0.95"):
        check_bundle(replace(cube, d1=lambda x: s * 2.0 * x ** 2))
    with pytest.raises(ValueError, match="stored d1 at left endpoint .* disagrees"):
        check_bundle(replace(cube, d1_plus_at_lo=s))
    check_bundle(replace(cube, d1_plus_at_lo=0.0, d2_plus_at_lo=0.0))


def test_check_bundle_keeps_an_offset_function():
    """1 + 1e-9*x: its central difference carries rounding of 1 in f far
    above 1e-6 of its slope, which the rounding allowance covers."""
    check_bundle(FunctionBundle(domain_lo=0.0, domain_hi=1.0, f=lambda x: 1.0 + 1e-9 * x,
                                d1=lambda x: 1e-9 + 0.0 * x, name="1+1e-9x"))


def test_check_bundle_refuses_a_wrong_end_slope_under_a_large_offset():
    """1e6 + x on [0, 1]: the one-sided difference at 0 carries rounding of
    1e6 in f, about 1e-4 of the slope 1, so the true slope passes and the
    slope 0 is refused."""
    offset = FunctionBundle(domain_lo=0.0, domain_hi=1.0, f=lambda x: 1e6 + x,
                            d1=lambda x: 1.0 + 0.0 * x, d1_plus_at_lo=1.0, name="1e6+x")
    check_bundle(offset)
    with pytest.raises(ValueError, match="stored d1 at left endpoint 0 disagrees"):
        check_bundle(replace(offset, d1_plus_at_lo=0.0))


@pytest.mark.parametrize("wrong", [lambda x: np.exp(x) * (x > 10.0),
                                   lambda x: np.exp(x) * (1.0 + 1e-3 * (x < 5.0))],
                         ids=["zero-below-10", "off-1e-3-below-5"])
def test_check_bundle_refuses_a_local_error_on_a_wide_window(wrong):
    """exp on [0, 30] spans 13 decades: a d1 wrong only where exp is small
    is refused, as a tolerance read at each point sees it, while the true
    bundle passes."""
    exp = resolve_phi({"name": "exp"})
    check_bundle(exp, 0.0, 30.0)
    with pytest.raises(ValueError, match="d1 disagrees with finite difference"):
        check_bundle(replace(exp, d1=wrong), 0.0, 30.0)


def test_tiny_three_concave_cubic_keeps_its_verdict():
    """-x^3/6 is 3-concave, and so is 2^-40 of it, whose d3 lies well
    inside an absolute floor of 1e-12."""
    cubic = resolve_phi({"poly": [0.0, 0.0, 0.0, -1.0 / 6.0]})
    for k in (0, -40):
        cert = certify_3convex(scaled(cubic, 2.0 ** k), 0.0, 1.0, CERTIFY_POINTS)
        assert cert.verdict == "neg_three_convex", k


def outcome(call):
    """A mean-value point as (xi, unique), or the kind of its refusal."""
    try:
        return tuple(call())
    except ValueError as err:
        return str(err).split(":")[0]


@pytest.mark.parametrize("seed", [0, 1])
def test_mean_value_points_and_gram_verdicts_are_scale_free(seed):
    """2^k*phi, its coefficients scaled, for k in [-60, 60]: its MVT and
    Cauchy points (against x^5) and their uniqueness are phi's, bit for
    bit, and so is the exponential-convexity verdict of a family of such
    polynomials, affine in t (its Gram matrices are not PSD) or e^t times
    one polynomial (rank one, PSD)."""
    rng = np.random.default_rng(seed)
    fifth = poly_bundle([0.0] * 5 + [1.0])
    verdicts = set()
    for _ in range(40):
        k = int(rng.integers(-60, 61))
        m = float(rng.uniform(0.05, 2.0))
        M = m + float(rng.uniform(0.1, 3.0))
        n = int(rng.integers(1, 6))
        weights = rng.uniform(0.05, 1.0, n)
        ctx = elr_context(int(rng.integers(1, 7)),
                          make_functional(rng.uniform(m, M, n), weights / weights.sum()), m, M)
        a, b = rng.normal(size=(2, int(rng.integers(4, 7))))
        at = lambda scale, c: poly_bundle((scale * np.asarray(c)).tolist())
        for scale in (1.0, 2.0 ** k):
            got = (outcome(lambda: mvt_xi(ctx, at(scale, a))),
                   outcome(lambda: cauchy_xi(ctx, at(scale, a), fifth)))
            if scale == 1.0:
                points = got
            assert got == points, (a.tolist(), m, M, k)
        for family in (lambda scale, t: at(scale, a + t * b),
                       lambda scale, t: at(scale, np.exp(t) * a)):
            grid = np.linspace(0.0, 2.0, 5)
            passed = [exp_convexity_check(GammaCurve(ctx, lambda t: family(scale, t), grid),
                                          2).passed for scale in (1.0, 2.0 ** k)]
            assert passed[0] == passed[1], (a.tolist(), b.tolist(), m, M, k)
            verdicts.add(passed[0])
    assert verdicts == {False, True}


def test_tiny_multiples_keep_their_mean_value_points_and_gram_verdict():
    """x^4 and the affine family x^3 + t*x^4, at scales 1, 2^-30 and 2^-60:
    one unique MVT and Cauchy point each, and a Gram matrix that is not
    PSD (least eigenvalue -0.038 at scale 1)."""
    F = make_functional([0.3, 0.55, 0.9], [0.2, 0.5, 0.3])
    ctx = elr_context(1, F, 0.1, 1.0)
    fifth = poly_bundle([0.0] * 5 + [1.0])
    for k in (0, -30, -60):
        c = 2.0 ** k
        quartic = poly_bundle([0.0, 0.0, 0.0, 0.0, c])
        assert mvt_xi(ctx, quartic) == (0.45640211405202535, True), k
        assert cauchy_xi(ctx, quartic, fifth) == (0.5269039104351125, True), k
        curve = GammaCurve(ctx, lambda t: poly_bundle([0.0, 0.0, 0.0, c, c * t]),
                           np.linspace(0.0, 2.0, 5))
        assert not exp_convexity_check(curve, 2).passed, k
