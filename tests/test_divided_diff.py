import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elrbounds import (
    FunctionBundle,
    MultiplicityPattern,
    bundle_from_callables,
    certify_3convex,
    check_bundle,
    dd_confluent,
    dd_recursive,
    linear_combination,
)
from elrbounds.registry import poly_bundle, resolve_phi

from oracle_functions import SMOOTH_FUNCTIONS, recursive_oracle


def pairs(f, pts):
    return [(p, f(p)) for p in pts]


CUBIC = resolve_phi({"name": "cubic"})
XLOGX = resolve_phi({"name": "xlogx"})


class TestRecursive:
    def test_square_second_difference(self):
        assert dd_recursive(pairs(lambda x: x**2, [0.0, 1.0, 2.0])) == pytest.approx(1.0, abs=1e-12)

    def test_cube_third_difference(self):
        assert dd_recursive(pairs(lambda x: x**3, [0.0, 1.0, 2.0, 3.0])) == pytest.approx(1.0, abs=1e-12)

    def test_quartic_third_difference(self):
        # brute-force expansion of the recursion gives 6 on {0,1,2,3}
        f = lambda x: x**4

        def brute(ts):
            if len(ts) == 1:
                return f(ts[0])
            return (brute(ts[1:]) - brute(ts[:-1])) / (ts[-1] - ts[0])

        expected = brute((0.0, 1.0, 2.0, 3.0))
        assert expected == 6.0
        assert dd_recursive(pairs(f, [0.0, 1.0, 2.0, 3.0])) == pytest.approx(expected, abs=1e-12)

    def test_single_point_is_value(self):
        assert dd_recursive([(2.0, 7.5)]) == 7.5

    def test_duplicate_points_rejected(self):
        with pytest.raises(ValueError, match="coincident points"):
            dd_recursive([(1.0, 1.0), (1.0, 1.0), (2.0, 8.0)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            dd_recursive([])

    @given(st.lists(st.integers(-300, 300), min_size=2, max_size=6, unique=True),
           st.randoms(use_true_random=False))
    @settings(max_examples=200, deadline=None)
    def test_permutation_invariance(self, grid_points, rnd):
        points = [g / 100.0 for g in grid_points]
        f = lambda x: math.exp(x) + x**4
        base = dd_recursive(pairs(f, points))
        shuffled = list(points)
        rnd.shuffle(shuffled)
        # 1e-12 relative to the conditioning of the divided difference (the
        # absolute row sum of its evaluation weights); tightly clustered
        # points amplify half-ulp rounding beyond any fixed absolute bound
        condition = sum(
            abs(f(t)) / math.prod(abs(t - u) for u in points if u != t)
            for t in points)
        scale = max(1.0, abs(base), condition)
        assert abs(dd_recursive(pairs(f, shuffled)) - base) <= 1e-12 * scale


class TestPattern:
    def test_signature_validation(self):
        with pytest.raises(ValueError, match="sum to 4"):
            MultiplicityPattern((0.0, 1.0), (2, 1))
        with pytest.raises(ValueError, match="distinct"):
            MultiplicityPattern((1.0, 1.0), (2, 2))
        with pytest.raises(ValueError, match="positive"):
            MultiplicityPattern((0.0, 1.0, 2.0), (4, 1, -1))
        pat = MultiplicityPattern((0.5, 1.5, 2.5), (2, 1, 1))
        assert pat.signature == (2, 1, 1)

    def test_expand_is_centred(self):
        pat = MultiplicityPattern((1.0,), (4,))
        split = pat.expand(1e-4)
        assert len(split) == 4
        assert np.mean(split) == pytest.approx(1.0, abs=1e-15)
        assert np.allclose(np.diff(split), 1e-4)


class TestConfluent:
    def test_full_multiplicity_is_scaled_third_derivative(self):
        pat = MultiplicityPattern((5.0,), (4,))
        assert dd_confluent(CUBIC, pat) == pytest.approx(1.0, abs=1e-12)

    def test_double_double_on_cube(self):
        pat = MultiplicityPattern((0.0, 1.0), (2, 2))
        assert dd_confluent(CUBIC, pat) == pytest.approx(1.0, abs=1e-12)

    def test_quadratic_vanishes_under_every_pattern(self):
        quad = poly_bundle([0.0, 0.0, 1.0])
        for points, mult in [((0.1, 0.7, 1.3, 2.0), (1, 1, 1, 1)),
                             ((0.4, 1.1, 1.9), (2, 1, 1)),
                             ((0.4, 1.6), (2, 2)),
                             ((0.4, 1.6), (3, 1)),
                             ((0.9,), (4,))]:
            value = dd_confluent(quad, MultiplicityPattern(points, mult))
            assert value == pytest.approx(0.0, abs=1e-10)

    def test_simple_points_symmetric(self):
        a = dd_confluent(CUBIC, MultiplicityPattern((0.5, 1.25, 2.0), (2, 1, 1)))
        b = dd_confluent(CUBIC, MultiplicityPattern((0.5, 2.0, 1.25), (2, 1, 1)))
        assert a == pytest.approx(b, rel=1e-12)

    def test_missing_derivative_rejected(self):
        bare = FunctionBundle(domain_lo=-10, domain_hi=10, f=lambda x: x**3)
        with pytest.raises(ValueError, match="insufficient bundle"):
            dd_confluent(bare, MultiplicityPattern((1.0, 2.0), (2, 2)))
        no_d3 = FunctionBundle(domain_lo=-10, domain_hi=10, f=lambda x: x**3,
                               d1=lambda x: 3*x**2, d2=lambda x: 6*x)
        with pytest.raises(ValueError, match="insufficient bundle"):
            dd_confluent(no_d3, MultiplicityPattern((1.0,), (4,)))

    def test_point_outside_domain_rejected(self):
        with pytest.raises(ValueError, match="domain"):
            dd_confluent(XLOGX, MultiplicityPattern((-1.0, 1.0), (2, 2)))

    @pytest.mark.parametrize("mult_of", [(1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,)])
    def test_coalescence_against_split_recursion(self, mult_of):
        # spot check on a few functions; the full 20-function sweep runs in
        # the acceptance suite
        eps = 1e-4
        for entry in SMOOTH_FUNCTIONS[::5]:
            pts = entry.points[:len(mult_of)]
            pat = MultiplicityPattern(pts, mult_of)
            confluent = dd_confluent(entry.bundle, pat)
            recursive = recursive_oracle(entry.mp_f, pat.expand(eps))
            assert confluent == pytest.approx(recursive, rel=1e-5), entry.name


class TestCertify:
    def test_cube_is_three_convex(self):
        cert = certify_3convex(CUBIC, 0.1, 2.0, 101)
        assert cert.verdict == "three_convex"
        assert cert.min_witness >= -1e-12
        assert cert.grid_size == 101

    def test_xlogx_is_neg_three_convex(self):
        cert = certify_3convex(XLOGX, 0.1, 2.0, 101)
        assert cert.verdict == "neg_three_convex"

    def test_sign_change_is_neither(self):
        mixed = poly_bundle([0.0, 0.0, 0.0, -1.0, 1.0])  # x^4 - x^3
        cert = certify_3convex(mixed, -1.0, 1.0, 101)
        assert cert.verdict == "neither"

    def test_negation_flips_verdict(self):
        for bundle in (CUBIC, XLOGX):
            direct = certify_3convex(bundle, 0.1, 2.0, 101)
            flipped = certify_3convex(bundle.negated(), 0.1, 2.0, 101)
            expect = {"three_convex": "neg_three_convex",
                      "neg_three_convex": "three_convex"}[direct.verdict]
            assert flipped.verdict == expect

    def test_fallback_without_third_derivative(self):
        no_d3 = FunctionBundle(domain_lo=-10, domain_hi=10, f=lambda x: x**3,
                               d1=lambda x: 3*x**2)
        assert certify_3convex(no_d3, 0.1, 2.0, 31).verdict == "three_convex"
        f_only = FunctionBundle(domain_lo=-10, domain_hi=10, f=lambda x: x**3)
        assert certify_3convex(f_only, 0.1, 2.0, 31).verdict == "three_convex"

    def test_indeterminate_when_no_samples_possible(self):
        f_only = FunctionBundle(domain_lo=-10, domain_hi=10, f=lambda x: x**3)
        cert = certify_3convex(f_only, 0.1, 2.0, 3)
        assert cert.verdict == "indeterminate"

    def test_grid_too_small_rejected(self):
        with pytest.raises(ValueError, match="grid_n"):
            certify_3convex(CUBIC, 0.0, 1.0, 2)

    def test_interval_outside_domain_rejected(self):
        with pytest.raises(ValueError, match="domain"):
            certify_3convex(XLOGX, -0.5, 1.0, 11)


class TestBundle:
    def test_domain_must_be_ordered(self):
        with pytest.raises(ValueError, match="strictly below"):
            FunctionBundle(domain_lo=1.0, domain_hi=1.0, f=lambda x: x)

    def test_endpoint_values_filled_from_callables(self):
        b = bundle_from_callables(lambda x: x**3, lambda x: 3*x**2,
                                  lambda x: 6*x, lo=0.0, hi=2.0)
        assert b.d1_plus_at_lo == 0.0
        assert b.d1_minus_at_hi == 12.0
        assert b.d2_minus_at_hi == 12.0

    def test_one_sided_accessors_prefer_stored_values(self):
        b = FunctionBundle(domain_lo=0.0, domain_hi=1.0, f=lambda x: abs(x),
                           d1_plus_at_lo=1.0, d1_minus_at_hi=1.0)
        assert b.d1_plus(0.0) == 1.0
        assert b.d1_minus(1.0) == 1.0
        with pytest.raises(ValueError, match="insufficient bundle"):
            b.d1_plus(0.5)

    def test_deriv_applies_the_endpoint_rule(self):
        b = FunctionBundle(domain_lo=0.0, domain_hi=1.0, f=lambda x: x**3,
                           d1=lambda x: 3 * x**2, d2=lambda x: 6 * x,
                           d1_plus_at_lo=-1.0, d1_minus_at_hi=-2.0,
                           d2_plus_at_lo=-3.0, d2_minus_at_hi=-4.0)
        assert (b.deriv(1, 0.0), b.deriv(1, 1.0)) == (-1.0, -2.0)
        assert (b.deriv(2, 0.0), b.deriv(2, 1.0)) == (-3.0, -4.0)
        assert (b.deriv(1, 0.5), b.deriv(2, 0.5)) == (0.75, 3.0)
        for x in (0.0, 0.5, 1.0):
            assert b.deriv(0, x) == b.f_at(x) == x**3
        bare = FunctionBundle(domain_lo=0.0, domain_hi=1.0, f=lambda x: x**3,
                              d1_plus_at_lo=0.0)
        assert bare.deriv(1, 0.0) == 0.0
        for order, x in ((1, 0.5), (1, 1.0), (2, 0.0)):
            with pytest.raises(ValueError, match="insufficient bundle"):
                bare.deriv(order, x)

    def test_linear_combination_matches_pointwise(self):
        combo = linear_combination(2.0, CUBIC, -1.0, resolve_phi({"name": "quartic"}))
        xs = np.linspace(-1, 2, 7)
        assert np.allclose(combo.f(xs), 2*xs**3 - xs**4)
        assert np.allclose(combo.d3(xs), 12.0 - 24*xs)

    def test_check_bundle_accepts_consistent_data(self):
        check_bundle(CUBIC, -2.0, 2.0)
        check_bundle(XLOGX, 0.1, 3.0)

    def test_check_bundle_rejects_wrong_derivative(self):
        wrong = FunctionBundle(domain_lo=-2.0, domain_hi=2.0, f=lambda x: x**3,
                               d1=lambda x: 2.9 * x**2)
        with pytest.raises(ValueError, match="disagrees"):
            check_bundle(wrong)

    def test_memoized_scalars_match_callables(self):
        b = resolve_phi({"name": "exp"})
        assert b.f_at(0.3) == b.f_at(0.3) == pytest.approx(math.exp(0.3))


class TestPolynomialExactness:
    @pytest.mark.parametrize("k,expected", [(0, 0.0), (1, 0.0), (2, 0.0), (3, 1.0)])
    def test_monomials(self, k, expected):
        rng = np.random.default_rng(5)
        bundle = poly_bundle([0.0] * k + [1.0])
        for _ in range(20):
            pts = np.sort(rng.uniform(-2, 2, 4))
            if np.min(np.diff(pts)) < 1e-3:
                continue
            val = dd_recursive(pairs(lambda x, k=k: x**k, pts))
            assert val == pytest.approx(expected, abs=1e-9)
        for points, mult in [((0.3, 1.1), (2, 2)), ((0.3, 1.1), (3, 1)), ((0.7,), (4,))]:
            val = dd_confluent(bundle, MultiplicityPattern(points, mult))
            assert val == pytest.approx(expected, abs=1e-10)
