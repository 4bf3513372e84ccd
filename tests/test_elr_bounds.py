import numpy as np
import pytest

from elrbounds import (
    THEOREMS,
    bounds,
    bounds_derivative,
    bounds_secant,
    bounds_taylor,
    certify_3convex,
    elr_difference,
    jensen_gap_bounds,
    make_functional,
)
from elrbounds.fuzzing import bracket_fuzz
from elrbounds.registry import resolve_phi

CUBIC = resolve_phi({"name": "cubic"})
QUARTIC = resolve_phi({"name": "quartic"})
SQUARE = resolve_phi({"poly": [0.0, 0.0, 1.0]})

POINT_MASS = make_functional([0.5], [1.0])
ENDPOINTS = make_functional([0.0, 1.0], [0.5, 0.5])


class TestElrDifference:
    def test_endpoint_masses_are_tight(self):
        assert elr_difference(ENDPOINTS, CUBIC, 0.0, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_point_mass_cube(self):
        assert elr_difference(POINT_MASS, CUBIC, 0.0, 1.0) == pytest.approx(0.375, abs=1e-15)

    def test_point_mass_square(self):
        assert elr_difference(POINT_MASS, SQUARE, 0.0, 1.0) == pytest.approx(0.25, abs=1e-15)


class TestSecant:
    def test_worked_instance(self):
        r = bounds_secant(POINT_MASS, CUBIC, 0.0, 1.0, "three_convex")
        assert (r.lower, r.mid, r.upper) == pytest.approx((0.25, 0.375, 0.5), abs=1e-12)
        assert r.orientation == "direct"
        assert r.violation() == 0.0

    def test_endpoint_masses_collapse(self):
        r = bounds_secant(ENDPOINTS, CUBIC, 0.0, 1.0, "three_convex")
        assert (r.lower, r.mid, r.upper) == pytest.approx((0.0, 0.0, 0.0), abs=1e-15)

    def test_negated_function_reverses_and_negates(self):
        direct = bounds_secant(POINT_MASS, CUBIC, 0.0, 1.0, "three_convex")
        flipped = bounds_secant(POINT_MASS, CUBIC.negated(), 0.0, 1.0, "neg_three_convex")
        assert flipped.orientation == "reversed"
        assert flipped.lower == -direct.lower
        assert flipped.mid == -direct.mid
        assert flipped.upper == -direct.upper
        lo, hi = flipped.bracket()
        assert lo <= flipped.mid <= hi

    def test_unknown_direction_rejected(self):
        with pytest.raises(ValueError, match="theorem hypotheses unmet"):
            bounds_secant(POINT_MASS, CUBIC, 0.0, 1.0, "neither")

    def test_certificate_accepted_as_direction(self):
        cert = certify_3convex(CUBIC, 0.0, 1.0, 33)
        r = bounds_secant(POINT_MASS, CUBIC, 0.0, 1.0, cert)
        assert r.orientation == "direct"


class TestDerivative:
    def test_worked_instance(self):
        r = bounds_derivative(POINT_MASS, CUBIC, 0.0, 1.0, "three_convex")
        assert (r.lower, r.mid, r.upper) == pytest.approx((0.3125, 0.375, 0.4375), abs=1e-12)

    def test_endpoint_masses_zero_mid(self):
        # the derivative-moment terms do not vanish for endpoint masses:
        # A[(f-m)phi'(f)] = 1.5 here, so lower = 0.5*1 - 0.75 = -0.25 and
        # upper = 0 - 0.5*(1 - 1.5) = 0.25 by direct evaluation
        r = bounds_derivative(ENDPOINTS, CUBIC, 0.0, 1.0, "three_convex")
        assert (r.lower, r.mid, r.upper) == pytest.approx((-0.25, 0.0, 0.25), abs=1e-15)

    def test_quadratic_lower_bound_is_tight(self):
        r = bounds_derivative(POINT_MASS, SQUARE, 0.0, 1.0, "three_convex")
        assert r.lower == pytest.approx(0.25, abs=1e-14)
        assert r.mid == pytest.approx(0.25, abs=1e-14)
        assert r.violation() <= 1e-15

    def test_missing_first_derivative_rejected(self):
        from elrbounds import FunctionBundle
        bare = FunctionBundle(domain_lo=-5, domain_hi=5, f=lambda x: x**3,
                              d1_plus_at_lo=75.0, d1_minus_at_hi=75.0)
        with pytest.raises(ValueError, match="insufficient bundle"):
            bounds_derivative(POINT_MASS, bare, 0.0, 1.0, "three_convex")


class TestTaylor:
    def test_worked_instance(self):
        r = bounds_taylor(POINT_MASS, CUBIC, 0.0, 1.0, "three_convex")
        assert (r.lower, r.mid, r.upper) == pytest.approx((0.25, 0.375, 0.5), abs=1e-12)

    def test_endpoint_masses_zero_mid(self):
        # direct evaluation: lower = 0.5*(3-1) - 3*0.5 = -0.5 and
        # upper = 0.5*(1-0) - 0 = 0.5; only the mid collapses
        r = bounds_taylor(ENDPOINTS, CUBIC, 0.0, 1.0, "three_convex")
        assert (r.lower, r.mid, r.upper) == pytest.approx((-0.5, 0.0, 0.5), abs=1e-15)

    def test_quartic_mid(self):
        r = bounds_taylor(POINT_MASS, QUARTIC, 0.0, 1.0, "three_convex")
        assert r.mid == pytest.approx(0.4375, abs=1e-14)
        assert r.lower <= r.mid <= r.upper


class TestJensenGap:
    def test_point_mass_gap_vanishes(self):
        r = jensen_gap_bounds(POINT_MASS, CUBIC, 0.0, 1.0, "derivative", "three_convex")
        assert r.mid == pytest.approx(0.0, abs=1e-15)
        assert (r.lower, r.upper) == pytest.approx((-1.125, 0.125), abs=1e-12)

    def test_variance_identity(self):
        r = jensen_gap_bounds(ENDPOINTS, SQUARE, 0.0, 1.0, "derivative", "three_convex")
        assert r.mid == pytest.approx(0.25, abs=1e-15)

    def test_any_point_mass_has_zero_gap(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            x = float(rng.uniform(0.05, 0.95))
            F = make_functional([x], [1.0])
            for variant in ("derivative", "taylor"):
                r = jensen_gap_bounds(F, CUBIC, 0.0, 1.0, variant, "three_convex")
                assert r.mid == pytest.approx(0.0, abs=1e-14)

    def test_taylor_variant_brackets_on_worked_instance(self):
        r = jensen_gap_bounds(POINT_MASS, CUBIC, 0.0, 1.0, "taylor", "three_convex")
        assert r.lower <= r.mid <= r.upper

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError, match="variant"):
            jensen_gap_bounds(POINT_MASS, CUBIC, 0.0, 1.0, "secant", "three_convex")


class TestReversal:
    def test_negation_is_exact_for_every_operation(self):
        rng = np.random.default_rng(19)
        ops = [bounds_secant, bounds_derivative, bounds_taylor]
        for _ in range(25):
            k = int(rng.integers(1, 10))
            F = make_functional(rng.uniform(0.0, 1.0, k), np.ones(k) / k)
            neg = CUBIC.negated()
            for name, op in zip(THEOREMS, ops):
                a = op(F, CUBIC, 0.0, 1.0, "three_convex")
                b = op(F, neg, 0.0, 1.0, "neg_three_convex")
                assert (b.lower, b.mid, b.upper) == (-a.lower, -a.mid, -a.upper)
                assert b.orientation == "reversed"
                assert b.violation() <= 1e-12
                assert bounds(name, F, CUBIC, 0.0, 1.0, "three_convex") == a
                assert bounds(name, F, neg, 0.0, 1.0, "neg_three_convex") == b
            for variant in ("derivative", "taylor"):
                a = jensen_gap_bounds(F, CUBIC, 0.0, 1.0, variant, "three_convex")
                b = jensen_gap_bounds(F, neg, 0.0, 1.0, variant, "neg_three_convex")
                assert (b.lower, b.mid, b.upper) == (-a.lower, -a.mid, -a.upper)


class TestScalarChainConsistency:
    def test_point_mass_mid_equals_scalar_expression(self):
        rng = np.random.default_rng(2)
        m, M = 0.0, 1.0
        for _ in range(25):
            x = float(rng.uniform(0.02, 0.98))
            F = make_functional([x], [1.0])
            scalar = ((M - x) * CUBIC.f_at(m) + (x - m) * CUBIC.f_at(M)) / (M - m) - x**3
            for op in (bounds_secant, bounds_derivative, bounds_taylor):
                r = op(F, CUBIC, m, M, "three_convex")
                assert r.mid == pytest.approx(scalar, abs=1e-13)


class TestBracketFuzzSmall:
    def test_no_violations_on_small_run(self):
        report = bracket_fuzz(seed=123, instances=2000)
        assert report.clean, report.violations[:3]
        assert report.max_violation == 0.0

    def test_degenerate_interval_rejected(self):
        with pytest.raises(ValueError, match="degenerate interval"):
            bounds_secant(POINT_MASS, CUBIC, 0.5, 0.5, "three_convex")
