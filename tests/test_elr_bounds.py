import math
import re
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from elrbounds import (
    THEOREMS,
    FunctionBundle,
    bounds,
    certify_3convex,
    elr_context,
    elr_difference,
    gamma,
    generator,
    jensen_gap_bounds,
    make_functional,
)
from elrbounds.elr_bounds import BoundReport, theorem_triple
from elrbounds.functionals import make_functionals, moments, moments_batch
from elrbounds.fuzzing import bracket_fuzz
from elrbounds.registry import resolve_phi

from counting import counted, counting_bundle

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

    def test_replaced_bundle_reads_its_own_ends(self):
        """A bundle made by replace does not read its parent's memoized
        endpoint values."""
        F = make_functional([0.5, 1.5], [0.5, 0.5])
        assert elr_difference(F, CUBIC, 0.0, 2.0) == 2.25
        assert elr_difference(F, replace(CUBIC, f=lambda x: x**3 + 100), 0.0, 2.0) == 2.25


class TestSecant:
    def test_worked_instance(self):
        r = bounds("secant", POINT_MASS, CUBIC, 0.0, 1.0, "three_convex")
        assert (r.lower, r.mid, r.upper) == pytest.approx((0.25, 0.375, 0.5), abs=1e-12)
        assert r.orientation == "direct"
        assert r.violation() == 0.0

    def test_endpoint_masses_collapse(self):
        r = bounds("secant", ENDPOINTS, CUBIC, 0.0, 1.0, "three_convex")
        assert (r.lower, r.mid, r.upper) == pytest.approx((0.0, 0.0, 0.0), abs=1e-15)

    def test_negated_function_reverses_and_negates(self):
        direct = bounds("secant", POINT_MASS, CUBIC, 0.0, 1.0, "three_convex")
        flipped = bounds("secant", POINT_MASS, CUBIC.negated(), 0.0, 1.0, "neg_three_convex")
        assert flipped.orientation == "reversed"
        assert flipped.lower == -direct.lower
        assert flipped.mid == -direct.mid
        assert flipped.upper == -direct.upper
        lo, hi = flipped.bracket()
        assert lo <= flipped.mid <= hi

    def test_unknown_direction_rejected(self):
        with pytest.raises(ValueError, match="theorem hypotheses unmet"):
            bounds("secant", POINT_MASS, CUBIC, 0.0, 1.0, "neither")

    def test_certificate_accepted_as_direction(self):
        cert = certify_3convex(CUBIC, 0.0, 1.0, 33)
        r = bounds("secant", POINT_MASS, CUBIC, 0.0, 1.0, cert)
        assert r.orientation == "direct"


class TestDerivative:
    def test_worked_instance(self):
        r = bounds("derivative", POINT_MASS, CUBIC, 0.0, 1.0, "three_convex")
        assert (r.lower, r.mid, r.upper) == pytest.approx((0.3125, 0.375, 0.4375), abs=1e-12)

    def test_endpoint_masses_zero_mid(self):
        # the derivative-moment terms do not vanish for endpoint masses:
        # A[(f-m)phi'(f)] = 1.5 here, so lower = 0.5*1 - 0.75 = -0.25 and
        # upper = 0 - 0.5*(1 - 1.5) = 0.25 by direct evaluation
        r = bounds("derivative", ENDPOINTS, CUBIC, 0.0, 1.0, "three_convex")
        assert (r.lower, r.mid, r.upper) == pytest.approx((-0.25, 0.0, 0.25), abs=1e-15)

    def test_quadratic_lower_bound_is_tight(self):
        r = bounds("derivative", POINT_MASS, SQUARE, 0.0, 1.0, "three_convex")
        assert r.lower == pytest.approx(0.25, abs=1e-14)
        assert r.mid == pytest.approx(0.25, abs=1e-14)
        assert r.violation() <= 1e-15

    def test_missing_first_derivative_rejected(self):
        from elrbounds import FunctionBundle
        bare = FunctionBundle(domain_lo=-5, domain_hi=5, f=lambda x: x**3,
                              d1_plus_at_lo=75.0, d1_minus_at_hi=75.0)
        with pytest.raises(ValueError, match="insufficient bundle"):
            bounds("derivative", POINT_MASS, bare, 0.0, 1.0, "three_convex")


class TestTaylor:
    def test_worked_instance(self):
        r = bounds("taylor", POINT_MASS, CUBIC, 0.0, 1.0, "three_convex")
        assert (r.lower, r.mid, r.upper) == pytest.approx((0.25, 0.375, 0.5), abs=1e-12)

    def test_endpoint_masses_zero_mid(self):
        # direct evaluation: lower = 0.5*(3-1) - 3*0.5 = -0.5 and
        # upper = 0.5*(1-0) - 0 = 0.5; only the mid collapses
        r = bounds("taylor", ENDPOINTS, CUBIC, 0.0, 1.0, "three_convex")
        assert (r.lower, r.mid, r.upper) == pytest.approx((-0.5, 0.0, 0.5), abs=1e-15)

    def test_quartic_mid(self):
        r = bounds("taylor", POINT_MASS, QUARTIC, 0.0, 1.0, "three_convex")
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

    def test_variant_checked_first(self):
        # before the direction, as theorem_triple checks its theorem first
        with pytest.raises(ValueError, match="unknown Jensen-gap variant 'secant'"):
            jensen_gap_bounds(POINT_MASS, CUBIC, 0.0, 1.0, "secant", "neither")

    @pytest.mark.parametrize("variant,top", [("derivative", 1), ("taylor", 2)])
    def test_endpoint_data_in_one_read(self, variant, top, monkeypatch):
        """phi, phi' (and phi'' for taylor) at m and M come from one derivs
        read, the one theorem_triple makes; only phi (and phi' for the
        derivative variant) at the mean are read apart, through deriv."""
        bundle = replace(CUBIC)
        reads = []
        derivs = FunctionBundle.derivs
        monkeypatch.setattr(type(bundle), "derivs", lambda self, r: (
            reads.append(list(r)) or derivs(self, r)))
        F = make_functional([0.3, 0.8], [0.5, 0.5])
        jensen_gap_bounds(F, bundle, 0.0, 1.0, variant, "three_convex")
        mean = moments(F, bundle, 0.0, 1.0).mean
        apart = [[(0, mean)], [(1, mean)]][:1 + (variant == "derivative")]
        assert reads == [[(order, x) for order in range(top + 1)
                          for x in (0.0, 1.0)]] + apart


class TestReversal:
    def test_negation_is_exact_for_every_operation(self):
        rng = np.random.default_rng(19)
        for _ in range(25):
            k = int(rng.integers(1, 10))
            F = make_functional(rng.uniform(0.0, 1.0, k), np.ones(k) / k)
            neg = CUBIC.negated()
            for name in THEOREMS:
                a = bounds(name, F, CUBIC, 0.0, 1.0, "three_convex")
                b = bounds(name, F, neg, 0.0, 1.0, "neg_three_convex")
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
            scalar = ((M - x) * CUBIC.deriv(0, m)
                      + (x - m) * CUBIC.deriv(0, M)) / (M - m) - x**3
            for theorem in THEOREMS:
                r = bounds(theorem, F, CUBIC, m, M, "three_convex")
                assert r.mid == pytest.approx(scalar, abs=1e-13)


class TestBracketFuzzSmall:
    def test_no_violations_on_small_run(self):
        report = bracket_fuzz(seed=123, instances=2000)
        assert report.clean, report.violations[:3]
        assert report.max_violation == 0.0

    def test_degenerate_interval_rejected(self):
        with pytest.raises(ValueError, match="degenerate interval"):
            bounds("secant", POINT_MASS, CUBIC, 0.5, 0.5, "three_convex")


class TestEndpointRead:
    """A bound pair reads phi and its derivatives at m and M in one
    ``FunctionBundle.derivs`` call, each value once per triple, with the
    values, errors and error order of one ``deriv`` call per value."""

    FUNCTIONAL = make_functional([0.8, 1.4, 2.1], [0.3, 0.5, 0.2])

    def test_reader_returns_the_values_of_deriv(self):
        stored = dict(d1_plus_at_lo=-9.0, d1_minus_at_hi=9.5, d2_plus_at_lo=-4.0,
                      d2_minus_at_hi=4.5)
        orders, points = (0, 1, 2), (0.0, 1.3, 3.0, 0.5)
        for fields in ({}, stored):
            bundle = counting_bundle([], **fields)
            values = bundle.derivs([(order, x) for order in orders for x in points])
            expected = [replace(bundle).deriv(order, x)
                        for order in orders for x in points]
            assert values == expected
            assert all(type(v) is float for v in values)
        assert values[4] == -9.0 and values[10] == 4.5  # (1, lo), (2, hi)

    def test_each_end_value_read_once_per_bundle(self, monkeypatch):
        entered = []
        derivs = FunctionBundle.derivs
        monkeypatch.setattr(FunctionBundle, "derivs",
                            lambda *args: entered.append(1) or derivs(*args))
        read = {"secant": {0, 1}, "derivative": {0, 1}, "taylor": {0, 1, 2}}
        for theorem in THEOREMS:
            calls = []
            bundle = counting_bundle(calls)
            ms = moments(self.FUNCTIONAL, bundle, 0.5, 2.5)
            entered.clear()
            theorem_triple(theorem, ms, bundle, 0.5, 2.5)
            assert sorted(calls) == sorted((order, x) for order in read[theorem]
                                           for x in (0.5, 2.5)), theorem
            assert len(entered) == 1  # one floating-point block for the read

    def test_second_gamma_of_a_bundle_hits_the_memo(self):
        """The memo is the context's own Gamma per bundle: a second gamma
        on one context reads nothing."""
        calls = []
        bundle = counting_bundle(calls)
        ctx = elr_context(5, self.FUNCTIONAL, 0.5, 2.5)
        value = gamma(ctx, bundle)
        assert len(calls) == 6
        assert gamma(ctx, bundle) == value and len(calls) == 6
        for again in (replace(ctx), elr_context(6, self.FUNCTIONAL, 0.5, 2.5),
                      elr_context(1, self.FUNCTIONAL, 0.5, 2.5)):
            gamma(again, bundle)
        assert gamma(replace(ctx), bundle) == value

    @pytest.mark.filterwarnings("error")
    def test_interval_outside_the_domain_refused_before_any_read(self):
        """kl's t*log(t) on [-1, 2] would read log(-1), at an end or at the
        node -0.5; no bound pass or moment pass reads it or the counted
        bundle on [0, 3] anywhere, at the ends, the nodes or a batch's."""
        calls = []
        bundles = (counted(generator("kl").bundle, calls, arrays=True),
                   counting_bundle(calls, arrays=True))
        for nodes in ([0.5, 1.0], [-0.5, 1.0]):
            F = make_functional(nodes, [0.5, 0.5])
            batch = make_functionals(np.array(nodes + [1.5, 1.0]), np.full(4, 0.5),
                                     ((2, 2),))
            for bundle in bundles:
                passes = [
                    *(partial(bounds, theorem, F, bundle, -1.0, 2.0, "neg_three_convex")
                      for theorem in THEOREMS),
                    *(partial(jensen_gap_bounds, F, bundle, -1.0, 2.0, variant,
                              "neg_three_convex") for variant in ("derivative", "taylor")),
                    partial(elr_difference, F, bundle, -1.0, 2.0),
                    partial(moments, F, bundle, -1.0, 2.0),
                    partial(moments, F, bundle, -1.0, 2.0, phi_vals=np.ones(2)),
                    partial(moments_batch, batch, bundle, -1.0, 2.0),
                ]
                message = re.escape(f"interval [-1.0, 2.0] escapes the domain of "
                                    f"{bundle.name!r}")
                for run in passes:
                    with pytest.raises(ValueError, match=message):
                        run()
        assert calls == []

    def test_error_texts_in_their_order(self):
        m, M = 0.25, 2.5
        pole = lambda x: 1.0 / (x - 2.5)
        cases = [
            # phi not finite at an end comes before any missing derivative
            (dict(f=pole, d1=None), ("secant",),
             "function values at the interval endpoints must be finite"),
            (dict(f=pole, d2=None), ("taylor",),
             "function values at the interval endpoints must be finite"),
            (dict(f=pole, d1=lambda x: 1.0 / float(x - 2.5)), THEOREMS,
             "function values at the interval endpoints must be finite"),
            (dict(d1=None), THEOREMS,
             "insufficient bundle: derivative of order 1 of 'counted' unavailable "
             "at x=0.25"),
            (dict(d2=None), ("taylor",),
             "insufficient bundle: derivative of order 2 of 'counted' unavailable "
             "at x=0.25"),
        ]
        for fields, theorems, message in cases:
            for theorem in theorems:
                bundle = counting_bundle([], **fields)
                with pytest.raises(ValueError) as err:
                    theorem_triple(theorem, moments(make_functional([1.0], [1.0]),
                                                    bundle, m, M), bundle, m, M)
                assert str(err.value) == message, (fields, theorem)
        # stored end values but no d1: the derivative pair lacks its moments
        bare = counting_bundle([], d1=None, d1_plus_at_lo=0.0, d1_minus_at_hi=4.5)
        with pytest.raises(ValueError) as err:
            theorem_triple("derivative", moments(make_functional([1.0], [1.0]), bare,
                                                 0.0, 3.0), bare, 0.0, 3.0)
        assert str(err.value) == ("insufficient bundle: first derivative moment of "
                                  "'counted' unavailable")

    def test_batch_formulas_still_warn_on_overflow(self):
        # finite reads (1e308 at both ends), overflowing bound formulas
        huge = FunctionBundle(domain_lo=-math.inf, domain_hi=math.inf,
                              f=lambda x: 1e308 + 0.0 * x, d1=lambda x: 0.0 * x,
                              d2=lambda x: 0.0 * x, name="huge")
        batch = make_functionals([5.0, 4.0], [1.0, 1.0], ((2, 1),))
        ms = moments_batch(batch, huge, 0.0, 10.0)
        with pytest.raises(RuntimeWarning, match="overflow"):
            [theorem_triple(theorem, ms, huge, 0.0, 10.0) for theorem in THEOREMS]


class TestExcessPaths:
    """BoundReport.violation reads _excess on floats without numpy; the
    rule is the one bracket_fuzz applies to arrays, to the bit."""

    VALUES = [0.0, -0.0, 1.0, -1.0, 2.5, math.inf, -math.inf, math.nan]

    @staticmethod
    def same(a: float, b: float) -> bool:
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)

    @pytest.mark.parametrize("orientation", ["direct", "reversed"])
    def test_floats_match_one_element_arrays(self, orientation):
        from itertools import product

        from elrbounds.elr_bounds import _excess

        for lower, mid, upper in product(self.VALUES, repeat=3):
            scalar = _excess(lower, mid, upper, orientation)
            with np.errstate(invalid="ignore"):  # inf - inf, as in bracket_fuzz
                array = _excess(*(np.array([v]) for v in (lower, mid, upper)),
                                orientation)
            assert isinstance(scalar, float)
            assert self.same(scalar, float(array[0])), (lower, mid, upper)

    def test_violation_is_the_float_path(self):
        for orientation in ("direct", "reversed"):
            r = BoundReport(lower=1.0, upper=3.0, mid=2.0, orientation=orientation,
                            theorem_tag="t")
            assert r.violation() == (0.0 if orientation == "direct" else 1.0)
            assert type(r.violation()) is float


class TestWideInterval:
    """An interval so wide that the functional's own moments on it
    overflow is refused for the interval, not for the pair it spoils."""

    LINEAR = resolve_phi({"poly": [0, 1]})
    NODE = make_functional([0.5], [1.0])

    @pytest.mark.parametrize("half", [1e200, 8e307])
    @pytest.mark.filterwarnings("error")
    def test_overflowing_moments_name_the_interval(self, half):
        for theorem in THEOREMS:
            with pytest.raises(ValueError, match=re.escape(
                    f"interval [{-half}, {half}] is too wide: the moments of "
                    "the functional on it overflow")):
                bounds(theorem, self.NODE, self.LINEAR, -half, half, "three_convex")

    @pytest.mark.parametrize("half", [1e200, 8e307])
    @pytest.mark.filterwarnings("error")
    def test_jensen_gap_and_elr_difference_name_the_interval(self, half):
        message = re.escape(f"interval [{-half}, {half}] is too wide: the moments "
                            "of the functional on it overflow")
        with pytest.raises(ValueError, match=message):
            jensen_gap_bounds(self.NODE, self.LINEAR, -half, half, "taylor",
                              "three_convex")
        with pytest.raises(ValueError, match=message):
            elr_difference(self.NODE, self.LINEAR, -half, half)

    @pytest.mark.filterwarnings("error")
    def test_elr_difference_that_is_not_finite_refused(self):
        """Every moment is finite, but the secant term of phi = 1.7e308 on
        [0, 4] overflows."""
        with pytest.raises(ValueError) as err:
            elr_difference(make_functional([2.0], [1.0]), resolve_phi({"poly": [1.7e308]}),
                           0.0, 4.0)
        assert str(err.value) == "ELR difference of 'poly(1.7e+308,)' is not finite: inf"

    def test_precomputed_moments_are_no_option(self):
        ms = moments(self.NODE, CUBIC, 0.0, 1.0)
        with pytest.raises(TypeError):
            bounds("secant", self.NODE, CUBIC, 0.0, 1.0, "three_convex", precomputed=ms)

    @pytest.mark.filterwarnings("error")
    def test_wide_but_finite_interval_is_reported(self):
        for theorem in THEOREMS:
            r = bounds(theorem, self.NODE, self.LINEAR, -1e150, 1e150, "three_convex")
            assert all(map(math.isfinite, (r.lower, r.mid, r.upper)))
