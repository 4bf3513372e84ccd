import math
import re
from dataclasses import replace
from itertools import combinations, permutations

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
    elr_context,
    gamma,
    generator,
    linear_combination,
    make_functional,
    moments,
)
from elrbounds.divergences import GENERATOR_NAMES, GeneratorFunction, divergence_pass
from elrbounds.divided_diff import _verdict_from_samples
from elrbounds.elr_bounds import theorem_triple
from elrbounds.fuzzing import random_three_convex_bundle
from elrbounds.registry import poly_bundle, resolve_phi

from counting import counted, counting_bundle
from oracle_functions import SMOOTH_FUNCTIONS, hermite_oracle, recursive_oracle


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

    @pytest.mark.parametrize("points,multiplicities,message", [
        ((0.5, 1.5), (2.5, 2.5), "multiplicities must be integers"),
        (("0.5", True), (True, 3), "multiplicities must be integers"),
        ((0.5, 1.5), (2.0, 2), "multiplicities must be integers"),
        (("0.5", 1.5), (2, 2), "pattern points must be real numbers"),
        ((0.5, True), (2, 2), "pattern points must be real numbers"),
    ])
    def test_non_numbers_refused(self, points, multiplicities, message):
        """A fraction is not truncated, nor a bool or a string read as a
        number; these checks come before the pattern's own rules."""
        with pytest.raises(ValueError, match=f"^{message}, got "):
            MultiplicityPattern(points, multiplicities)

    def test_numpy_numbers_accepted(self):
        pat = MultiplicityPattern(np.array([0.5, 1.5]), (np.int64(2), np.int32(2)))
        assert pat.points == (0.5, 1.5) and pat.multiplicities == (2, 2)
        assert {type(p) for p in pat.points} == {float}
        assert {type(k) for k in pat.multiplicities} == {int}

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


    @pytest.mark.parametrize("signature", [(1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,)])
    def test_every_ordering_against_the_hermite_oracle(self, signature):
        """Every order of the points and of their multiplicities, where
        criterion 1 takes the sorted ones only, is within 1e-8 of a 60-digit
        Hermite table whose derivatives are mpmath's."""
        for entry in SMOOTH_FUNCTIONS:
            for mult in sorted(set(permutations(signature))):
                for points in permutations(entry.points[:len(mult)]):
                    value = dd_confluent(entry.bundle, MultiplicityPattern(points, mult))
                    oracle = hermite_oracle(entry.mp_f, points, mult)
                    assert value == pytest.approx(oracle, rel=1e-8), (entry.name, points, mult)

    def test_full_multiplicity_reads_d3_as_derivs_does(self):
        """(4) reads d3 on float64 under the bundle reads' floating-point
        rule: at kl's pole t = 0 it is -inf, not a ZeroDivisionError, and f
        there (a nan) is not read; at finite points it keeps the bits of
        d3(t)/6."""
        for name in ("kl", "hellinger", "jeffreys"):
            pattern = MultiplicityPattern((0.0,), (4,))
            assert dd_confluent(generator(name).bundle, pattern) == -math.inf
        for entry in SMOOTH_FUNCTIONS:
            for t in entry.points:
                value = dd_confluent(entry.bundle, MultiplicityPattern((t,), (4,)))
                assert value.hex() == (float(entry.bundle.d3(t)) / 6.0).hex()

    @pytest.mark.parametrize("points,mult", [
        ((0.1, 0.7, 1.3, 2.0), (1, 1, 1, 1)), ((0.4, 1.1, 1.9), (2, 1, 1)),
        ((0.4, 1.6), (2, 2)), ((0.4, 1.6), (3, 1))])
    def test_point_reads_go_through_derivs(self, points, mult):
        """phi, phi' and phi'' at the pattern points are the bundle's
        reads, on float64."""
        arguments = []

        def seen(g):
            return lambda x: arguments.append(type(x)) or g(x)

        bundle = FunctionBundle(domain_lo=-10, domain_hi=10, f=seen(lambda x: x**4),
                                d1=seen(lambda x: 4 * x**3), d2=seen(lambda x: 12 * x**2))
        pattern = MultiplicityPattern(points, mult)
        dd_confluent(bundle, pattern)
        assert arguments and set(arguments) == {np.float64}


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

    def test_sign_rule_is_relative_to_the_samples(self):
        """A d3 that is only rounding noise around 0 (cos^2 + sin^2 - 1,
        about 2e-16 of either sign) has no direction, while an identically
        zero d3 stays three_convex with witness 0."""
        noise = FunctionBundle(domain_lo=-10, domain_hi=10, f=lambda x: x,
                               d3=lambda x: np.cos(x) ** 2 + np.sin(x) ** 2 - 1.0)
        assert certify_3convex(noise, 0.0, 3.0, 201).verdict == "neither"
        zero = FunctionBundle(domain_lo=-10, domain_hi=10, f=lambda x: x, d3=np.zeros_like)
        cert = certify_3convex(zero, 0.0, 3.0, 201)
        assert (cert.verdict, cert.min_witness) == ("three_convex", 0.0)

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

    def test_scalar_only_callables_supported(self):
        scalar_exp = FunctionBundle(domain_lo=-10, domain_hi=10, f=math.exp,
                                    d1=math.exp, d2=math.exp, d3=math.exp)
        assert certify_3convex(scalar_exp, 0.0, 1.0, 11).verdict == "three_convex"
        check_bundle(scalar_exp, 0.0, 1.0)

    def test_quadruple_fallback_reads_through_derivs(self):
        arguments = []
        f_only = FunctionBundle(domain_lo=-10, domain_hi=10,
                                f=lambda x: arguments.append(type(x)) or x**3)
        certify_3convex(f_only, 0.1, 2.0, 31)
        assert arguments and set(arguments) == {np.float64}

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bundle", [CUBIC, poly_bundle([0.0, 1.0])],
                             ids=["cubic", "identity"])
    def test_overflowing_length_refused_before_sampling(self, bundle):
        message = re.escape("interval [-1e+308, 1e+308] is too wide: its length "
                            "overflows")
        with pytest.raises(ValueError, match=message):
            certify_3convex(bundle, -1e308, 1e308, 65)
        with pytest.raises(ValueError, match=message):
            check_bundle(bundle, -1e308, 1e308)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_length_refused_by_every_pass(self):
        """The length rule is the bundle's domain rule: the moment pass,
        Gamma, theorem_triple and an explicit-interval divergence pass
        refuse [-1e308, 1e308] (the divergence pass [0.5, inf], as its
        ratios must stay positive) before reading the bundle."""
        calls = []
        F = make_functional([0.5, 0.9], [0.5, 0.5])
        ms = moments(F, CUBIC, 0.0, 1.0)
        message = re.escape("interval [-1e+308, 1e+308] is too wide: its length "
                            "overflows")
        for bundle in (counted(CUBIC, calls, arrays=True),
                       counted(poly_bundle([0.0, 1.0]), calls, arrays=True)):
            for run in (lambda: moments(F, bundle, -1e308, 1e308),
                        lambda: gamma(elr_context(1, F, -1e308, 1e308), bundle),
                        lambda: gamma(elr_context(3, F, -1e308, 1e308), bundle),
                        lambda: theorem_triple("taylor", ms, bundle, -1e308, 1e308)):
                with pytest.raises(ValueError, match=f"^{message}$"):
                    run()
        kl = counted(generator("kl").bundle, calls, arrays=True)
        custom = GeneratorFunction(bundle=kl, name="custom")
        with pytest.raises(ValueError, match=re.escape(
                "interval [0.5, inf] is too wide: its length overflows")):
            divergence_pass([0.4, 0.6], [0.5, 0.5], custom, 0.5, math.inf)
        assert calls == []

    def test_indeterminate_when_no_samples_possible(self):
        f_only = FunctionBundle(domain_lo=-10, domain_hi=10, f=lambda x: x**3)
        cert = certify_3convex(f_only, 0.1, 2.0, 3)
        assert cert.verdict == "indeterminate"

    def test_grid_too_small_rejected(self):
        with pytest.raises(ValueError, match="grid_n"):
            certify_3convex(CUBIC, 0.0, 1.0, 2)

    @pytest.mark.parametrize("grid_n", [201.0, True, "201", np.float64(11), None])
    def test_grid_n_must_be_an_integer(self, grid_n):
        calls = []
        message = f"^grid_n must be an integer, got {re.escape(repr(grid_n))}$"
        with pytest.raises(ValueError, match=message):
            certify_3convex(counting_bundle(calls, arrays=True), 0.5, 2.0, grid_n)
        assert calls == []
        assert certify_3convex(CUBIC, 0.1, 2.0, np.int64(11)).grid_size == 11

    @pytest.mark.filterwarnings("error")
    def test_doubled_point_fallback_reads_f_and_d1_once(self):
        """Without d3 the certificate reads f and f' once at each of the 11
        subgrid points of 201 (a read per (2,1,1) sample made 495 of four
        values), and its verdict and witness are those of dd_confluent's
        samples, bit for bit."""
        rng = np.random.default_rng(35)
        pool = [generator(name).bundle for name in GENERATOR_NAMES if name != "renyi"]
        pool += [generator("renyi", a).bundle for a in (0.5, 1.5, 3.0)]
        for trial in range(14):
            base = pool[trial % len(pool)]
            bundle = replace(base.negated() if trial % 2 else base, d3=None)
            lo, hi = sorted(rng.uniform(0.1, 4.0, 2).tolist())
            calls = []
            cert = certify_3convex(counted(bundle, calls), lo, hi, 201)
            sub = np.linspace(lo, hi, 201)[::20].tolist()
            assert calls == [(order, t) for order in (0, 1) for t in sub]
            samples, locations = [], []
            for t in sub:
                for x, y in combinations([x for x in sub if x != t], 2):
                    pattern = MultiplicityPattern((t, x, y), (2, 1, 1))
                    samples.append(dd_confluent(bundle, pattern))
                    locations.append(t)
            assert len(samples) == 495
            assert cert == _verdict_from_samples(np.asarray(samples),
                                                 np.asarray(locations), 201)

    def test_interval_outside_domain_rejected(self):
        with pytest.raises(ValueError, match="domain"):
            certify_3convex(XLOGX, -0.5, 1.0, 11)

    @pytest.mark.filterwarnings("error")
    def test_interval_outside_the_domain_refused_before_any_read(self):
        """kl's t*log(t) and the counted bundle on [0, 3] are neither
        certified nor checked on [-1, 2]: nothing is read or sampled."""
        calls = []
        for bundle in (counted(generator("kl").bundle, calls, arrays=True),
                       counting_bundle(calls, arrays=True)):
            message = re.escape(f"interval [-1.0, 2.0] escapes the domain of "
                                f"{bundle.name!r}")
            with pytest.raises(ValueError, match=message):
                certify_3convex(bundle, -1.0, 2.0, 11)
            with pytest.raises(ValueError, match=message):
                check_bundle(bundle, -1.0, 2.0)
        assert calls == []

    @pytest.mark.filterwarnings("error")
    def test_degenerate_window_refused_before_any_sample(self):
        """A reversed or one-point window is refused by both, even inside
        the domain; the reversed window of a fuzzer spline on [0, 1] would
        otherwise be sampled at 1.05 and -0.05, outside it."""
        calls = []
        spline = random_three_convex_bundle(np.random.default_rng(3), 0.0, 1.0)
        for bundle in (counted(generator("kl").bundle, calls, arrays=True),
                       counting_bundle(calls, arrays=True),
                       counted(spline, calls, arrays=True)):
            for lo, hi in ((1.0, 0.0), (0.5, 0.5)):
                for run in (lambda: check_bundle(bundle, lo, hi),
                            lambda: certify_3convex(bundle, lo, hi, 11)):
                    with pytest.raises(ValueError) as err:
                        run()
                    assert str(err.value) == ("degenerate interval: m must lie "
                                              "strictly below M")
        assert calls == []


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
        assert b.deriv(1, 0.0) == 1.0
        assert b.deriv(1, 1.0) == 1.0
        with pytest.raises(ValueError, match="insufficient bundle"):
            b.deriv(1, 0.5)

    def test_deriv_applies_the_endpoint_rule(self):
        b = FunctionBundle(domain_lo=0.0, domain_hi=1.0, f=lambda x: x**3,
                           d1=lambda x: 3 * x**2, d2=lambda x: 6 * x,
                           d1_plus_at_lo=-1.0, d1_minus_at_hi=-2.0,
                           d2_plus_at_lo=-3.0, d2_minus_at_hi=-4.0)
        assert (b.deriv(1, 0.0), b.deriv(1, 1.0)) == (-1.0, -2.0)
        assert (b.deriv(2, 0.0), b.deriv(2, 1.0)) == (-3.0, -4.0)
        assert (b.deriv(1, 0.5), b.deriv(2, 0.5)) == (0.75, 3.0)
        for x in (0.0, 0.5, 1.0):
            assert b.deriv(0, x) == x**3
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

    # x^3 on windows far from 0 at one end: the one-sided step at each end
    # is sized from that end, 1e-6 * (1 + |x|) + 1e-9
    FAR_WINDOWS = [(-1e5, 0.0), (0.0, 1e6)]

    @staticmethod
    def far_cube(lo, hi):
        return bundle_from_callables(lambda x: x**3, lambda x: 3 * x**2,
                                     lambda x: 6 * x, lambda x: 6 + 0 * x,
                                     lo=lo, hi=hi, name="cube")

    @pytest.mark.parametrize("lo,hi", FAR_WINDOWS)
    def test_check_bundle_accepts_far_windows(self, lo, hi):
        check_bundle(self.far_cube(lo, hi))

    @pytest.mark.parametrize("lo,hi", FAR_WINDOWS)
    @pytest.mark.parametrize("key,label", [
        ("d1_plus_at_lo", "d1 at left endpoint"),
        ("d1_minus_at_hi", "d1 at right endpoint"),
        ("d2_plus_at_lo", "d2 at left endpoint"),
        ("d2_minus_at_hi", "d2 at right endpoint")])
    def test_check_bundle_refuses_stored_value_off_1e4(self, lo, hi, key, label):
        cube = self.far_cube(lo, hi)
        stored = getattr(cube, key)
        off = replace(cube, **{key: stored + 1e-4 * (1.0 + abs(stored))})
        with pytest.raises(ValueError, match=f"stored {label} .* disagrees"):
            check_bundle(off)

    def test_memoized_scalars_match_callables(self):
        b = resolve_phi({"name": "exp"})
        assert b.deriv(0, 0.3) == b.deriv(0, 0.3) == pytest.approx(math.exp(0.3))

    def test_replaced_bundle_reads_its_own_f(self):
        cube = poly_bundle([0.0, 0.0, 0.0, 1.0])
        assert cube.deriv(0, 2.0) == 8.0
        shifted = replace(cube, f=lambda x: x ** 3 + 100)
        assert shifted.deriv(0, 2.0) == 108.0 and cube.deriv(0, 2.0) == 8.0
        assert cube.negated().deriv(0, 2.0) == -8.0

    def test_bundles_compare_and_hash_by_identity(self):
        a, b = poly_bundle([0, 1]), poly_bundle([0, 1])
        assert a == a and a != b and replace(a) != a
        assert {a: "a", b: "b"}[a] == "a" and hash(a) == hash(a)


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
