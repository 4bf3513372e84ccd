import hashlib
import json
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
    divergence_context,
    elr_context,
    elr_difference,
    gamma,
    generator,
    jensen_gap_bounds,
    make_functional,
)
from elrbounds.cli import RunConfig, dump_report, main, run
from elrbounds.divergences import divergence_pass
from elrbounds.elr_bounds import BoundReport, theorem_triple
from elrbounds.functionals import make_functionals, moments, moments_batch
from elrbounds.fuzzing import BATCH, bracket_fuzz
from elrbounds.registry import resolve_phi

from counting import counted, counting_bundle

CUBIC = resolve_phi({"name": "cubic"})
QUARTIC = resolve_phi({"name": "quartic"})
SQUARE = resolve_phi({"poly": [0.0, 0.0, 1.0]})

# d3 = 24x changes sign on [-1, 1], so no direction can be certified there
UNDIRECTED = resolve_phi({"poly": [0, 0, 0, 0, 1]})
UNDIRECTED_MESSAGE = ("'poly(0.0, 0.0, 0.0, 0.0, 1.0)' is not 3-convex on [-1.0, 1.0] "
                      "in either direction (verdict 'neither')")

POINT_MASS = make_functional([0.5], [1.0])
ENDPOINTS = make_functional([0.0, 1.0], [0.5, 0.5])


class TestElrDifference:
    def test_endpoint_masses_are_tight(self):
        assert elr_difference(ENDPOINTS, CUBIC, 0.0, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_point_mass_cube(self):
        assert elr_difference(POINT_MASS, CUBIC, 0.0, 1.0) == pytest.approx(0.375, abs=1e-15)

    def test_point_mass_square(self):
        assert elr_difference(POINT_MASS, SQUARE, 0.0, 1.0) == pytest.approx(0.25, abs=1e-15)

    def test_xlogx_reaches_its_end_at_zero(self, capsys):
        """phi(0) of xlogx is its limit 0, so D on [0, 1] is finite; the CLI's
        bounds there is still refused, for its third derivative at 0."""
        F = make_functional([0.2, 0.7], [0.5, 0.5])
        xlogx = resolve_phi({"name": "xlogx"})
        assert elr_difference(F, xlogx, 0.0, 1.0) == 0.28578002162196636
        payload = {"functional": {"nodes": [0.2, 0.7], "weights": [0.5, 0.5]},
                   "interval": [0, 1], "phi": {"name": "xlogx"}}
        assert main(["bounds", "--input", json.dumps(payload)]) == 1
        assert capsys.readouterr().err == "error: third derivative not finite on the grid\n"

    def test_replaced_bundle_reads_its_own_ends(self):
        """A bundle made by replace does not read its parent's memoized
        endpoint values."""
        F = make_functional([0.5, 1.5], [0.5, 0.5])
        assert elr_difference(F, CUBIC, 0.0, 2.0) == 2.25
        assert elr_difference(F, replace(CUBIC, f=lambda x: x**3 + 100), 0.0, 2.0) == 2.25

    def test_reads_f_alone(self):
        """D needs f at the nodes and at the ends: no phi' at the nodes and
        no derivative at an end node, so a phi' that fails is never met."""
        calls = []
        F = make_functional([0.0, 1.5, 3.0], [0.25, 0.5, 0.25])
        assert elr_difference(F, counting_bundle(calls, arrays=True), 0.0, 3.0) == 0.73828125
        assert calls == [(0, (3,)), (0, 0.0), (0, 3.0)]
        failing = counting_bundle([], d1=lambda x: 1.0 / 0.0)
        assert elr_difference(F, failing, 0.0, 3.0) == 0.73828125


class TestSecant:
    def test_worked_instance(self):
        r = bounds("secant", POINT_MASS, CUBIC, 0.0, 1.0)
        assert (r.lower, r.mid, r.upper) == pytest.approx((0.25, 0.375, 0.5), abs=1e-12)
        assert r.orientation == "direct"
        assert r.violation() == 0.0

    def test_endpoint_masses_collapse(self):
        r = bounds("secant", ENDPOINTS, CUBIC, 0.0, 1.0)
        assert (r.lower, r.mid, r.upper) == pytest.approx((0.0, 0.0, 0.0), abs=1e-15)

    def test_negated_function_reverses_and_negates(self):
        direct = bounds("secant", POINT_MASS, CUBIC, 0.0, 1.0)
        flipped = bounds("secant", POINT_MASS, CUBIC.negated(), 0.0, 1.0)
        assert flipped.orientation == "reversed"
        assert flipped.lower == -direct.lower
        assert flipped.mid == -direct.mid
        assert flipped.upper == -direct.upper
        lo, hi = flipped.bracket()
        assert lo <= flipped.mid <= hi

    def test_unknown_direction_rejected(self):
        with pytest.raises(ValueError, match=f"^{re.escape(UNDIRECTED_MESSAGE)}$"):
            bounds("secant", POINT_MASS, UNDIRECTED, -1.0, 1.0)

    def test_certificate_accepted_as_direction(self):
        r = bounds("secant", POINT_MASS, CUBIC, 0.0, 1.0)
        assert r.orientation == "direct"


class TestDerivative:
    def test_worked_instance(self):
        r = bounds("derivative", POINT_MASS, CUBIC, 0.0, 1.0)
        assert (r.lower, r.mid, r.upper) == pytest.approx((0.3125, 0.375, 0.4375), abs=1e-12)

    def test_endpoint_masses_zero_mid(self):
        # the derivative-moment terms do not vanish for endpoint masses:
        # A[(f-m)phi'(f)] = 1.5 here, so lower = 0.5*1 - 0.75 = -0.25 and
        # upper = 0 - 0.5*(1 - 1.5) = 0.25 by direct evaluation
        r = bounds("derivative", ENDPOINTS, CUBIC, 0.0, 1.0)
        assert (r.lower, r.mid, r.upper) == pytest.approx((-0.25, 0.0, 0.25), abs=1e-15)

    def test_quadratic_lower_bound_is_tight(self):
        r = bounds("derivative", POINT_MASS, SQUARE, 0.0, 1.0)
        assert r.lower == pytest.approx(0.25, abs=1e-14)
        assert r.mid == pytest.approx(0.25, abs=1e-14)
        assert r.violation() <= 1e-15

    def test_missing_first_derivative_rejected(self):
        from elrbounds import FunctionBundle
        bare = FunctionBundle(domain_lo=-5, domain_hi=5, f=lambda x: x**3,
                              d1_plus_at_lo=75.0, d1_minus_at_hi=75.0)
        with pytest.raises(ValueError, match="insufficient bundle"):
            bounds("derivative", POINT_MASS, bare, 0.0, 1.0)


class TestTaylor:
    def test_worked_instance(self):
        r = bounds("taylor", POINT_MASS, CUBIC, 0.0, 1.0)
        assert (r.lower, r.mid, r.upper) == pytest.approx((0.25, 0.375, 0.5), abs=1e-12)

    def test_endpoint_masses_zero_mid(self):
        # direct evaluation: lower = 0.5*(3-1) - 3*0.5 = -0.5 and
        # upper = 0.5*(1-0) - 0 = 0.5; only the mid collapses
        r = bounds("taylor", ENDPOINTS, CUBIC, 0.0, 1.0)
        assert (r.lower, r.mid, r.upper) == pytest.approx((-0.5, 0.0, 0.5), abs=1e-15)

    def test_quartic_mid(self):
        r = bounds("taylor", POINT_MASS, QUARTIC, 0.0, 1.0)
        assert r.mid == pytest.approx(0.4375, abs=1e-14)
        assert r.lower <= r.mid <= r.upper


class TestJensenGap:
    def test_point_mass_gap_vanishes(self):
        r = jensen_gap_bounds(POINT_MASS, CUBIC, 0.0, 1.0, "derivative")
        assert r.mid == pytest.approx(0.0, abs=1e-15)
        assert (r.lower, r.upper) == pytest.approx((-0.125, 0.125), abs=1e-12)

    def test_variance_identity(self):
        r = jensen_gap_bounds(ENDPOINTS, SQUARE, 0.0, 1.0, "derivative")
        assert r.mid == pytest.approx(0.25, abs=1e-15)

    def test_any_point_mass_has_zero_gap(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            x = float(rng.uniform(0.05, 0.95))
            F = make_functional([x], [1.0])
            for variant in ("derivative", "taylor"):
                r = jensen_gap_bounds(F, CUBIC, 0.0, 1.0, variant)
                assert r.mid == pytest.approx(0.0, abs=1e-14)

    def test_taylor_variant_brackets_on_worked_instance(self):
        r = jensen_gap_bounds(POINT_MASS, CUBIC, 0.0, 1.0, "taylor")
        assert r.lower <= r.mid <= r.upper

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError, match="variant"):
            jensen_gap_bounds(POINT_MASS, CUBIC, 0.0, 1.0, "secant")

    def test_variant_checked_first(self):
        # before the direction, as theorem_triple checks its theorem first
        with pytest.raises(ValueError, match="unknown Jensen-gap variant 'secant'"):
            jensen_gap_bounds(POINT_MASS, CUBIC, 0.0, 1.0, "secant")

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
        jensen_gap_bounds(F, bundle, 0.0, 1.0, variant)
        mean = moments(F, bundle, 0.0, 1.0).mean
        apart = [[(0, mean)], [(1, mean)]][:1 + (variant == "derivative")]
        assert reads == [[(order, x) for order in range(top + 1)
                          for x in (0.0, 1.0)]] + apart


class TestCertifiedOrientation:
    """bounds and jensen_gap_bounds orient each pair from the bundle's own
    certificate on [m, M], the one the CLI's bounds command prints, and
    refuse a bundle that has no direction there."""

    XLOGX = resolve_phi({"name": "xlogx"})
    F = make_functional([0.7, 1.1, 1.8], [0.3, 0.4, 0.3])

    def test_undirected_bundle_refused_by_every_pass(self, capsys):
        match = f"^{re.escape(UNDIRECTED_MESSAGE)}$"
        for theorem in THEOREMS:
            with pytest.raises(ValueError, match=match):
                bounds(theorem, POINT_MASS, UNDIRECTED, -1.0, 1.0)
        for variant in ("derivative", "taylor"):
            with pytest.raises(ValueError, match=match):
                jensen_gap_bounds(POINT_MASS, UNDIRECTED, -1.0, 1.0, variant)
        payload = {"functional": {"nodes": [0.5], "weights": [1.0]},
                   "interval": [-1, 1], "phi": {"poly": [0, 0, 0, 0, 1]}}
        assert main(["bounds", "--input", json.dumps(payload)]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {UNDIRECTED_MESSAGE}\n")

    def test_name_checked_before_the_certificate(self):
        with pytest.raises(ValueError, match="^unknown theorem 'simpson'$"):
            bounds("simpson", POINT_MASS, UNDIRECTED, -1.0, 1.0)
        with pytest.raises(ValueError, match="^unknown Jensen-gap variant 'secant'$"):
            jensen_gap_bounds(POINT_MASS, UNDIRECTED, -1.0, 1.0, "secant")

    def test_three_concave_bundle_is_reversed(self):
        """x*log(x) is 3-concave on [0.5, 2]: a "three_convex" label once
        gave its taylor pair (0.225, 0.166, -0.078), a bracket missing its
        mid by 0.244; its certificate reverses the chain."""
        assert certify_3convex(self.XLOGX, 0.5, 2.0, 201).verdict == "neg_three_convex"
        r = bounds("taylor", self.F, self.XLOGX, 0.5, 2.0)
        assert r.orientation == "reversed"
        assert (r.lower, r.mid, r.upper) == (0.22495052249762965, 0.16610612743005088,
                                             -0.07760918776970072)
        assert r.violation() == 0.0
        for variant in ("derivative", "taylor"):
            r = jensen_gap_bounds(self.F, self.XLOGX, 0.5, 2.0, variant)
            assert r.orientation == "reversed"
            assert r.violation() == 0.0, variant

    def test_tiny_three_concave_cubic_is_reversed(self, capsys):
        """-c*x^3/6 with c = 1e-12 is 3-concave however small c is: an
        absolute sign floor once certified it three_convex, and each pair
        then excluded its own mid (secant: lower -2.08e-14, mid -3.02e-14,
        upper -4.17e-14)."""
        payload = {"phi": {"poly": [0, 0, 0, -1.6666666666666667e-13]},
                   "interval": [0, 1],
                   "functional": {"nodes": [0.2, 0.9], "weights": [0.5, 0.5]}}
        bundle = resolve_phi(payload["phi"])
        F = make_functional([0.2, 0.9], [0.5, 0.5])
        for theorem in THEOREMS:
            r = bounds(theorem, F, bundle, 0.0, 1.0)
            assert r.orientation == "reversed"
            assert r.violation() == 0.0, theorem
        assert main(["bounds", "--input", json.dumps(payload)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["convexity"]["verdict"] == "neg_three_convex"
        for r in report["reports"]:
            assert r["orientation"] == "reversed"
            assert r["upper"] <= r["mid"] <= r["lower"], r["theorem"]

    def test_jensen_gap_brackets_certified_draws(self):
        """Both variants bracket the gap for 3-convex and 3-concave bundles
        on random intervals under functionals of 1-7 nodes."""
        positive = [generator("kl").bundle, generator("hellinger").bundle,
                    generator("renyi", 1.5).bundle]
        anywhere = [resolve_phi({"poly": [0, -1, 0, 5]}), CUBIC, resolve_phi({"name": "exp"})]
        rng = np.random.default_rng(26)
        for _ in range(1500):
            on_positive = bool(rng.integers(2))
            pool = positive if on_positive else anywhere
            bundle = pool[int(rng.integers(len(pool)))]
            if rng.integers(2):
                bundle = bundle.negated()
            m = float(rng.uniform(0.05, 2.0) if on_positive else rng.uniform(-3.0, 2.0))
            M = m + float(rng.uniform(0.05, 4.0))
            k = int(rng.integers(1, 8))
            weights = rng.uniform(0.05, 1.0, k)
            F = make_functional(rng.uniform(m, M, k), weights / weights.sum())
            for variant in ("derivative", "taylor"):
                r = jensen_gap_bounds(F, bundle, m, M, variant)
                assert r.violation() == 0.0, (variant, bundle.name, m, M, F)


class TestReversal:
    def test_negation_is_exact_for_every_operation(self):
        rng = np.random.default_rng(19)
        for _ in range(25):
            k = int(rng.integers(1, 10))
            F = make_functional(rng.uniform(0.0, 1.0, k), np.ones(k) / k)
            neg = CUBIC.negated()
            for name in THEOREMS:
                a = bounds(name, F, CUBIC, 0.0, 1.0)
                b = bounds(name, F, neg, 0.0, 1.0)
                assert (b.lower, b.mid, b.upper) == (-a.lower, -a.mid, -a.upper)
                assert b.orientation == "reversed"
                assert b.violation() <= 1e-12
                assert bounds(name, F, CUBIC, 0.0, 1.0) == a
                assert bounds(name, F, neg, 0.0, 1.0) == b
            for variant in ("derivative", "taylor"):
                a = jensen_gap_bounds(F, CUBIC, 0.0, 1.0, variant)
                b = jensen_gap_bounds(F, neg, 0.0, 1.0, variant)
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
                r = bounds(theorem, F, CUBIC, m, M)
                assert r.mid == pytest.approx(scalar, abs=1e-13)


class TestBracketFuzzSmall:
    def test_no_violations_on_small_run(self):
        report = bracket_fuzz(seed=123, instances=2000)
        assert report.clean, report.violations[:3]
        assert report.max_violation == 0.0

    def test_degenerate_interval_rejected(self):
        with pytest.raises(ValueError, match="degenerate interval"):
            bounds("secant", POINT_MASS, CUBIC, 0.5, 0.5)


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
            batch = make_functionals(np.array(nodes + [1.5, 1.0]), np.full(4, 0.5), [2, 2])
            for bundle in bundles:
                passes = [
                    *(partial(bounds, theorem, F, bundle, -1.0, 2.0)
                      for theorem in THEOREMS),
                    *(partial(jensen_gap_bounds, F, bundle, -1.0, 2.0, variant)
                      for variant in ("derivative", "taylor")),
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
        batch = make_functionals([5.0, 4.0], [1.0, 1.0], [1, 1])
        ms = moments_batch(batch, huge, 0.0, 10.0)
        with pytest.raises(RuntimeWarning, match="overflow"):
            [theorem_triple(theorem, ms, huge, 0.0, 10.0) for theorem in THEOREMS]


class TestOnePassRead:
    """A bound pass reads phi, phi' and phi'' at m and M in one ``derivs``
    call for all its theorems and its moment pass, which takes phi' at the
    nodes on an end from it, and refuses what it refuses in the order of a
    read per theorem."""

    P, Q = [0.1, 0.25, 0.3, 0.35], [0.3, 0.2, 0.4, 0.1]  # ratios ~1/3, 1.25, 0.75, 3.5
    # (command, payload, the ends (0 for m, 1 for M) that hold a node, whose
    # phi' the moment pass takes from the one read)
    CASES = [
        ("divergence", {"distributions": {"p": P, "q": Q}, "phi": {"name": "kl"}},
         (0, 1)),
        ("divergence", {"distributions": {"p": P, "q": Q}, "interval": [0.25, 4.0],
                        "phi": {"name": "renyi", "params": [0.5]}}, ()),
        ("bounds", {"functional": {"nodes": [0.3, 0.7, 1.6], "weights": [0.2, 0.5, 0.3]},
                    "interval": [0.3, 2.0], "phi": {"name": "xlogx"}}, (0,)),
        ("bounds", {"functional": {"nodes": [-0.4, 0.5], "weights": [0.6, 0.4]},
                    "interval": [-1, 1], "phi": {"name": "cubic"}}, ()),
    ]
    # sha256 of the four reports as a read per theorem writes them
    REPORTS_SHA256 = "fd3f8ee0b9fe415f1fe0e03ef4542cf8c1ed032ed96ba1bde3442dbac6ab04fc"

    def test_every_theorem_from_one_end_read(self, monkeypatch):
        reads = []
        derivs = FunctionBundle.derivs
        monkeypatch.setattr(FunctionBundle, "derivs", lambda self, r: (
            reads.append(list(r)) or derivs(self, r)))
        digest = hashlib.sha256()
        for command, payload, held in self.CASES:
            reads.clear()
            status, report = run(RunConfig(command=command, payload=payload))
            assert status == 0
            assert len(report["reports"]) == (2 if command == "divergence" else 3)
            interval = report["interval"]
            nodes = payload.get("functional", {}).get("nodes") or np.divide(
                *payload["distributions"].values())
            assert [end for end in (0, 1) if interval[end] in nodes] == list(held)
            assert reads == [[(order, x) for order in (0, 1, 2) for x in interval]], payload
            digest.update(dump_report(report).encode())
        assert digest.hexdigest() == self.REPORTS_SHA256

    KL = generator("kl")

    def test_missing_d2_refused_at_taylor(self):
        """Both theorems need phi'' only for taylor: the derivative pair
        alone is reported, and the pair of both refuses at taylor's read."""
        gen = replace(self.KL, bundle=replace(self.KL.bundle, d2=None))
        _, (report,) = divergence_pass(self.P, self.Q, gen, theorems=("derivative",))
        assert report == divergence_pass(self.P, self.Q, self.KL,
                                         theorems=("derivative",))[1][0]
        with pytest.raises(ValueError) as err:
            divergence_pass(self.P, self.Q, gen)
        assert str(err.value) == ("insufficient bundle: derivative of order 2 of "
                                  "'t*log(t)' unavailable at x=0.33333333333333337")

    def test_derivative_refusal_comes_before_taylor_read(self):
        """d1 refused at the nodes (but read at the ends) and no d2: the
        derivative pair's missing moment is refused first, as a read per
        theorem refuses it, not taylor's missing phi''."""
        d1 = self.KL.bundle.d1

        def ends_only(t):
            if np.ndim(t) or float(t) not in (0.25, 3.5):
                raise ValueError("phi' off the ends")
            return d1(t)

        gen = replace(self.KL, bundle=replace(self.KL.bundle, d1=ends_only, d2=None))
        with pytest.raises(ValueError) as err:
            divergence_pass(self.P, self.Q, gen, 0.25, 3.5)
        assert str(err.value) == ("insufficient bundle: first derivative moment of "
                                  "'t*log(t)' unavailable")


class TestOneReadPerPass:
    """Every bound pass reads phi, phi' (and phi'') at m and M in one
    ``FunctionBundle.derivs`` call, which also gives its moment pass phi'
    at the nodes on an end; a divergence pass runs the bundle's domain
    rule once."""

    P, Q = TestOnePassRead.P, TestOnePassRead.Q
    # nodes on both ends of [0.5, 2.5], and one inside
    F = make_functional([0.5, 1.0, 2.5], [0.25, 0.5, 0.25])

    @pytest.fixture
    def entered(self, monkeypatch):
        calls = []
        derivs = FunctionBundle.derivs
        monkeypatch.setattr(FunctionBundle, "derivs",
                            lambda *args: calls.append(1) or derivs(*args))
        return calls

    def test_divergence_pass(self, entered):
        for gen in (generator("kl"), generator("renyi", 3.0), generator("harmonic")):
            for interval in ((), (0.25, 4.0)):  # nodes on both ends, then none
                for theorems in (("derivative",), ("taylor",), ("derivative", "taylor")):
                    entered.clear()
                    divergence_pass(self.P, self.Q, gen, *interval, theorems=theorems)
                    assert len(entered) == 1, (gen.name, interval, theorems)

    def test_divergence_pass_checks_its_interval_once(self, monkeypatch):
        checked = []
        check = FunctionBundle._check_interval
        monkeypatch.setattr(FunctionBundle, "_check_interval",
                            lambda *args: checked.append(args[1:]) or check(*args))
        for interval in ((), (0.25, 4.0)):
            checked.clear()
            _, reports = divergence_pass(self.P, self.Q, generator("kl"), *interval)
            assert checked == [(reports[0].details["m"], reports[0].details["M"])]

    def test_bounds(self, entered):
        for theorem in THEOREMS:
            entered.clear()
            bounds(theorem, self.F, counting_bundle([]), 0.5, 2.5)
            assert len(entered) == 1, theorem

    def test_cli_bounds(self, entered):
        payload = {"functional": {"nodes": [-1.0, 0.5, 2.0], "weights": [0.3, 0.4, 0.3]},
                   "interval": [-1, 2], "phi": {"name": "cubic"}}
        for theorem in (None, *THEOREMS):
            entered.clear()
            status, _ = run(RunConfig(command="bounds", payload=dict(
                payload, **({} if theorem is None else {"theorem": theorem}))))
            assert status == 0 and len(entered) == 1, theorem

    def test_gamma(self, entered):
        contexts = [elr_context(i, self.F, 0.5, 2.5) for i in range(1, 7)]
        contexts += [divergence_context(i, self.P, self.Q) for i in range(7, 11)]
        for ctx in contexts:
            entered.clear()
            gamma(ctx, QUARTIC)
            assert len(entered) == 1, ctx.index

    def test_bracket_fuzz_batch(self, entered):
        bracket_fuzz(seed=3, instances=5 * BATCH)
        assert len(entered) == 5


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

    @pytest.mark.parametrize("orientation", ["Direct", "", "neg_three_convex", None])
    def test_unknown_orientation_refused(self, orientation):
        """Every orientation but direct is read as reversed, so a report
        with any other one is refused where it is built."""
        with pytest.raises(ValueError, match=f"^unknown orientation {re.escape(repr(orientation))}$"):
            BoundReport(lower=1.0, upper=3.0, mid=2.0, orientation=orientation,
                        theorem_tag="t")


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
                bounds(theorem, self.NODE, self.LINEAR, -half, half)

    @pytest.mark.parametrize("half", [1e200, 8e307])
    @pytest.mark.filterwarnings("error")
    def test_jensen_gap_and_elr_difference_name_the_interval(self, half):
        message = re.escape(f"interval [{-half}, {half}] is too wide: the moments "
                            "of the functional on it overflow")
        with pytest.raises(ValueError, match=message):
            jensen_gap_bounds(self.NODE, self.LINEAR, -half, half, "taylor")
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
            bounds("secant", self.NODE, CUBIC, 0.0, 1.0, precomputed=ms)

    @pytest.mark.filterwarnings("error")
    def test_wide_but_finite_interval_is_reported(self):
        for theorem in THEOREMS:
            r = bounds(theorem, self.NODE, self.LINEAR, -1e150, 1e150)
            assert all(map(math.isfinite, (r.lower, r.mid, r.upper)))


class TestNoStepReadsAgain:
    """A pass whose phi'' is refused reads its ends in its one read alone:
    the read of phi, phi' and phi'', phi at the ends to refuse a phi that
    is not finite first, and phi and phi' again for the pairs before
    ``taylor`` and the moment pass; the refusal comes at ``taylor``."""

    F = make_functional([0.5, 1.0, 2.5], [0.25, 0.5, 0.25])  # nodes on both ends

    @staticmethod
    def reads(m, M):
        return [[(order, x) for order in range(top + 1) for x in (m, M)]
                for top in (2, 0, 1)]

    def test_bound_passes(self, monkeypatch):
        reads = []
        derivs = FunctionBundle.derivs
        monkeypatch.setattr(FunctionBundle, "derivs", lambda self, r: (
            reads.append(list(r)) or derivs(self, r)))
        kl = generator("kl")
        gen = replace(kl, bundle=replace(kl.bundle, d2=None))
        no_d2 = counting_bundle([], d2=None)
        passes = [
            (lambda: divergence_pass(TestOnePassRead.P, TestOnePassRead.Q, gen, 0.25, 4.0),
             (0.25, 4.0)),
            (lambda: bounds("taylor", self.F, no_d2, 0.5, 2.5), (0.5, 2.5)),
            (lambda: jensen_gap_bounds(self.F, no_d2, 0.5, 2.5, "taylor"), (0.5, 2.5)),
            (lambda: gamma(elr_context(5, self.F, 0.5, 2.5), no_d2), (0.5, 2.5)),
        ]
        for call, interval in passes:
            reads.clear()
            with pytest.raises(ValueError, match="derivative of order 2"):
                call()
            assert reads == self.reads(*interval)
