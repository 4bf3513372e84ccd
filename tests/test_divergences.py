import gc
import math
import re
import weakref
from dataclasses import replace

import numpy as np
import pytest

from elrbounds import (
    FunctionBundle,
    MultiplicityPattern,
    apply,
    dd_confluent,
    divergence_bounds,
    f_divergence,
    generator,
    make_functional,
    zm_distribution,
)
from elrbounds.divergences import (
    DIVERGENCE_THEOREMS,
    F_3CONVEX,
    GENERATOR_CACHE_SIZE,
    NEG_F_3CONVEX,
    GeneratorFunction,
    _named,
    divergence_pass,
    ratio_functional,
)
from elrbounds.elr_bounds import CERTIFY_POINTS
from elrbounds.functionals import make_functionals
from elrbounds.registry import resolve_generator, resolve_phi

from counting import counted, counting_bundle


class TestGenerators:
    def test_kl_third_derivative(self):
        assert float(generator("kl").bundle.d3(1.0)) == pytest.approx(-1.0, abs=1e-15)

    def test_kl_at_zero_is_its_limit(self):
        """0*log(0) is 0, the generator's value_at_zero, with no warning;
        for t > 0 phi is t*log(t) bit for bit, and below 0 still a nan."""
        gen = generator("kl")
        assert gen.bundle.deriv(0, 0.0) == 0.0 == gen.value_at_zero
        t = np.linspace(0.0, 5.0, 10_001)
        assert np.array_equal(gen.bundle.f(t)[1:], t[1:] * np.log(t[1:]))
        assert gen.bundle.f(t)[0] == 0.0
        with np.errstate(invalid="ignore"):
            assert math.isnan(gen.bundle.f(np.float64(-1.0)))
        # f'(0) is -inf, which the table carries to -inf, not a nan
        assert dd_confluent(gen.bundle, MultiplicityPattern((0.0, 1.0), (2, 2))) == -math.inf

    def test_harmonic_third_derivative(self):
        assert float(generator("harmonic").bundle.d3(1.0)) == pytest.approx(0.75, abs=1e-15)

    def test_hellinger_third_derivative_negative(self):
        assert float(generator("hellinger").bundle.d3(1.0)) == pytest.approx(-0.375, abs=1e-15)

    def test_jeffreys_third_derivative(self):
        assert float(generator("jeffreys").bundle.d3(1.0)) == pytest.approx(-3.0, abs=1e-15)

    @pytest.mark.parametrize("alpha,expected", [
        (3.0, F_3CONVEX), (2.0, F_3CONVEX), (1.0, F_3CONVEX), (0.0, F_3CONVEX),
        (0.5, F_3CONVEX), (2.5, F_3CONVEX),
        (1.5, NEG_F_3CONVEX), (-1.0, NEG_F_3CONVEX),
    ])
    def test_renyi_direction_regions(self, alpha, expected):
        assert generator("renyi", alpha=alpha).direction == expected

    def test_renyi_requires_alpha(self):
        with pytest.raises(ValueError, match="alpha"):
            generator("renyi")

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown generator"):
            generator("chi2")

    def test_directions_match_certification(self):
        from elrbounds import certify_3convex
        expected = {"kl": "neg_three_convex", "hellinger": "neg_three_convex",
                    "harmonic": "three_convex", "jeffreys": "neg_three_convex"}
        for name, verdict in expected.items():
            cert = certify_3convex(generator(name).bundle, 0.3, 3.0, 101)
            assert cert.verdict == verdict, name

    def test_derivative_data_consistent(self):
        from elrbounds import check_bundle
        for name in ("kl", "hellinger", "harmonic", "jeffreys"):
            check_bundle(generator(name).bundle, 0.2, 3.0)
        check_bundle(generator("renyi", alpha=2.7).bundle, 0.2, 3.0)


class TestInterning:
    """generator() builds each named generator once and then returns the
    same frozen object; renyi's alpha is keyed by its float value."""

    FIXED = ("kl", "hellinger", "harmonic", "jeffreys")

    @pytest.mark.parametrize("name", FIXED)
    def test_a_fixed_name_is_one_object(self, name):
        gen = generator(name)
        assert generator(name) is gen
        assert generator(np.array(name)) is gen  # an unhashable spelling
        assert resolve_generator({"name": name}) is gen
        assert resolve_phi({"name": name}) is gen.bundle

    def test_renyi_alpha_is_keyed_by_its_float(self):
        gen = generator("renyi", 3)
        assert generator("renyi", alpha=np.float64(3.0)) is gen
        assert generator("renyi", 3.0) is gen
        assert generator("renyi", np.array(3.0)) is gen  # 0-d, unhashable
        assert resolve_generator({"name": "renyi", "params": [3]}) is gen
        assert resolve_phi({"name": "renyi", "params": [3]}) is gen.bundle
        assert generator("renyi", 3.5) is not gen

    def test_signed_zero_alphas_keep_their_own_generators(self):
        """-0.0 == 0.0, but each prints its sign in the bundle's name and
        in the params of every report."""
        for first, second in ((-0.0, 0.0), (0.0, -0.0)):
            a, b = generator("renyi", first), generator("renyi", second)
            assert a is not b
            assert (str(a.params[0]), a.bundle.name) == (str(first), f"t^{first}")
            assert (str(b.params[0]), b.bundle.name) == (str(second), f"t^{second}")

    @pytest.mark.parametrize("name,alpha,error,message", [
        ("kullback", None, ValueError, "unknown generator 'kullback'"),
        (["kl"], None, ValueError, "unknown generator ['kl']"),
        ("renyi", None, ValueError, "renyi generator requires alpha"),
        ("renyi", 1e200, ValueError, "renyi alpha 1e+200 overflows its third derivative"),
        ("renyi", np.float64(math.nan), ValueError,
         "renyi alpha np.float64(nan) overflows its third derivative"),
        ("renyi", [3.0], ValueError, "renyi alpha must be a number, got [3.0]"),
        ("renyi", True, ValueError, "renyi alpha must be a number, got True"),
        ("renyi", "2", ValueError, "renyi alpha must be a number, got '2'"),
        ("renyi", np.array(True), ValueError,
         "renyi alpha must be a number, got array(True)"),
        *[(name, 2.5, ValueError, f"{name} generator takes no alpha") for name in FIXED],
    ])
    def test_a_refused_input_is_refused_on_every_call(self, name, alpha, error, message):
        misses = _named.cache_info().misses
        for _ in range(3):
            with pytest.raises(error) as err:
                generator(name, alpha=alpha)
            assert message is None or str(err.value) == message
        assert _named.cache_info().misses == misses

    @pytest.mark.parametrize("name", FIXED)
    def test_copies_are_not_interned(self, name):
        """A replaced or hand-built generator has no proved direction and
        is never what generator() returns."""
        named = generator(name)
        copies = (replace(named), replace(named, name="x"),
                  GeneratorFunction(bundle=named.bundle, name=name))
        for copy in copies:
            assert copy.direction is None
            assert generator(name) is named is not copy
        assert named.direction in (F_3CONVEX, NEG_F_3CONVEX)

    def test_an_alpha_sweep_keeps_at_most_the_bound_alive(self):
        alphas = 3.0 + np.arange(3 * GENERATOR_CACHE_SIZE) / 1024.0
        alive = [weakref.ref(generator("renyi", a)) for a in alphas]
        gc.collect()
        assert sum(ref() is not None for ref in alive) <= GENERATOR_CACHE_SIZE
        assert alive[-1]() is generator("renyi", alphas[-1])


class TestFDivergence:
    def test_identical_distributions(self):
        p = [0.2, 0.3, 0.5]
        assert f_divergence(p, p, generator("kl")) == pytest.approx(0.0, abs=1e-15)
        assert f_divergence(p, p, generator("hellinger")) == pytest.approx(0.0, abs=1e-15)
        assert f_divergence(p, p, generator("jeffreys")) == pytest.approx(0.0, abs=1e-15)
        assert f_divergence(p, p, generator("harmonic")) == pytest.approx(1.0, abs=1e-14)
        assert f_divergence(p, p, generator("renyi", alpha=3)) == pytest.approx(1.0, abs=1e-14)

    def test_kl_worked_value(self):
        expected = (2 / 3) * math.log(4 / 3) + (1 / 3) * math.log(2 / 3)
        value = f_divergence([2 / 3, 1 / 3], [0.5, 0.5], generator("kl"))
        assert value == pytest.approx(expected, rel=1e-14)

    def test_hellinger_closed_form(self):
        rng = np.random.default_rng(4)
        gen = generator("hellinger")
        for _ in range(50):
            k = int(rng.integers(2, 9))
            p = rng.dirichlet(np.ones(k))
            q = rng.dirichlet(np.ones(k))
            closed = 0.5 * float(np.sum((np.sqrt(q) - np.sqrt(p)) ** 2))
            assert f_divergence(p, q, gen) == pytest.approx(closed, rel=1e-12, abs=1e-15)

    def test_zero_zero_pairs_contribute_nothing(self):
        value = f_divergence([0.5, 0.5, 0.0], [0.25, 0.75, 0.0], generator("kl"))
        expected = f_divergence([0.5, 0.5], [0.25, 0.75], generator("kl"))
        assert value == pytest.approx(expected, rel=1e-14)

    def test_zero_q_with_mass_uses_slope_at_infinity(self):
        assert f_divergence([0.5, 0.5], [1.0, 0.0], generator("kl")) == math.inf
        value = f_divergence([0.5, 0.5], [1.0, 0.0], generator("hellinger"))
        assert value == pytest.approx(0.5 * (1 - math.sqrt(0.5)) ** 2 + 0.5 * 0.5, rel=1e-13)

    def test_zero_p_uses_limit_at_zero(self):
        value = f_divergence([0.0, 1.0], [0.5, 0.5], generator("kl"))
        expected = 0.5 * 0.0 + 0.5 * (2.0 * math.log(2.0))
        assert value == pytest.approx(expected, rel=1e-14)
        assert f_divergence([0.0, 1.0], [0.5, 0.5], generator("jeffreys")) == math.inf

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            f_divergence([1.0], [0.5, 0.5], generator("kl"))

    def test_non_probability_rejected(self):
        with pytest.raises(ValueError, match="sum to 1"):
            f_divergence([0.5, 0.6], [0.5, 0.5], generator("kl"))

    def test_nan_entry_rejected(self):
        # a NaN entry is an input error, not a pair to skip
        with pytest.raises(ValueError, match="non-finite weight in p"):
            f_divergence([math.nan, 1.0], HALF_HALF, generator("kl"))


HALF_HALF = [0.5, 0.5]


class TestDivergenceBounds:
    def test_harmonic_equal_distributions_mid(self):
        # all ratios equal 1; the mid is the secant evaluation at 1 minus
        # f(1) = (2/3)*f(0.5) + (1/3)*f(2) - 1 = -1/9 by direct evaluation
        r = divergence_bounds(HALF_HALF, HALF_HALF, generator("harmonic"),
                              m=0.5, M=2.0, theorem="derivative")
        assert r.mid == pytest.approx(-1.0 / 9.0, abs=1e-14)
        assert r.orientation == "direct"
        assert r.violation() <= 1e-12
        assert r.lower == pytest.approx(-0.125, abs=1e-14)
        assert r.upper == pytest.approx(-1.0 / 12.0, abs=1e-14)

    def test_kl_equal_distributions_reversed(self):
        # mid = (2/3)*0.5*ln(0.5) + (1/3)*2*ln(2) = ln(2)/3 by direct
        # evaluation; the generator is 3-concave so the chain reverses
        r = divergence_bounds(HALF_HALF, HALF_HALF, generator("kl"),
                              m=0.5, M=2.0, theorem="derivative")
        assert r.mid == pytest.approx(math.log(2.0) / 3.0, abs=1e-14)
        assert r.orientation == "reversed"
        assert r.violation() <= 1e-12

    def test_tiny_interval_around_one(self):
        r = divergence_bounds(HALF_HALF, HALF_HALF, generator("harmonic"),
                              m=0.999, M=1.001, theorem="derivative")
        assert abs(r.mid) <= 1e-6

    def test_taylor_theorem_brackets(self):
        p, q = [0.3, 0.7], [0.5, 0.5]
        for name in ("kl", "harmonic", "hellinger", "jeffreys"):
            r = divergence_bounds(p, q, generator(name), theorem="taylor")
            assert r.violation() <= 1e-12, name
            assert r.details["interval_auto_derived"]

    def test_auto_interval_includes_one(self):
        p, q = [0.4, 0.6], [0.5, 0.5]
        r = divergence_bounds(p, q, generator("harmonic"), theorem="derivative")
        assert r.details["m"] <= 1.0 <= r.details["M"]
        assert r.details["m"] == pytest.approx(0.8)
        assert r.details["M"] == pytest.approx(1.2)

    def test_interval_must_cover_one(self):
        with pytest.raises(ValueError, match="m <= 1 <= M"):
            divergence_bounds([0.4, 0.6], [0.5, 0.5], generator("kl"),
                              m=1.1, M=2.0, theorem="derivative")

    def test_ratio_outside_interval_rejected(self):
        with pytest.raises(ValueError, match="ratio outside"):
            divergence_bounds([0.4, 0.6], [0.5, 0.5], generator("kl"),
                              m=0.9, M=1.3, theorem="derivative")

    def test_degenerate_interval_rejected(self):
        with pytest.raises(ValueError, match="degenerate interval"):
            divergence_bounds(HALF_HALF, HALF_HALF, generator("kl"),
                              theorem="derivative")

    @pytest.mark.parametrize("p,message", [
        ([0.2, 0.8], "ratio outside [m, M]: 0.4"),
        (HALF_HALF, "degenerate interval: all ratios coincide; supply a wider [m, M]"),
    ], ids=["distinct-ratios", "identical-laws"])
    def test_point_interval_names_what_is_true(self, p, message):
        """[1, 1] refuses ratios 0.4 and 1.6 as outside it: only identical
        laws, whose every ratio is 1, are told that the ratios coincide."""
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            divergence_pass(p, HALF_HALF, generator("kl"), 1.0, 1.0)

    def test_nan_entry_rejected(self):
        with pytest.raises(ValueError, match="non-finite weight in p"):
            divergence_bounds([math.nan, 1.0], HALF_HALF, generator("kl"),
                              theorem="derivative")

    def test_renyi_boundary_alphas_bracket_both_ways(self):
        rng = np.random.default_rng(9)
        for alpha in (0.0, 1.0, 2.0):
            gen = generator("renyi", alpha=alpha)
            for _ in range(40):
                k = int(rng.integers(2, 7))
                p = rng.dirichlet(np.ones(k))
                q = rng.dirichlet(np.ones(k))
                for theorem in ("derivative", "taylor"):
                    r = divergence_bounds(p, q, gen, theorem=theorem)
                    lo, hi = r.bracket()
                    assert lo - 1e-9 <= r.mid <= hi + 1e-9
                    # the chain also holds with the opposite orientation
                    assert hi - 1e-9 <= r.mid <= lo + 1e-9

    def test_bracket_fuzz_all_generators(self):
        rng = np.random.default_rng(10)
        gens = [generator("kl"), generator("hellinger"), generator("harmonic"),
                generator("jeffreys"), generator("renyi", alpha=3.0),
                generator("renyi", alpha=1.5), generator("renyi", alpha=-0.5)]
        for gen in gens:
            for _ in range(150):
                k = int(rng.integers(2, 9))
                p = rng.dirichlet(np.ones(k))
                q = rng.dirichlet(np.ones(k))
                for theorem in ("derivative", "taylor"):
                    r = divergence_bounds(p, q, gen, theorem=theorem)
                    assert r.violation() <= 1e-9, (gen.name, gen.params)

    def test_sign_changing_generator_is_refused(self):
        """A hand-built generator of (t-1)^4, whose d3 = 24(t-1) changes sign
        on [0.8, 1.2], has no direction there to orient its brackets."""
        quartic = FunctionBundle(
            domain_lo=0.0, domain_hi=math.inf, f=lambda t: (t - 1.0) ** 4,
            d1=lambda t: 4.0 * (t - 1.0) ** 3, d2=lambda t: 12.0 * (t - 1.0) ** 2,
            d3=lambda t: 24.0 * (t - 1.0), name="(t-1)^4")
        custom = GeneratorFunction(bundle=quartic, name="custom")
        with pytest.raises(ValueError, match=re.escape(
                "'(t-1)^4' is not 3-convex on [0.8, 1.2] in either direction "
                "(verdict 'neither')")):
            divergence_bounds([0.4, 0.6], [0.5, 0.5], custom, theorem="derivative")

    @pytest.mark.filterwarnings("error")
    def test_interval_outside_the_domain_refused_before_any_read(self):
        """A custom generator on kl's t*log(t) or the counted bundle, both
        on [0.5, 4]: an interval that leaves it below (the derived [0.25,
        1.75]) or above ([0.5, 5]) is refused before its certificate samples
        d3 or f is read at the ratios."""
        calls = []
        cases = [([0.125, 0.875], None, None, "[0.25, 1.75]"),
                 ([0.75, 0.25], 0.5, 5.0, "[0.5, 5.0]")]
        for bundle in (counted(generator("kl").bundle, calls, arrays=True),
                       counting_bundle(calls, arrays=True)):
            custom = GeneratorFunction(
                bundle=replace(bundle, domain_lo=0.5, domain_hi=4.0), name="custom")
            for p, m, M, interval in cases:
                with pytest.raises(ValueError, match=re.escape(
                        f"interval {interval} escapes the domain of {bundle.name!r}")):
                    divergence_pass(p, [0.5, 0.5], custom, m, M)
        assert calls == []

    def test_declaration_without_third_derivative_is_certified(self):
        """With no d3 a hand-built generator is oriented by certify_3convex's
        divided differences: on kl's bundle without d3 it gives kl's pass
        bit for bit."""
        kl = generator("kl")
        bare = replace(kl.bundle, d3=None)
        p, q = [0.1, 0.2, 0.7], [0.5, 0.3, 0.2]
        value, reports = divergence_pass(p, q, kl)
        custom = GeneratorFunction(bundle=bare, name="custom")
        got_value, got = divergence_pass(p, q, custom)
        assert got_value.hex() == value.hex()
        assert [(r.lower.hex(), r.mid.hex(), r.upper.hex(), r.orientation)
                for r in got] == [(r.lower.hex(), r.mid.hex(), r.upper.hex(),
                                   r.orientation) for r in reports]

    @pytest.mark.filterwarnings("error")
    def test_third_derivative_not_finite_is_refused(self):
        """A d3 sample that is inf (kl's -1/t^2 overflows at the ratio
        2e-200) or nan has no sign to orient the brackets: a hand-built
        generator is refused there as certify_3convex refuses it, while
        named kl, whose direction is proved, is not sampled."""
        kl = generator("kl")
        with_nan = lambda t: np.where(t > 1.1, np.nan, -1.0 / t ** 2)
        for d3, p in ((kl.bundle.d3, [1e-200, 1.0 - 1e-200]), (with_nan, [0.4, 0.6])):
            custom = GeneratorFunction(bundle=replace(kl.bundle, d3=d3), name="custom")
            with pytest.raises(ValueError, match="^third derivative not finite on the grid$"):
                divergence_pass(p, [0.5, 0.5], custom)
            divergence_pass(p, [0.5, 0.5], kl)


class TestRatioOverflow:
    """Only a subnormal q_i can overflow p_i/q_i; such a ratio is an input
    error, and a finite one is computed as before, with no numpy warning."""

    @pytest.mark.filterwarnings("error")
    def test_overflowing_ratio_rejected(self):
        with pytest.raises(ValueError, match="overflows: 0.5/1e-320"):
            f_divergence([0.5, 0.5], [1e-320, 1.0], generator("kl"))
        with pytest.raises(ValueError, match="overflows"):
            divergence_bounds([0.5, 0.5], [1e-320, 1.0], generator("kl"))

    @pytest.mark.filterwarnings("error")
    def test_finite_ratio_of_subnormals_kept(self):
        assert f_divergence([1e-320, 1.0], [1e-320, 1.0], generator("kl")) == 0.0


class TestReports:
    def test_reports_are_the_batches_of_one(self):
        p, q = [0.2, 0.5, 0.3], [0.3, 0.3, 0.4]
        gen = generator("hellinger")
        reports = divergence_pass(p, q, gen)[1]
        assert reports == [divergence_bounds(p, q, gen, theorem=theorem)
                           for theorem in DIVERGENCE_THEOREMS]
        with pytest.raises(ValueError, match="unknown theorem 'secant'"):
            divergence_pass(p, q, gen, theorems=("taylor", "secant"))

    @pytest.mark.parametrize("theorems", ["taylor", "derivative", ""])
    def test_a_bare_string_of_theorems_is_refused_whole(self, theorems):
        """A string is not walked letter by letter ("unknown theorem 't'"),
        and it is refused before the pair is read: q here is no
        distribution."""
        message = ("^theorems must be a sequence of names, not the string "
                   f"{re.escape(repr(theorems))}$")
        with pytest.raises(ValueError, match=message):
            divergence_pass([0.2, 0.8], "q", generator("kl"), theorems=theorems)


class TestRetention:
    def test_one_generator_retains_nothing_per_pair(self):
        """A generator held across many pairs keeps no per-pair state: 2000
        Dirichlet pairs through one bundle retain less than 256 KB."""
        import gc
        import tracemalloc

        rng = np.random.default_rng(11)
        pairs = [(rng.dirichlet(np.ones(k)), rng.dirichlet(np.ones(k)))
                 for k in rng.integers(2, 9, 2001)]
        gen = generator("kl")
        tracemalloc.start()
        try:
            divergence_pass(*pairs[0], gen)
            gc.collect()
            baseline = tracemalloc.get_traced_memory()[0]
            for p, q in pairs[1:]:
                divergence_pass(p, q, gen)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - baseline
        finally:
            tracemalloc.stop()
        assert retained < 256 * 1024


class TestNonFiniteBounds:
    """A huge but finite ratio can overflow a moment and with it a bound;
    a pair that is not finite is an input error, a finite one stands."""

    PAIR = ([0.5, 0.5], [1e-300, 1.0])

    def test_overflowing_pair_rejected(self):
        with pytest.raises(ValueError, match="is too wide: the moments of the "
                                             "functional on it overflow"):
            divergence_bounds(*self.PAIR, generator("kl"), theorem="taylor")

    def test_finite_pair_kept_when_a_moment_overflows(self):
        r = divergence_bounds(*self.PAIR, generator("kl"), theorem="derivative")
        assert all(map(math.isfinite, (r.lower, r.mid, r.upper)))
        assert r.violation() == 0.0


class TestRatioNormalization:
    """ratio_functional checks its pair once and then runs only the
    normalization of make_functional, with the same result to the bit."""

    @staticmethod
    def assert_is_make_functional(p, q):
        keep = np.asarray(q) > 0
        ratios = np.asarray(p)[keep] / np.asarray(q)[keep]
        # an explicit interval, which the pairs whose ratios all coincide need
        functional, _, _, masses = ratio_functional(p, q, 0.0, ratios.max() + 1.0)
        reference = make_functional(ratios, masses)
        assert functional.nodes.tobytes() == reference.nodes.tobytes()
        assert functional.weights.tobytes() == reference.weights.tobytes()
        assert not functional.weights.flags.writeable
        assert not functional.nodes.flags.writeable
        assert apply(functional, lambda x: 1.0) == 1.0

    @pytest.mark.parametrize("seed", range(8))
    def test_random_pairs_with_zero_masses(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(50):
            k = int(rng.integers(2, 40))
            p = rng.dirichlet(np.full(k, rng.uniform(0.05, 3.0)))
            q = rng.dirichlet(np.full(k, rng.uniform(0.05, 3.0)))
            # zero-zero pairs, which are dropped, and p_i = 0 < q_i
            both = rng.random(k) < 0.3
            both[int(rng.integers(k))] = False
            p[both] = q[both] = 0.0
            p[(rng.random(k) < 0.2) & ~both] = 0.0
            p, q = p / p.sum(), q / q.sum()
            self.assert_is_make_functional(p, q)

    @pytest.mark.parametrize("N", [2, 10, 100, 1000, 10_000])
    def test_zipf_mandelbrot_laws(self, N):
        a = zm_distribution(N, 0.5, 1.1)
        b = zm_distribution(N, 3.0, 2.3)
        self.assert_is_make_functional(a.pmf, b.pmf)
        self.assert_is_make_functional(b.pmf, a.pmf)


class TestRatioOneRowPath:
    """ratio_functional lands its weights on the one-row path, bit for bit
    as make_functionals lands the kept masses as a batch of one."""

    @staticmethod
    def assert_is_the_batch_of_one(p, q):
        functional, _, _, masses = ratio_functional(p, q)
        batch = make_functionals(functional.nodes, masses, ((1, masses.size),))
        assert functional.weights.tobytes() == batch.weights.tobytes()

    def test_dirichlet_pairs(self):
        rng = np.random.default_rng(252)
        for _ in range(300):
            k = int(rng.integers(2, 60))
            alpha = rng.uniform(0.2, 3.0)
            self.assert_is_the_batch_of_one(rng.dirichlet(np.full(k, alpha)),
                                            rng.dirichlet(np.full(k, alpha)))

    @pytest.mark.parametrize("N", [2, 100, 511, 512, 1000, 3000])
    def test_zipf_mandelbrot_pairs(self, N):
        a = zm_distribution(N, 0.5, 1.1)
        b = zm_distribution(N, 3.0, 2.3)
        self.assert_is_the_batch_of_one(a.pmf, b.pmf)
        self.assert_is_the_batch_of_one(b.pmf, a.pmf)


class TestProvedDirection:
    """A named generator's direction is proved by ``generator()`` from its
    closed-form d3 and orients its brackets unsampled; a hand-built or
    ``replace``d generator has no direction, and its bundle is certified
    once, at CERTIFY_POINTS points of [m, M], whatever it is called."""

    GRID = np.logspace(-8.0, 8.0, 801)
    NAMED = [("kl", None), ("hellinger", None), ("harmonic", None),
             ("jeffreys", None)] + [
        ("renyi", alpha) for alpha in (-2.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 7.5)]
    CERTIFIED_GRID = np.linspace(0.8, 1.2, CERTIFY_POINTS).tolist()

    @staticmethod
    def sampled_grids(monkeypatch):
        """The grids on which certify_3convex samples a d3: its evaluations
        through divided_diff._eval, which no other read of the pass makes."""
        from elrbounds import divided_diff

        grids, evaluate = [], divided_diff._eval

        def recording(g, x):
            grids.append(x)
            return evaluate(g, x)

        monkeypatch.setattr(divided_diff, "_eval", recording)
        return grids

    @staticmethod
    def pass_bits(p, q, gen):
        value, reports = divergence_pass(p, q, gen)
        return value.hex(), [(r.lower.hex(), r.mid.hex(), r.upper.hex(), r.orientation)
                             for r in reports]

    @pytest.mark.parametrize("name,alpha", NAMED,
                             ids=[f"{n}-{a}" if a is not None else n for n, a in NAMED])
    def test_proof_agrees_with_d3_on_a_log_grid(self, name, alpha):
        gen = generator(name, alpha=alpha)
        assert gen.direction in (F_3CONVEX, NEG_F_3CONVEX)
        d3 = gen.bundle.d3(self.GRID)
        assert not np.isnan(d3).any()
        if gen.direction == F_3CONVEX:
            assert (d3 >= 0.0).all()
        else:
            assert (d3 <= 0.0).all()

    def test_named_generator_is_not_sampled(self, monkeypatch):
        sampled = self.sampled_grids(monkeypatch)
        gen = generator("kl")
        divergence_pass([0.4, 0.6], [0.5, 0.5], gen)
        assert sampled == []
        # the proof is the generator's: a hand-built one on the same bundle
        # has none, and its bundle is certified
        custom = GeneratorFunction(bundle=gen.bundle, name="custom")
        assert custom.direction is None
        divergence_pass([0.4, 0.6], [0.5, 0.5], custom)
        assert [grid.tolist() for grid in sampled] == [self.CERTIFIED_GRID]

    def test_replaced_bundle_is_sampled(self, monkeypatch):
        """replace() does not carry the proof, even onto the named bundle."""
        sampled = self.sampled_grids(monkeypatch)
        kl = generator("kl")
        for copy in (replace(kl, bundle=replace(kl.bundle)), replace(kl, name="x")):
            assert copy.direction is None
            sampled.clear()
            divergence_pass([0.4, 0.6], [0.5, 0.5], copy)
            assert [grid.tolist() for grid in sampled] == [self.CERTIFIED_GRID]

    def test_hand_built_generators_give_the_named_pass(self):
        """On Dirichlet pairs a hand-built generator on each named bundle,
        oriented by its certificate, gives the named generator's pass bit
        for bit: divergence, triples and orientation."""
        rng = np.random.default_rng(27)
        named = [generator(name) for name in ("kl", "hellinger", "harmonic", "jeffreys")]
        named += [generator("renyi", alpha=a) for a in (-0.5, 0.0, 1.5, 3.0)]
        for gen in named:
            custom = GeneratorFunction(bundle=gen.bundle, name=gen.name, params=gen.params,
                                       value_at_zero=gen.value_at_zero,
                                       slope_at_inf=gen.slope_at_inf)
            for _ in range(40):
                k = int(rng.integers(2, 9))
                p, q = rng.dirichlet(np.ones(k)), rng.dirichlet(np.ones(k))
                assert (self.pass_bits(p, q, custom)
                        == self.pass_bits(p, q, gen)), (gen.name, gen.params)
