import gc
import math
import weakref
from dataclasses import replace

import numpy as np
import pytest

from elrbounds import (
    GammaCurve,
    cauchy_xi,
    check_bundle,
    divergence_context,
    elr_context,
    elr_difference,
    gamma,
    make_functional,
    mean_B1,
    mean_M2,
    mvt_xi,
    stolarsky_quotient,
    upsilon1,
    upsilon2,
)
from elrbounds import stolarsky_means
from elrbounds.divided_diff import _eval
from elrbounds.registry import poly_bundle
from elrbounds.registry import resolve_phi
from elrbounds.stolarsky_means import (
    _CLOSED_FORM,
    BISECT_WIDTH,
    RANGE_SLACK,
    XiResult,
    _fixed,
    _invert_monotone,
    _u1_log_product,
    _u2_id_product,
    cubic_reference,
)

WORKED = elr_context(1, make_functional([0.5], [1.0]), 0.0, 1.0)
POSITIVE = elr_context(1, make_functional([0.5, 1.2], [0.4, 0.6]), 0.2, 2.0)


def u1_curve(ctx, grid):
    return GammaCurve(ctx, lambda t: upsilon1(t).bundle, np.asarray(grid, float))


def u2_curve(ctx, grid):
    return GammaCurve(ctx, lambda t: upsilon2(t).bundle, np.asarray(grid, float))


class TestFamilies:
    def test_power_family_values(self):
        assert float(upsilon1(3.0).bundle.f(2.0)) == pytest.approx(8 / 6, rel=1e-15)
        assert float(upsilon1(0.0).bundle.f(1.0)) == 0.0
        assert float(upsilon1(1.0).bundle.f(1.0)) == pytest.approx(0.0, abs=1e-15)
        assert float(upsilon1(2.0).bundle.f(math.e)) == pytest.approx(0.5 * math.e**2, rel=1e-14)

    def test_power_family_third_derivative(self):
        xs = np.linspace(0.2, 3.0, 17)
        for t in (-2.0, -0.5, 0.0, 0.7, 1.0, 1.5, 2.0, 3.0, 4.2):
            d3 = np.asarray(upsilon1(t).bundle.d3(xs), dtype=float)
            assert np.allclose(d3, xs ** (t - 3.0), rtol=1e-10), t

    def test_exponential_family_values(self):
        assert float(upsilon2(0.0).bundle.f(2.0)) == pytest.approx(8 / 6, rel=1e-15)
        assert float(upsilon2(1.0).bundle.f(0.0)) == pytest.approx(1.0, rel=1e-15)

    def test_exponential_family_third_derivative(self):
        xs = np.linspace(0.2, 3.0, 17)
        for t in (-2.0, -0.3, -0.01, 0.0, 0.004, 0.3, 1.0, 2.5):
            d3 = np.asarray(upsilon2(t).bundle.d3(xs), dtype=float)
            assert np.allclose(d3, np.exp(t * xs), rtol=1e-10), t

    def test_reduced_small_parameter_bundles_are_consistent(self):
        for t in (0.01, -0.02, 0.049):
            check_bundle(upsilon2(t).bundle, 0.2, 2.5)
            check_bundle(_u2_id_product(t), 0.2, 2.5)

    def test_family_members_are_three_convex(self):
        from elrbounds import certify_3convex
        for t in (-1.0, 0.0, 1.0, 2.0, 3.5):
            cert1 = certify_3convex(upsilon1(t).bundle, 0.1, 3.0, 65)
            cert2 = certify_3convex(upsilon2(t).bundle, 0.1, 3.0, 65)
            assert cert1.verdict == "three_convex"
            assert cert2.verdict == "three_convex"

    def test_product_bundle_integrity(self):
        for bundle in (_u1_log_product(3.7), _u1_log_product(-1.2),
                       _fixed("upsilon1[0]^2"), _fixed("upsilon1[0]*upsilon1[1]"),
                       _fixed("upsilon1[0]*upsilon1[2]"), _u2_id_product(1.3),
                       _fixed("x*upsilon2[0]")):
            check_bundle(bundle, 0.2, 2.5)

    def test_registry_resolves_family_members(self):
        for name, family in (("upsilon1", upsilon1), ("upsilon2", upsilon2)):
            member = family(2.5)
            assert resolve_phi({"name": name, "params": [2.5]}) is member.bundle
            for params in ([], [1.0, 2.0]):
                with pytest.raises(ValueError, match=f"^{name} needs one parameter$"):
                    resolve_phi({"name": name, "params": params})

    def test_family_tags(self):
        assert upsilon1(3.0).family_tag == "upsilon1"
        assert upsilon2(0.0).family_tag == "upsilon2"


class TestMeanValuePoints:
    def test_quartic_golden_value(self):
        result = mvt_xi(WORKED, poly_bundle([0.0, 0.0, 0.0, 0.0, 1.0]))
        assert result.unique
        assert result.xi == pytest.approx(0.375, abs=1e-9)

    def test_scalar_only_third_derivative(self):
        # a branch on the argument rejects an array with a ValueError; the
        # inversion's array scan then falls back to scalar calls
        from elrbounds.divided_diff import bundle_from_callables
        quartic = bundle_from_callables(
            lambda x: x ** 4, lambda x: 4 * x ** 3, lambda x: 12 * x ** 2,
            lambda x: 24.0 * x if x > 0 else 0.0, lo=0.0, hi=1.0)
        result = mvt_xi(WORKED, quartic)
        assert result.xi == mvt_xi(WORKED, poly_bundle([0, 0, 0, 0, 1])).xi

    def test_cubic_reference_is_non_unique_midpoint(self):
        result = mvt_xi(WORKED, cubic_reference())
        assert not result.unique
        assert result.xi == pytest.approx(0.5, abs=1e-15)

    def test_xi_lands_in_interval(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            m = float(rng.uniform(0.1, 1.5))
            M = m + float(rng.uniform(0.3, 2.0))
            k = int(rng.integers(1, 10))
            ctx = elr_context(int(rng.integers(1, 7)),
                              make_functional(rng.uniform(m, M, k), np.ones(k) / k),
                              m, M)
            member = upsilon1(float(rng.uniform(2.5, 6.0)))
            result = mvt_xi(ctx, member.bundle)
            assert m - 1e-9 <= result.xi <= M + 1e-9

    def test_vanishing_reference_rejected(self):
        endpoint_ctx = elr_context(1, make_functional([0.0, 1.0], [0.5, 0.5]), 0.0, 1.0)
        with pytest.raises(ValueError, match="denominator vanishes"):
            mvt_xi(endpoint_ctx, poly_bundle([0.0, 0.0, 0.0, 0.0, 1.0]))

    def test_missing_third_derivative_rejected(self):
        from elrbounds import FunctionBundle
        bare = FunctionBundle(domain_lo=-5, domain_hi=5, f=lambda x: x**3,
                              d1=lambda x: 3 * x**2, d2=lambda x: 6 * x)
        with pytest.raises(ValueError, match="insufficient bundle"):
            mvt_xi(WORKED, bare)

    def test_invert_monotone_rejects_untouchable_target(self):
        with pytest.raises(ValueError, match="MVT violated"):
            _invert_monotone(lambda x: x, 0.0, 1.0, 2.0)

    def test_invert_monotone_rejects_nonmonotone(self):
        with pytest.raises(ValueError, match="inverse undefined"):
            _invert_monotone(lambda x: (x - 0.5) ** 2, 0.0, 1.0, 0.1)

    def test_cauchy_power_pair_matches_mean(self):
        xi = cauchy_xi(POSITIVE, upsilon1(4.0).bundle, upsilon1(3.0).bundle)
        assert xi.unique
        assert xi.xi == pytest.approx(mean_B1(POSITIVE, 4.0, 3.0), rel=1e-9)

    def test_cauchy_exponential_pair_matches_mean(self):
        xi = cauchy_xi(POSITIVE, upsilon2(2.0).bundle, upsilon2(1.0).bundle)
        assert xi.xi == pytest.approx(mean_M2(POSITIVE, 2.0, 1.0), rel=1e-9)

    def test_cauchy_same_bundle_non_unique(self):
        result = cauchy_xi(POSITIVE, cubic_reference(), cubic_reference())
        assert not result.unique
        assert result.xi == pytest.approx(1.1, abs=1e-12)

    def test_cauchy_nonmonotone_ratio_rejected(self):
        # third derivative x^2 - 2x + 2 has a turning point inside [0.2, 2]
        bumpy = poly_bundle([0.0, 0.0, 0.0, 1 / 3, -1 / 12, 1 / 60])
        with pytest.raises(ValueError, match="inverse undefined"):
            cauchy_xi(POSITIVE, bumpy, cubic_reference())


class TestMeans:
    def test_ratio_branch_in_interval(self):
        value = mean_B1(POSITIVE, 4.0, 3.0)
        assert 0.2 <= value <= 2.0

    def test_exchange_symmetry_exact(self):
        assert mean_B1(POSITIVE, 4.0, 3.0) == mean_B1(POSITIVE, 3.0, 4.0)
        assert mean_M2(POSITIVE, 1.0, -1.0) == mean_M2(POSITIVE, -1.0, 1.0)

    @pytest.mark.parametrize("s", [3.0, 0.0, 1.0, 2.0, 0.4, -1.3])
    def test_power_diagonal_matches_quotient_limit(self, s):
        diag = mean_B1(POSITIVE, s, s)
        curve = u1_curve(POSITIVE, [s - 1.0, s + 1.0])
        limit = stolarsky_quotient(curve, s, s)
        assert diag == pytest.approx(limit, rel=1e-4)

    @pytest.mark.parametrize("s", [1.0, 0.0, -0.7, 0.02])
    def test_exponential_diagonal_matches_quotient_limit(self, s):
        diag = mean_M2(POSITIVE, s, s)
        curve = u2_curve(POSITIVE, [s - 1.0, s + 1.0])
        limit = math.log(stolarsky_quotient(curve, s, s))
        assert diag == pytest.approx(limit, rel=1e-4)

    def test_near_diagonal_continuity(self):
        # the genuine branch gap scales linearly with the offset; at 1e-3
        # it can exceed 1e-4 relative (measured 1.1e-4 at s=1 here), so
        # the tight tolerance applies at offset 1e-5 and the 1e-3 offset
        # is a coarser convergence check
        for s in (3.0, 0.0, 1.0, 2.0, 0.001, 1.001):
            diag = mean_B1(POSITIVE, s, s)
            for offset in (1e-5, -1e-5):
                assert mean_B1(POSITIVE, s + offset, s) == pytest.approx(diag, rel=1e-4)
            for offset in (1e-3, -1e-3):
                assert mean_B1(POSITIVE, s + offset, s) == pytest.approx(diag, rel=1e-2)
        for s in (1.0, 0.0, 0.001):
            diag = mean_M2(POSITIVE, s, s)
            for offset in (1e-5, -1e-5):
                assert mean_M2(POSITIVE, s + offset, s) == pytest.approx(diag, rel=1e-4)
            for offset in (1e-3, -1e-3):
                assert mean_M2(POSITIVE, s + offset, s) == pytest.approx(diag, rel=1e-2)

    @pytest.mark.parametrize("near", [0.0, 1.0, 2.0])
    @pytest.mark.parametrize("s,t", [(5e-9, 5e-9), (-9e-9, -9e-9), (4e-9, -2e-9)])
    def test_power_diagonal_snaps_to_a_singular_value(self, near, s, t):
        """A diagonal midpoint within 1e-8 of 0, 1 or 2 takes that value's
        closed row, bit for bit."""
        assert mean_B1(POSITIVE, near + s, near + t) == mean_B1(POSITIVE, near, near)

    @pytest.mark.parametrize("s,t", [(5e-9, 5e-9), (-1e-8, -1e-8), (4e-9, -2e-9)])
    def test_exponential_diagonal_snaps_to_zero(self, s, t):
        assert mean_M2(POSITIVE, s, t) == mean_M2(POSITIVE, 0.0, 0.0)

    def test_monotonicity_in_parameters(self):
        assert mean_B1(POSITIVE, 3.0, 4.0) <= mean_B1(POSITIVE, 4.0, 5.0) + 1e-9
        rng = np.random.default_rng(32)
        for _ in range(60):
            s, t = sorted(rng.uniform(-2.0, 5.0, 2))
            u = s + float(rng.uniform(0, 2))
            v = t + float(rng.uniform(0, 2))
            assert mean_B1(POSITIVE, s, t) <= mean_B1(POSITIVE, u, v) + 1e-9
            assert mean_M2(POSITIVE, s, t) <= mean_M2(POSITIVE, u, v) + 1e-9

    def test_containment(self):
        rng = np.random.default_rng(33)
        for _ in range(40):
            m = float(rng.uniform(0.1, 1.5))
            M = m + float(rng.uniform(0.3, 2.0))
            k = int(rng.integers(1, 8))
            ctx = elr_context(int(rng.integers(1, 7)),
                              make_functional(rng.uniform(m, M, k), np.ones(k) / k),
                              m, M)
            s, t = rng.uniform(-2.0, 5.0, 2)
            assert m - 1e-9 <= mean_B1(ctx, float(s), float(t)) <= M + 1e-9
            assert m - 1e-9 <= mean_M2(ctx, float(s), float(t)) <= M + 1e-9

    def test_nonpositive_values_rejected(self):
        endpoint_ctx = elr_context(1, make_functional([0.25, 1.0], [0.0, 1.0]), 0.25, 1.0)
        # a point mass at the right endpoint makes every slack vanish
        with pytest.raises(ValueError, match="strictly positive"):
            mean_B1(endpoint_ctx, 4.0, 3.0)


class TestCauchyIdentity:
    """The means are Cauchy mean-value points: the third-derivative ratio
    of phi_s to phi_t is x^(s-t) for the power family and e^((s-t)x) for
    the exponential one, so inverting it against Gamma(phi_s)/Gamma(phi_t)
    gives the mean."""

    def test_mean_is_cauchy_point(self):
        # the first 2000 instances of acceptance criterion 7
        rng = np.random.default_rng(88)
        worst = 0.0
        for _ in range(2000):
            if rng.random() < 0.8:
                index = int(rng.integers(1, 7))
                m = float(rng.uniform(0.1, 1.2))
                M = m + float(rng.uniform(0.4, 2.0))
                k = int(rng.integers(2, 10))
                width = M - m
                nodes = rng.uniform(m + 0.05 * width, M - 0.05 * width, k)
                w = rng.uniform(0.2, 1.0, k)
                ctx = elr_context(index, make_functional(nodes, w / w.sum()), m, M)
            else:
                index = int(rng.integers(7, 11))
                k = int(rng.integers(3, 8))
                ctx = divergence_context(index, rng.dirichlet(np.ones(k) * 3.0),
                                         rng.dirichlet(np.ones(k) * 3.0))
            s, t = (float(v) for v in rng.uniform(-2.0, 5.0, 2))
            family, mean = ((upsilon1, mean_B1) if rng.random() < 0.5
                            else (upsilon2, mean_M2))
            xi = cauchy_xi(ctx, family(s).bundle, family(t).bundle)
            worst = max(worst, abs(mean(ctx, s, t) - xi.xi))
        assert worst <= BISECT_WIDTH


def criterion_7_draws(count):
    """The first ``count`` (context, s, t, family) draws of acceptance
    criterion 7."""
    rng = np.random.default_rng(88)
    for _ in range(count):
        if rng.random() < 0.8:
            index = int(rng.integers(1, 7))
            m = float(rng.uniform(0.1, 1.2))
            M = m + float(rng.uniform(0.4, 2.0))
            k = int(rng.integers(2, 10))
            width = M - m
            nodes = rng.uniform(m + 0.05 * width, M - 0.05 * width, k)
            w = rng.uniform(0.2, 1.0, k)
            ctx = elr_context(index, make_functional(nodes, w / w.sum()), m, M)
        else:
            index = int(rng.integers(7, 11))
            k = int(rng.integers(3, 8))
            ctx = divergence_context(index, rng.dirichlet(np.ones(k) * 3.0),
                                     rng.dirichlet(np.ones(k) * 3.0))
        s, t = (float(v) for v in rng.uniform(-2.0, 5.0, 2))
        family = upsilon1 if rng.random() < 0.5 else upsilon2
        yield ctx, s, t, family


def general(bundle):
    """The bundle with its third derivative behind a plain closure, which
    carries no closed-form inverse."""
    d3 = bundle.d3
    return replace(bundle, d3=lambda x: d3(x))


class TestClosedFormInversion:
    """Members' third derivatives x^a and e^(tx) invert in closed form; any
    other map takes the scan and bisection."""

    def test_matches_general_path(self):
        for ctx, s, t, family in criterion_7_draws(2000):
            b_s, b_t = family(s).bundle, family(t).bundle
            for closed, scanned in (
                    (cauchy_xi(ctx, b_s, b_t),
                     cauchy_xi(ctx, general(b_s), general(b_t))),
                    (mvt_xi(ctx, b_s), mvt_xi(ctx, general(b_s)))):
                assert closed.unique == scanned.unique, (s, t, family)
                assert abs(closed.xi - scanned.xi) <= BISECT_WIDTH, (s, t, family)

    def test_closed_form_maps_pass_the_scan(self):
        rng = np.random.default_rng(41)
        for _ in range(300):
            m = float(rng.uniform(0.05, 3.0))
            M = m + float(rng.uniform(1e-3, 5.0))
            s, t = (float(v) for v in rng.uniform(-3.0, 6.0, 2))
            for family in (upsilon1, upsilon2):
                d3_s, d3_t = family(s).bundle.d3, family(t).bundle.d3
                for fn in (d3_s, d3_s / d3_t):
                    assert isinstance(fn, _CLOSED_FORM)
                    mid = float(fn(0.5 * (m + M)))
                    # a non-monotone scan raises "inverse undefined"
                    scanned = _invert_monotone(lambda x: fn(x), m, M, mid)
                    closed = _invert_monotone(fn, m, M, mid)
                    assert scanned.unique == closed.unique

    def test_only_members_carry_an_inverse(self):
        for t in (-1.5, 0.03, 0.98, 2.04, 3.0, 4.7):
            assert isinstance(upsilon1(t).bundle.d3, _CLOSED_FORM)
            assert isinstance(upsilon2(t).bundle.d3, _CLOSED_FORM)
        member = upsilon1(4.0).bundle
        for bundle in (upsilon1(0.0).bundle, upsilon1(1.0).bundle,
                       upsilon1(2.0).bundle, upsilon2(0.0).bundle,
                       cubic_reference(), poly_bundle([0.0, 0.0, 0.0, 0.0, 1.0]),
                       general(member), member.negated()):
            assert not isinstance(bundle.d3, _CLOSED_FORM), bundle.name

    def test_third_derivatives_are_bit_identical(self):
        xs = np.linspace(0.2, 3.0, 29)
        for t in (-2.0, -0.5, 0.0, 0.04, 0.7, 1.0, 1.02, 1.5, 2.0, 3.0, 4.2):
            expected = 1.0 / xs if t == 2.0 else xs ** (t - 3.0)
            assert np.array_equal(upsilon1(t).bundle.d3(xs), expected), t
            assert upsilon1(t).bundle.d3(1.7) == (1.0 / 1.7 if t == 2.0
                                                  else 1.7 ** (t - 3.0)), t
        for t in (-2.0, -0.3, -0.01, 0.004, 0.3, 1.0, 2.5):
            assert np.array_equal(upsilon2(t).bundle.d3(xs), np.exp(t * xs)), t


class TestGammaReuse:
    """Gamma is computed once per bundle and context, and family members of
    one parameter share a bundle while it is live."""

    def test_bench_shaped_op_computes_each_gamma_once(self, monkeypatch):
        import elrbounds.expconv as expconv
        calls = []
        triple = expconv.theorem_triple

        def counted(*args):
            calls.append(args[2].name)
            return triple(*args)

        monkeypatch.setattr(expconv, "theorem_triple", counted)
        for family, mean in ((upsilon1, mean_B1), (upsilon2, mean_M2)):
            calls.clear()
            ctx = elr_context(2, make_functional([0.5, 1.2], [0.4, 0.6]), 0.2, 2.0)
            mean(ctx, 3.7, -1.2)
            member_s, member_t = family(3.7), family(-1.2)
            cauchy_xi(ctx, member_s.bundle, member_t.bundle)
            mvt_xi(ctx, member_s.bundle)
            assert len(calls) == 3, calls

    def test_same_name_different_function(self):
        member = upsilon1(4.0).bundle
        doubled = replace(member, f=lambda x: 2.0 * member.f(x),
                          d1=lambda x: 2.0 * member.d1(x),
                          d2=lambda x: 2.0 * member.d2(x),
                          d3=lambda x: 2.0 * member.d3(x))
        assert doubled.name == member.name
        ctx = elr_context(1, make_functional([0.5, 1.2], [0.4, 0.6]), 0.2, 2.0)
        single = gamma(ctx, member)
        assert gamma(ctx, doubled) == pytest.approx(2.0 * single, rel=1e-12)
        assert gamma(ctx, member) == single

    def test_replaced_copy_leaves_the_shared_member_intact(self):
        """Evaluating a replaced copy of the live member does not change
        the member's own values."""
        member = upsilon1(4.3).bundle
        shifted = replace(member, f=lambda x: member.f(x) + 0.5)
        F = make_functional([0.5, 1.2, 1.9], [0.3, 0.4, 0.3])
        ctx = elr_context(1, F, 0.2, 2.0)
        gamma(ctx, shifted)
        elr_difference(F, shifted, 0.2, 2.0)
        assert upsilon1(4.3).bundle is member
        assert gamma(elr_context(1, F, 0.2, 2.0), member) == 0.06871357637588131
        assert elr_difference(F, member, 0.2, 2.0) == 0.16278533741788861

    def test_poly_bundle_through_the_cache(self):
        quartic = poly_bundle([0.0, 0.0, 0.0, 0.0, 1.0])
        ctx = elr_context(1, make_functional([0.5], [1.0]), 0.0, 1.0)
        first = mvt_xi(ctx, quartic)
        assert mvt_xi(ctx, quartic) == first
        assert first.xi == pytest.approx(0.375, abs=1e-9)

    @pytest.mark.parametrize("name", ["cubic", "quartic", "exp", "xlogx"])
    def test_a_registry_name_is_one_bundle(self, name):
        """A parameterless registry bundle is built once: every resolve of
        its name returns it, and it stays after its holders are gone."""
        bundle = resolve_phi({"name": name})
        assert resolve_phi({"name": name}) is bundle
        alive = weakref.ref(bundle)
        del bundle
        gc.collect()
        assert alive() is resolve_phi({"name": name})

    def test_cubic_reference_is_not_a_weakly_shared_member(self):
        """The cubic reference is built once, and the weak sharing holds
        family members only."""
        assert cubic_reference() is cubic_reference() is resolve_phi({"name": "cubic"})
        upsilon1(4.3)
        assert all(family in ("upsilon1", "upsilon2")
                   for family, _ in stolarsky_means._LIVE.keys())

    def test_no_bundle_outlives_its_contexts(self):
        ctx = elr_context(1, make_functional([0.5, 1.2], [0.4, 0.6]), 0.2, 2.0)
        mean_B1(ctx, 4.3, 2.6)
        shared = upsilon1(4.3).bundle
        assert shared is upsilon1(4.3).bundle
        alive = weakref.ref(shared)
        del ctx, shared
        gc.collect()
        assert alive() is None


def _array_invert_monotone(fn, m, M, target):
    """The inversion as it was before its checks ran on floats, kept as the
    oracle: the closed-form maps and the scan share every numpy check.  Its
    edits print the attained range as plain floats, where it printed
    np.float64 reprs, and take the scale as the largest |value| (1 for an
    all-zero map), where it was at least 1."""
    closed = isinstance(fn, _CLOSED_FORM)
    vals = _eval(fn, np.array([m, M]) if closed else np.linspace(m, M, 65))
    if not np.isfinite(vals).all():
        raise ValueError("inverse undefined: map not finite on [m, M]")
    scale = float(np.abs(vals).max()) or 1.0
    if vals.max() - vals.min() <= 1e-12 * scale:
        if abs(target - vals[0]) > RANGE_SLACK * scale:
            raise ValueError("MVT violated: constant map misses the target")
        return XiResult(0.5 * (m + M), unique=False)
    diffs = np.diff(vals)
    if not ((diffs >= -1e-13 * scale).all() or (diffs <= 1e-13 * scale).all()):
        raise ValueError("inverse undefined: map is not monotone on [m, M]")
    lo_val, hi_val = vals[0], vals[-1]
    vmin, vmax = min(lo_val, hi_val), max(lo_val, hi_val)
    if target < vmin - RANGE_SLACK * scale or target > vmax + RANGE_SLACK * scale:
        raise ValueError(
            f"MVT violated: target {target!r} escapes the attained range "
            f"[{float(vmin)!r}, {float(vmax)!r}]")
    if target <= vmin:
        return XiResult(m if lo_val <= hi_val else M, unique=True)
    if target >= vmax:
        return XiResult(M if lo_val <= hi_val else m, unique=True)
    if closed:
        return XiResult(min(max(fn.inverse(target), m), M), unique=True)
    increasing = lo_val < hi_val
    lo, hi = m, M
    while hi - lo > BISECT_WIDTH:
        mid = 0.5 * (lo + hi)
        v = float(fn(mid))
        if (v < target) == increasing:
            lo = mid
        else:
            hi = mid
    return XiResult(0.5 * (lo + hi), unique=True)


def _inverted(invert, fn, m, M, target):
    """(xi bits, unique) of one inversion, or its error text."""
    try:
        xi, unique = invert(fn, m, M, target)
    except ValueError as exc:
        return f"ValueError: {exc}"
    return np.float64(xi).tobytes(), unique


class TestTwoFloatInversion:
    """The inversion checks a closed-form map on its two end values as
    floats, and reduces a scan to the same floats, with the results and
    messages of the array oracle."""

    def test_criterion_7_draws_match_the_array_oracle(self, monkeypatch):
        draws = list(criterion_7_draws(2000))
        got = []
        for ctx, s, t, family in draws:
            got.append((cauchy_xi(ctx, family(s).bundle, family(t).bundle),
                        mvt_xi(ctx, family(s).bundle)))
        monkeypatch.setattr(stolarsky_means, "_invert_monotone", _array_invert_monotone)
        for (ctx, s, t, family), (cauchy, mvt) in zip(draws, got):
            want = (cauchy_xi(replace(ctx), family(s).bundle, family(t).bundle),
                    mvt_xi(replace(ctx), family(s).bundle))
            for result, expected in zip((cauchy, mvt), want):
                assert result.unique == expected.unique, (s, t, family)
                assert (np.float64(result.xi).tobytes()
                        == np.float64(expected.xi).tobytes()), (s, t, family)

    def test_constant_quotient_is_the_non_unique_midpoint(self):
        for ctx in (POSITIVE, WORKED):
            member = upsilon1(2.5).bundle
            result = cauchy_xi(ctx, member, member)
            assert result == XiResult(0.5 * (ctx.m + ctx.M), unique=False)
            ratio = member.d3 / member.d3
            assert (_inverted(_invert_monotone, ratio, ctx.m, ctx.M, 1.0)
                    == _inverted(_array_invert_monotone, ratio, ctx.m, ctx.M, 1.0))

    @staticmethod
    def _maps():
        """Increasing and decreasing closed-form maps, each behind a closure
        that takes the scan, and negative scanned maps."""
        maps = [stolarsky_means._Power(1.7), stolarsky_means._Power(-2.3),
                stolarsky_means._Exp(0.9), stolarsky_means._Exp(-1.4)]
        return maps + [lambda x, fn=fn: fn(x) for fn in maps] + [
            lambda x: -3.0 * np.exp(x), lambda x: -4.0 / x]

    def test_targets_at_and_around_the_attained_range(self):
        m, M = 0.3, 2.1
        for fn in self._maps():
            ends = _eval(fn, np.array([m, M])).tolist()
            scale = max(map(abs, ends)) or 1.0
            vmin, vmax = min(ends), max(ends)
            targets = [vmin, vmax, 0.5 * (vmin + vmax)]
            for edge, outward in ((vmin, -1.0), (vmax, 1.0)):
                targets += [edge + outward * 0.5 * RANGE_SLACK * scale,
                            edge + outward * 2.0 * RANGE_SLACK * scale]
            for target in targets:
                got = _inverted(_invert_monotone, fn, m, M, target)
                assert got == _inverted(_array_invert_monotone, fn, m, M, target), target
            # at the attained ends xi is an interval end; beyond the slack it
            # is refused, naming the range in plain floats
            increasing = ends[0] < ends[1]
            assert _invert_monotone(fn, m, M, vmin).xi == (m if increasing else M)
            assert _invert_monotone(fn, m, M, vmax).xi == (M if increasing else m)
            beyond = vmax + 2.0 * RANGE_SLACK * scale
            with pytest.raises(ValueError) as err:
                _invert_monotone(fn, m, M, beyond)
            assert str(err.value) == (f"MVT violated: target {beyond!r} escapes the "
                                      f"attained range [{vmin!r}, {vmax!r}]")

    def test_maps_that_are_not_finite(self):
        # e^(800x) and x^2000 overflow at M, x^-1200 at m
        overflowing = [stolarsky_means._Exp(800.0), stolarsky_means._Power(2000.0),
                       stolarsky_means._Power(-1200.0)]
        odd = [lambda x: np.where(x > 1.0, np.nan, x),
               lambda x: np.full_like(x, -np.inf),
               lambda x: np.where(x > 1.0, np.inf, -np.inf)]
        for fn in overflowing + [lambda x, fn=fn: fn(x) for fn in overflowing] + odd:
            for target in (1.0, 0.0):
                got = _inverted(_invert_monotone, fn, 0.5, 1.5, target)
                assert got == "ValueError: inverse undefined: map not finite on [m, M]"
                assert got == _inverted(_array_invert_monotone, fn, 0.5, 1.5, target)

    def test_scan_checks_in_the_oracle_order(self):
        # nearly constant and wobbling: the constant check comes first
        wobble = lambda x: 1.0 + 1e-14 * np.sin(40.0 * x)
        bump = lambda x: (x - 0.5) ** 2
        for fn, target in ((wobble, 1.0), (wobble, 1.1), (bump, 0.1),
                           (lambda x: x, 2.0), (lambda x: -x ** 3, -0.2)):
            got = _inverted(_invert_monotone, fn, 0.0, 1.0, target)
            assert got == _inverted(_array_invert_monotone, fn, 0.0, 1.0, target)
