import numpy as np
import pytest

from elrbounds import (
    GammaCurve,
    bounds_secant,
    divergence_context,
    elr_context,
    exp_convexity_check,
    gamma,
    lyapunov_check,
    make_functional,
    stolarsky_quotient,
    upsilon1,
    upsilon2,
)
from elrbounds.divided_diff import linear_combination
from elrbounds.registry import resolve_phi

CUBIC = resolve_phi({"name": "cubic"})
QUARTIC = resolve_phi({"name": "quartic"})
SQUARE = resolve_phi({"poly": [0.0, 0.0, 1.0]})

WORKED = elr_context(1, make_functional([0.5], [1.0]), 0.0, 1.0)


def worked_ctx(index):
    return elr_context(index, make_functional([0.5], [1.0]), 0.0, 1.0)


class TestGamma:
    def test_worked_values(self):
        assert gamma(worked_ctx(1), CUBIC) == pytest.approx(0.125, abs=1e-14)
        assert gamma(worked_ctx(2), CUBIC) == pytest.approx(0.125, abs=1e-14)

    def test_quadratic_slack_vanishes(self):
        for index in range(1, 7):
            assert gamma(worked_ctx(index), SQUARE) == pytest.approx(0.0, abs=1e-13), index

    def test_matches_bound_reports(self):
        r = bounds_secant(make_functional([0.5], [1.0]), CUBIC, 0.0, 1.0, "three_convex")
        assert gamma(worked_ctx(1), CUBIC) == pytest.approx(r.mid - r.lower, abs=1e-15)
        assert gamma(worked_ctx(2), CUBIC) == pytest.approx(r.upper - r.mid, abs=1e-15)

    def test_linearity(self):
        ctx = elr_context(3, make_functional([0.3, 0.8], [0.4, 0.6]), 0.1, 1.2)
        combo = linear_combination(2.0, CUBIC, 0.5, QUARTIC)
        left = gamma(ctx, combo)
        right = 2.0 * gamma(ctx, CUBIC) + 0.5 * gamma(ctx, QUARTIC)
        assert left == pytest.approx(right, rel=1e-10)

    def test_positivity_on_random_three_convex_input(self):
        from elrbounds.fuzzing import random_three_convex_bundle
        rng = np.random.default_rng(21)
        for _ in range(100):
            m = float(rng.uniform(0.1, 2.0))
            M = m + float(rng.uniform(0.2, 2.0))
            k = int(rng.integers(1, 12))
            F = make_functional(rng.uniform(m, M, k),
                                np.ones(k) / k)
            bundle = random_three_convex_bundle(rng, m, M)
            for index in range(1, 7):
                assert gamma(elr_context(index, F, m, M), bundle) >= -1e-9

    def test_divergence_indices_positive_for_direct_generators(self):
        from elrbounds import generator
        rng = np.random.default_rng(22)
        gen = generator("harmonic")
        for _ in range(50):
            k = int(rng.integers(2, 7))
            p = rng.dirichlet(np.ones(k))
            q = rng.dirichlet(np.ones(k))
            for index in (7, 8, 9, 10):
                ctx = divergence_context(index, p, q)
                assert gamma(ctx, gen.bundle) >= -1e-9

    def test_context_kind_validation(self):
        F = make_functional([0.5], [1.0])
        with pytest.raises(ValueError, match="divergence context"):
            elr_context(7, F, 0.0, 1.0)
        with pytest.raises(ValueError, match="elr context"):
            divergence_context(3, [0.4, 0.6], [0.5, 0.5])
        with pytest.raises(ValueError, match="1..10"):
            elr_context(0, F, 0.0, 1.0)

    def test_divergence_context_rejects_ratio_outside_interval(self):
        # ratios are 0.8 and 1.2; the message prints a plain float
        with pytest.raises(ValueError, match=r"ratio outside \[m, M\]: 0\.8$"):
            divergence_context(7, [0.4, 0.6], [0.5, 0.5], m=0.9, M=1.3)


class TestExpConvexity:
    def test_order_one_accepts_nonnegative_curve(self):
        curve = GammaCurve(WORKED, lambda t: upsilon1(t).bundle,
                           np.array([3.0, 4.0, 5.0]))
        result = exp_convexity_check(curve, 1)
        assert result.passed
        assert result.min_eigenvalue >= -1e-12

    def test_order_one_rejects_negative_curve(self):
        # 3-concave input makes the odd functionals negative
        xlogx = resolve_phi({"name": "xlogx"})
        ctx = elr_context(1, make_functional([0.5], [1.0]), 0.25, 1.0)
        curve = GammaCurve(ctx, lambda t: xlogx, np.array([1.0, 2.0]))
        result = exp_convexity_check(curve, 1)
        assert not result.passed
        assert result.min_eigenvalue < 0

    def test_order_two_worked_grid(self):
        curve = GammaCurve(WORKED, lambda t: upsilon1(t).bundle,
                           np.array([3.0, 4.0, 5.0]))
        result = exp_convexity_check(curve, 2)
        assert result.passed
        # independent 2x2 check: PSD means nonnegative diagonal and
        # determinant for every pair
        for a, b in [(3.0, 4.0), (3.0, 5.0), (4.0, 5.0)]:
            gaa = curve.value(a)
            gbb = curve.value(b)
            gab = curve.value(0.5 * (a + b))
            assert gaa >= -1e-12 and gbb >= -1e-12
            assert gaa * gbb - gab * gab >= -1e-10 * max(1.0, gaa, gbb)

    def test_constant_zero_curve_passes(self):
        curve = GammaCurve(WORKED, lambda t: SQUARE, np.array([1.0, 2.0, 3.0]))
        for n in (1, 2, 3):
            assert exp_convexity_check(curve, n).passed

    def test_higher_orders_on_both_families(self):
        ctx = elr_context(1, make_functional([0.4, 1.1], [0.5, 0.5]), 0.2, 1.5)
        grids = {"u1": np.array([0.0, 1.0, 2.0, 3.0, 4.0]),
                 "u2": np.array([-2.0, -1.0, 0.0, 1.0, 2.0])}
        curves = {"u1": GammaCurve(ctx, lambda t: upsilon1(t).bundle, grids["u1"]),
                  "u2": GammaCurve(ctx, lambda t: upsilon2(t).bundle, grids["u2"])}
        for name, curve in curves.items():
            for n in (1, 2, 3, 4):
                result = exp_convexity_check(curve, n)
                assert result.passed, (name, n, result.min_eigenvalue)

    def test_grid_too_small_rejected(self):
        curve = GammaCurve(WORKED, lambda t: upsilon1(t).bundle, np.array([3.0]))
        with pytest.raises(ValueError, match="grid too small"):
            exp_convexity_check(curve, 2)

    def test_grid_must_increase(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            GammaCurve(WORKED, lambda t: upsilon1(t).bundle, np.array([3.0, 3.0]))


class TestLyapunov:
    def test_worked_upsilon1(self):
        curve = GammaCurve(WORKED, lambda t: upsilon1(t).bundle,
                           np.array([3.0, 4.0, 5.0]))
        holds, residual = lyapunov_check(curve, 3.0, 4.0, 5.0)
        assert holds
        assert residual <= 1e-9

    def test_worked_upsilon2(self):
        curve = GammaCurve(WORKED, lambda t: upsilon2(t).bundle,
                           np.array([-1.0, 0.0, 1.0]))
        holds, residual = lyapunov_check(curve, -1.0, 0.0, 1.0)
        assert holds

    def test_constant_positive_curve_is_equality(self):
        curve = GammaCurve(WORKED, lambda t: CUBIC, np.array([1.0, 2.0, 3.0]))
        holds, residual = lyapunov_check(curve, 1.0, 2.0, 3.0)
        assert holds
        assert residual == pytest.approx(0.0, abs=1e-12)

    def test_requires_positivity(self):
        curve = GammaCurve(WORKED, lambda t: SQUARE, np.array([1.0, 2.0, 3.0]))
        with pytest.raises(ValueError, match="strictly positive"):
            lyapunov_check(curve, 1.0, 2.0, 3.0)

    def test_requires_ordering(self):
        curve = GammaCurve(WORKED, lambda t: upsilon1(t).bundle,
                           np.array([3.0, 4.0, 5.0]))
        with pytest.raises(ValueError, match="r < s < t"):
            lyapunov_check(curve, 4.0, 3.0, 5.0)


class TestStolarskyQuotient:
    def test_symmetry_is_exact(self):
        curve = GammaCurve(WORKED, lambda t: upsilon1(t).bundle,
                           np.array([3.0, 4.0, 5.0]))
        assert stolarsky_quotient(curve, 4.0, 3.0) == stolarsky_quotient(curve, 3.0, 4.0)

    def test_constant_curve_diagonal_is_one(self):
        curve = GammaCurve(WORKED, lambda t: CUBIC, np.array([1.0, 2.0]))
        assert stolarsky_quotient(curve, 2.0, 2.0) == pytest.approx(1.0, abs=1e-12)

    def test_value_is_mean_of_the_segment(self):
        curve = GammaCurve(WORKED, lambda t: upsilon1(t).bundle,
                           np.array([3.0, 4.0, 5.0]))
        value = stolarsky_quotient(curve, 4.0, 3.0)
        assert 0.0 <= value <= 1.0

    def test_nonpositive_curve_rejected(self):
        curve = GammaCurve(WORKED, lambda t: SQUARE, np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match="strictly positive"):
            stolarsky_quotient(curve, 2.0, 1.0)
