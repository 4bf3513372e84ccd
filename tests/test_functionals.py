import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elrbounds import apply, make_functional, moments
from elrbounds.registry import resolve_phi

CUBIC = resolve_phi({"name": "cubic"})


def weights_strategy(size):
    return st.lists(st.floats(0.01, 1.0), min_size=size, max_size=size)


class TestMakeFunctional:
    def test_two_point_average(self):
        F = make_functional([0.0, 1.0], [0.5, 0.5])
        assert F.size == 2
        assert float(F.weights.sum()) == pytest.approx(1.0, abs=1e-15)

    def test_point_mass(self):
        F = make_functional([0.5], [1.0])
        assert F.nodes[0] == 0.5 and F.weights[0] == 1.0

    def test_bad_mass_rejected(self):
        with pytest.raises(ValueError, match="sum to 1"):
            make_functional([0.0, 1.0], [0.5, 0.6])

    def test_small_drift_renormalized(self):
        F = make_functional([0.0, 1.0], [0.5, 0.5 + 4e-10])
        assert apply(F, lambda x: np.ones_like(x)) == 1.0

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="negative weight"):
            make_functional([0.0, 1.0], [1.5, -0.5])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            make_functional([0.0, 1.0], [1.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one node"):
            make_functional([], [])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_weight_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite weight"):
            make_functional([0.0, 1.0], [bad, 1.0])


class TestApply:
    def test_identity(self):
        F = make_functional([0.0, 1.0], [0.5, 0.5])
        assert apply(F, lambda x: x) == pytest.approx(0.5, abs=1e-15)

    def test_cube(self):
        F = make_functional([0.0, 1.0], [0.5, 0.5])
        assert apply(F, lambda x: x**3) == pytest.approx(0.5, abs=1e-15)

    def test_point_mass_cube(self):
        F = make_functional([0.5], [1.0])
        assert apply(F, lambda x: x**3) == pytest.approx(0.125, abs=1e-15)

    def test_unit_function_is_exactly_one(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            k = int(rng.integers(1, 40))
            w = rng.uniform(0.0, 1.0, k) + 1e-9
            F = make_functional(rng.uniform(-4, 4, k), w / w.sum())
            assert apply(F, lambda x: np.ones_like(x)) == 1.0

    def test_non_finite_value_carries_node(self):
        F = make_functional([0.0, 2.0], [0.5, 0.5])
        with np.errstate(divide="ignore"):
            with pytest.raises(ValueError, match="node 0.0"):
                apply(F, lambda x: 1.0 / x)

    def test_scalar_only_callable_supported(self):
        import math
        F = make_functional([0.0, 1.0], [0.5, 0.5])
        assert apply(F, math.exp) == pytest.approx((1 + math.e) / 2, rel=1e-14)

    @given(st.integers(1, 12).flatmap(
        lambda k: st.tuples(
            st.lists(st.floats(-3, 3), min_size=k, max_size=k),
            weights_strategy(k),
            st.floats(-2, 2), st.floats(-2, 2))))
    @settings(max_examples=150, deadline=None)
    def test_linearity(self, data):
        nodes, weights, a, b = data
        F = make_functional(nodes, np.asarray(weights) / np.sum(weights))
        g = lambda x: np.sin(x)
        h = lambda x: x**2
        left = apply(F, lambda x: a * g(x) + b * h(x))
        right = a * apply(F, g) + b * apply(F, h)
        assert left == pytest.approx(right, abs=1e-12 * (1 + abs(left)))

    @given(st.integers(1, 12).flatmap(
        lambda k: st.tuples(
            st.lists(st.floats(-3, 3), min_size=k, max_size=k),
            weights_strategy(k))))
    @settings(max_examples=150, deadline=None)
    def test_positivity(self, data):
        nodes, weights = data
        F = make_functional(nodes, np.asarray(weights) / np.sum(weights))
        assert apply(F, lambda x: x**2 + 0.1) >= 0.0


class TestMoments:
    def test_point_mass_worked_values(self):
        F = make_functional([0.5], [1.0])
        ms = moments(F, CUBIC, 0.0, 1.0)
        assert ms.mean == pytest.approx(0.5, abs=1e-15)
        assert ms.cross == pytest.approx(0.25, abs=1e-15)
        assert ms.sq_lo == pytest.approx(0.25, abs=1e-15)
        assert ms.sq_hi == pytest.approx(0.25, abs=1e-15)
        assert ms.value == pytest.approx(0.125, abs=1e-15)
        assert ms.d_lo == pytest.approx(0.375, abs=1e-15)
        assert ms.d_hi == pytest.approx(0.375, abs=1e-15)

    def test_endpoint_mass_kills_cross(self):
        F = make_functional([0.0, 1.0], [0.5, 0.5])
        ms = moments(F, CUBIC, 0.0, 1.0)
        assert ms.cross == pytest.approx(0.0, abs=1e-15)

    def test_cross_linearity_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            k = int(rng.integers(1, 30))
            m, M = -1.5, 2.5
            nodes = rng.uniform(m, M, k)
            w = rng.uniform(0, 1, k) + 1e-9
            F = make_functional(nodes, w / w.sum())
            ms = moments(F, CUBIC, m, M)
            direct = (M + m) * ms.mean - m * M - apply(F, lambda x: x**2)
            assert ms.cross == pytest.approx(direct, rel=1e-10, abs=1e-12)

    def test_node_escape_rejected(self):
        F = make_functional([0.5, 1.5], [0.5, 0.5])
        with pytest.raises(ValueError, match="node escapes interval"):
            moments(F, CUBIC, 0.0, 1.0)

    def test_degenerate_interval_rejected(self):
        F = make_functional([0.5], [1.0])
        with pytest.raises(ValueError, match="degenerate interval"):
            moments(F, CUBIC, 0.5, 0.5)

    def test_derivative_moments_none_without_d1(self):
        from elrbounds import FunctionBundle
        bare = FunctionBundle(domain_lo=-5, domain_hi=5, f=lambda x: x**3)
        F = make_functional([0.5], [1.0])
        ms = moments(F, bare, 0.0, 1.0)
        assert ms.d_lo is None and ms.d_hi is None
        assert ms.value == pytest.approx(0.125)

    def test_moment_sign_invariants(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            m = float(rng.uniform(-2, 1))
            M = m + float(rng.uniform(0.2, 3))
            k = int(rng.integers(1, 25))
            w = rng.uniform(0, 1, k) + 1e-9
            F = make_functional(rng.uniform(m, M, k), w / w.sum())
            ms = moments(F, CUBIC, m, M)
            assert m - 1e-12 <= ms.mean <= M + 1e-12
            assert ms.cross >= -1e-15
            assert ms.sq_lo >= 0.0 and ms.sq_hi >= 0.0

    def test_one_sided_values_used_at_interval_endpoints(self):
        from elrbounds import FunctionBundle
        # kinked derivative data: stored endpoint slopes differ from d1
        b = FunctionBundle(domain_lo=0.0, domain_hi=1.0, f=lambda x: x**2,
                           d1=lambda x: 2 * x, d1_plus_at_lo=-9.0,
                           d1_minus_at_hi=9.0)
        F = make_functional([0.0, 0.5, 1.0], [0.25, 0.5, 0.25])
        ms = moments(F, b, 0.0, 1.0)
        # d_lo = sum w*(x-m)*phi'(x): interior uses 2x, endpoints the stored
        expected_dlo = 0.5 * 0.5 * 1.0 + 0.25 * 1.0 * 9.0
        assert ms.d_lo == pytest.approx(expected_dlo, abs=1e-14)
