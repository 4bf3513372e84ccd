import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elrbounds import apply, make_functional, moments
from elrbounds.functionals import check_weights, make_functionals, moments_batch
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


class TestVectorEntries:
    """A vector from outside is a flat list or tuple of numbers, a numeric
    array of at most one dimension, or one number; a bool or a string,
    alone or as an entry, and a nested or ragged list are refused with
    the vector's label."""

    REFUSED = [[[0.5], [0.5]], [[0.5, 0.5]], [[0.5], 0.5], [[0.5, 0.0], [1.0]],
               ["0.5", "0.5"], "1.0", [True, False], True, (0.5, "0.5"),
               np.array([[0.5, 0.5]]), np.array(["0.5", "0.5"]),
               np.array([True, False])]

    @pytest.mark.parametrize("weights", REFUSED)
    def test_check_weights_refuses(self, weights):
        with pytest.raises(ValueError, match="^p must be a list of numbers$"):
            check_weights(weights, "p")

    @pytest.mark.parametrize("weights", REFUSED)
    def test_make_functional_refuses_weights(self, weights):
        with pytest.raises(ValueError, match="^weights must be a list of numbers$"):
            make_functional([0.5, 0.7], weights)

    @pytest.mark.parametrize("nodes", REFUSED)
    def test_make_functional_refuses_nodes(self, nodes):
        with pytest.raises(ValueError, match="^nodes must be a list of numbers$"):
            make_functional(nodes, [0.5, 0.5])

    def test_nested_booleans_are_not_flat_weights(self):
        with pytest.raises(ValueError, match="^weights must be a list of numbers$"):
            make_functional([0.5, 1.2], [[True, 0.0]])

    @pytest.mark.parametrize("weights", [
        [0.5, 0.5], (0.5, 0.5), [1, 0], [np.float64(0.5), 0.5],
        np.array([0.5, 0.5]), np.array([1, 0])])
    def test_flat_vectors_accepted(self, weights):
        assert check_weights(weights).tolist() == [float(w) for w in weights]
        F = make_functional(np.array([0.2, 0.7]), weights)
        assert F.weights.tolist() == [float(w) for w in weights]

    def test_scalars_accepted(self):
        assert check_weights(1.0).tolist() == [1.0]
        F = make_functional(0.25, np.float64(1.0))
        assert (F.nodes.tolist(), F.weights.tolist()) == ([0.25], [1.0])


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


class TestFunctionalBatchIndex:
    NODES, WEIGHTS, SHAPES = [1.0, 2.0, 3.0, 4.0, 5.0], [1.0, 0.5, 0.5, 0.5, 0.5], ((1, 1), (2, 2))

    @pytest.mark.parametrize("order", [None, [2, 0, 1]], ids=["sequence", "ordered"])
    def test_index_outside_the_batch_refused(self, order):
        batch = make_functionals(self.NODES, self.WEIGHTS, self.SHAPES,
                                 None if order is None else np.array(order))
        for index in (-1, -3, 3, 10):
            with pytest.raises(IndexError, match=rf"index {index} .* batch of 3"):
                batch.functional(index)
        rows = [[1.0], [2.0, 3.0], [4.0, 5.0]]
        expected = rows if order is None else [rows[order.index(i)] for i in range(3)]
        assert [batch.functional(i).nodes.tolist() for i in range(3)] == expected


class TestBatchOrder:
    """make_functionals refuses an order that is not a permutation of the
    row indices before any work: [0, 0] used to make moments_batch report
    functional 0 for both rows and functional(1) fail inside numpy, and
    [0, 5] used to fail inside the moment sums."""

    # two 2-node rows, with means 0.5 and 0.575
    NODES, WEIGHTS, SHAPES = [0.25, 0.75, 0.4, 0.75], [0.5] * 4, ((2, 2),)

    @pytest.mark.parametrize("order", [
        [0, 0], [1, 1], [0, 5], [-1, 0], [0], [0, 1, 2], [[0, 1]], [0.0, 1.0],
    ])
    def test_order_that_is_not_a_permutation_refused(self, order):
        with pytest.raises(ValueError, match=re.escape("order must be a permutation of range(2)")):
            make_functionals(self.NODES, self.WEIGHTS, self.SHAPES, np.array(order))

    def test_order_refused_before_the_weights_are_read(self):
        with pytest.raises(ValueError, match="order must be a permutation"):
            make_functionals(self.NODES, [0.5, 0.5, 0.5, np.nan], self.SHAPES, [0, 0])

    def test_permutation_accepted(self):
        cubic = resolve_phi({"name": "cubic"})
        for order, means in (([0, 1], [0.5, 0.575]), ([1, 0], [0.575, 0.5])):
            batch = make_functionals(self.NODES, self.WEIGHTS, self.SHAPES, order)
            assert moments_batch(batch, cubic, 0.0, 1.0).mean.tolist() == means
            assert batch.functional(order[0]).nodes.tolist() == [0.25, 0.75]


class TestBatchSumMessages:
    """The row sums of a batch are checked in one comparison, with the
    message of the check_weights rule for the first row that fails."""

    ROWS = np.tile([0.25, 0.5, 0.25], (400, 1))

    def check(self, rows):
        make_functionals(np.zeros(rows.size), rows.ravel(), ((len(rows), 3),))

    def test_first_row_off_one_is_named(self):
        rows = self.ROWS.copy()
        rows[299] *= 1.0 + 1e-6
        rows[350] *= 1.0 + 2e-6
        expected = f"weights of functional must sum to 1 (got {float(rows[299].sum())!r})"
        with pytest.raises(ValueError, match=re.escape(expected)):
            self.check(rows)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_weight_wins(self, bad):
        rows = self.ROWS.copy()
        rows[299] *= 1.0 + 1e-6
        rows[350, 1] = bad
        with pytest.raises(ValueError, match="^non-finite weight in functional$"):
            self.check(rows)
