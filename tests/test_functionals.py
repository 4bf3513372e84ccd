import dataclasses
import math
import re
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elrbounds import apply, bounds, functionals, fuzzing, make_functional, moments
from elrbounds.divergences import ratio_functional
from elrbounds.functionals import check_weights, make_functionals, moments_batch
from elrbounds.registry import resolve_phi
from rows import row_blocks

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


class TestHandBuiltFunctional:
    """A DiscreteFunctional built by hand is refused, with make_functional's
    messages, unless it is already a probability functional; it is never
    renormalized, and a FunctionalBatch is not read as one functional."""

    NODES = np.array([0.5, 0.9])

    @pytest.mark.parametrize("nodes, weights, message", [
        (NODES, [1.5, 0.5], "weights of functional must sum to 1 (got a weight 1.5)"),
        (NODES, [-0.5, 1.5], "negative weight in functional"),
        (NODES, [0.5, 0.25], "weights of functional must sum to 1 (got 0.75)"),
        (NODES, [np.nan, 1.0], "non-finite weight in functional"),
        ([0.5, np.inf], [0.5, 0.5], "nodes must be finite"),
        (NODES, [1.0], "nodes and weights differ in length"),
        ([], [], "functional needs at least one node"),
    ], ids=["sum-two", "negative", "sum-short", "nan-weight", "inf-node",
            "lengths", "empty"])
    def test_refused_with_make_functional_messages(self, nodes, weights, message):
        for build in (make_functional, lambda x, w: functionals.DiscreteFunctional(
                np.array(x, dtype=float), np.array(w, dtype=float))):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                build(nodes, weights)

    @pytest.mark.parametrize("nodes, weights, label", [
        ([0.5, 0.9], np.array([0.5, 0.5]), "nodes"),
        (NODES, [0.5, 0.5], "weights"),
        (NODES[None], np.array([[0.5, 0.5]]), "nodes"),
        (NODES, np.array([True, False]), "weights"),
    ], ids=["list-nodes", "list-weights", "two-dimensional", "bool-weights"])
    def test_only_flat_numeric_arrays(self, nodes, weights, label):
        with pytest.raises(ValueError, match=f"^{label} must be a flat array of numbers$"):
            functionals.DiscreteFunctional(nodes, weights)

    def test_accepted_as_given(self):
        weights = np.array([0.5, 0.5 + 4e-10])
        F = functionals.DiscreteFunctional(self.NODES, weights)
        assert F.weights is weights and F.nodes is self.NODES

    def test_float32_fields_give_float64_moments(self):
        """The fields are stored as float64, so a float32 functional has
        the moments of its float64 copy, bit for bit: kept as float32, its
        cross moment was a float32 product while value and d_lo were not."""
        nodes = np.array([0.1, 0.37, 0.93], dtype=np.float32)
        weights = np.array([0.25, 0.5, 0.25], dtype=np.float32)
        single = functionals.DiscreteFunctional(nodes, weights)
        double = functionals.DiscreteFunctional(nodes.astype(float), weights.astype(float))
        assert single.nodes.dtype == single.weights.dtype == np.float64
        assert moments(single, CUBIC, 0.0, 1.0) == moments(double, CUBIC, 0.0, 1.0)

    def test_batch_is_not_one_functional(self):
        batch = make_functionals([0.5, 0.9, 0.2, 0.4], [0.5, 0.5, 0.25, 0.75], [2, 2])
        message = "^expected a DiscreteFunctional, got FunctionalBatch$"
        for run in (lambda: moments(batch, CUBIC, 0.0, 1.0),
                    lambda: functionals.moment_basis(batch, 0.0, 1.0),
                    lambda: apply(batch, lambda x: x),
                    lambda: bounds("derivative", batch, CUBIC, 0.0, 1.0)):
            with pytest.raises(ValueError, match=message):
                run()


class TestFunctionalBatchIndex:
    """functional(i) is row i of the batch, with the rows given in sequence
    or in another order, whose sizes are then not grouped."""

    ROWS = [[1.0], [2.0, 3.0], [4.0, 5.0]]

    def batch(self, order):
        rows = self.ROWS if order is None else [self.ROWS[i] for i in order]
        return make_functionals(sum(rows, []), [1.0 / len(row) for row in rows for _ in row],
                                [len(row) for row in rows])

    @pytest.mark.parametrize("order", [None, [2, 0, 1]], ids=["sequence", "ordered"])
    def test_index_outside_the_batch_refused(self, order):
        batch = self.batch(order)
        for index in (-1, -3, 3, 10):
            with pytest.raises(IndexError, match=rf"index {index} .* batch of 3"):
                batch.functional(index)
        expected = self.ROWS if order is None else [self.ROWS[i] for i in order]
        assert [batch.functional(i).nodes.tolist() for i in range(3)] == expected

    @pytest.mark.parametrize("order", [None, [2, 0, 1]], ids=["sequence", "ordered"])
    @pytest.mark.parametrize("index", [True, False, 1.0, 0.5, np.float64(1.0), "1", None],
                             ids=repr)
    def test_index_that_is_not_an_integer_refused(self, order, index):
        """A bool used to index the node blocks as a mask (True gave nodes
        of shape (1, 2, 2), False an empty block) and a float failed inside
        numpy: each is refused, naming the index."""
        batch = self.batch(order)
        with pytest.raises(TypeError, match=rf"^index {re.escape(repr(index))} is not an integer$"):
            batch.functional(index)

    @pytest.mark.parametrize("order", [None, [2, 0, 1]], ids=["sequence", "ordered"])
    def test_numpy_integer_index_accepted(self, order):
        batch = self.batch(order)
        for kind in (np.int64, np.int32, np.uint8):
            assert ([batch.functional(kind(i)).nodes.tolist() for i in range(3)]
                    == [batch.functional(i).nodes.tolist() for i in range(3)])


class TestBatchOrder:
    """A batch keeps its rows in the order given, and moments_batch reports
    them in that order."""

    # two 2-node rows, with means 0.5 and 0.575
    NODES, WEIGHTS = [0.25, 0.75, 0.4, 0.75], [0.5] * 4

    def test_permutation_accepted(self):
        cubic = resolve_phi({"name": "cubic"})
        for order, means in (([0, 1], [0.5, 0.575]), ([1, 0], [0.575, 0.5])):
            nodes = [self.NODES[2 * row + i] for row in order for i in range(2)]
            batch = make_functionals(nodes, self.WEIGHTS, [2, 2])
            assert moments_batch(batch, cubic, 0.0, 1.0).mean.tolist() == means
            assert batch.functional(order.index(0)).nodes.tolist() == [0.25, 0.75]


class TestUngroupedRows:
    """Rows of a batch need not be grouped by size: moments_batch reduces
    each run of neighbouring rows of equal size with one stacked product
    and gives every row the bits of its own functional's moments."""

    SIZES = [3, 1, 3, 3, 2, 1]

    @pytest.mark.parametrize("name", ["cubic", "exp", "spline"])
    def test_every_field_is_the_scalar_moments(self, name):
        rng = np.random.default_rng(41)
        m, M = -1.5, 2.0
        bundle = fuzzing.draw_bundle(rng, name, m, M)
        for sizes in [self.SIZES] + [rng.permutation(self.SIZES * 4).tolist() for _ in range(19)]:
            nodes = rng.uniform(m, M, sum(sizes))
            nodes[:2] = m, M  # an end node in the first row
            weights = rng.uniform(0.0, 1.0, sum(sizes)) + 1e-12
            weights /= np.repeat(np.add.reduceat(weights, np.cumsum(sizes) - sizes), sizes)
            batch = make_functionals(nodes, weights, sizes)
            ms = moments_batch(batch, bundle, m, M)
            for i in range(len(batch)):
                scalar = moments(batch.functional(i), bundle, m, M)
                for field in vars(scalar):
                    assert getattr(ms, field)[i].tobytes() == \
                        np.float64(getattr(scalar, field)).tobytes(), (i, field)


class TestBatchSizes:
    """make_functionals refuses a row size that is not an integer >= 1
    (``_is_number``: a bool or a float is refused) before any work, naming
    the first such size, and sizes whose total is not the arrays' length."""

    RULE = "each row size must be an integer >= 1, got "

    @pytest.mark.parametrize("sizes, bad", [
        ([0, 1], "0"),
        ([-1, 2], "-1"),
        ([2.0], "2.0"),
        ([True, 1], "True"),
        (["2"], "'2'"),
        ([1, None], "None"),
        ([1, np.int64(-2)], "np.int64(-2)"),
        ([(1, 2)], "(1, 2)"),
        (np.array([2.0]), "np.float64(2.0)"),
    ], ids=["zero", "negative", "float", "bool", "string", "none", "numpy-negative",
            "shape-pair", "float-array"])
    def test_message(self, sizes, bad):
        with pytest.raises(ValueError) as info:
            make_functionals(np.full(2, 0.5), np.full(2, 0.5), sizes)
        assert str(info.value) == self.RULE + bad

    def test_first_bad_size_named_before_the_total_and_weights(self):
        with pytest.raises(ValueError) as info:
            make_functionals([0.5] * 7, [np.nan] * 7, [2, 0, -1])
        assert str(info.value) == self.RULE + "0"

    @pytest.mark.parametrize("sizes", [[2], [2, 2], [1, 1, 1, 1], []])
    def test_total_that_misses_the_arrays(self, sizes):
        with pytest.raises(ValueError, match="^nodes, weights and row sizes differ in size$"):
            make_functionals([0.25, 0.75, 0.5], [0.5, 0.5, 1.0], sizes)

    def test_numpy_integers_accepted(self):
        sizes = (np.int64(2), np.int32(2), np.uint8(1))
        batch = make_functionals([0.25, 0.75, 0.4, 0.75, 0.5], [0.5] * 4 + [1.0], sizes)
        assert len(batch) == 3
        assert batch.sizes.tolist() == [2, 2, 1]
        assert moments_batch(batch, CUBIC, 0.0, 1.0).mean.tolist() == [0.5, 0.575, 0.5]


class TestHandBuiltBatch:
    """A FunctionalBatch built by hand, or by dataclasses.replace, is refused
    with make_functionals' messages unless each row already is a
    functional; it is never renormalized.  Without the check a negative
    weight reached moments_batch, and functional(0) handed out a
    DiscreteFunctional with weights [2, -1]; and a nan node was refused
    only by the moment pass."""

    # rows [0.5, 0.6] and [0.7]
    NODES, WEIGHTS, SIZES = np.array([0.5, 0.6, 0.7]), np.array([0.25, 0.75, 1.0]), [2, 1]

    @pytest.mark.parametrize("fields, message", [
        (dict(weights=np.array([2.0, -1.0, 5.0])), "negative weight in functional"),
        (dict(weights=np.array([0.25, 0.75, 5.0])),
         "weights of functional must sum to 1 (got a weight 5.0)"),
        (dict(weights=np.array([0.25, 0.5, 1.0])), "weights of functional must sum to 1 (got 0.75)"),
        (dict(weights=np.array([0.25, np.nan, 1.0])), "non-finite weight in functional"),
        (dict(nodes=np.array([0.5, np.nan, 0.7])), "nodes must be finite"),
        (dict(sizes=[2, 0]), "each row size must be an integer >= 1, got 0"),
        (dict(sizes=[2]), "nodes, weights and row sizes differ in size"),
        (dict(nodes=np.array([0.5, 0.6])), "nodes, weights and row sizes differ in size"),
        (dict(nodes=np.array([]), weights=np.array([]), sizes=[]), "functional has no weights"),
        (dict(nodes=[0.5, 0.6, 0.7]), "nodes must be a flat array of numbers"),
        (dict(weights=np.array([[0.25, 0.75, 1.0]])), "weights must be a flat array of numbers"),
        (dict(weights=np.array([True, True, True])), "weights must be a flat array of numbers"),
    ], ids=["negative", "weight-above-one", "sum-short", "nan-weight", "nan-node",
            "empty-block", "short-sizes", "short-nodes", "empty",
            "list-nodes", "two-dimensional", "bool-weights"])
    def test_refused_with_make_functionals_messages(self, fields, message):
        given = dict(nodes=self.NODES, weights=self.WEIGHTS, sizes=self.SIZES)
        given.update(fields)
        builds = [lambda: functionals.FunctionalBatch(**given),
                  lambda: dataclasses.replace(make_functionals(self.NODES, self.WEIGHTS,
                                                               self.SIZES), **fields)]
        if "flat array" not in message:
            builds.append(lambda: make_functionals(**given))
        for build in builds:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                build()

    def test_accepted_as_given(self):
        """Nothing is renormalized and float64 arrays are kept: a row
        summing to 1 + 4e-10 stays so, as DiscreteFunctional keeps one."""
        weights = np.array([1.0, 0.5, 0.5 + 4e-10])
        nodes = self.NODES[[2, 0, 1]]
        batch = functionals.FunctionalBatch(nodes, weights, [1, 2])
        assert batch.nodes is nodes and batch.weights is weights
        assert batch.sizes.tolist() == [1, 2]
        assert batch.functional(1).weights.tobytes() == weights[1:].tobytes()
        assert moments_batch(batch, CUBIC, 0.0, 1.0).mean.tolist() == [
            0.7, float(weights[1:] @ nodes[1:])]

    def test_numeric_arrays_stored_as_float64(self):
        batch = functionals.FunctionalBatch(self.NODES.astype(np.float32),
                                            np.array([1, 0, 1]), self.SIZES)
        assert batch.nodes.dtype == batch.weights.dtype == np.float64
        assert batch.weights.tolist() == [1.0, 0.0, 1.0]
        assert batch.sizes.tolist() == [2, 1]

    def test_builders_skip_the_check(self, monkeypatch):
        """make_functionals checks its fields once, and random_functionals
        lands its draw without a check: neither runs __post_init__."""
        def checked(self):
            raise AssertionError("a built batch was checked again")

        monkeypatch.setattr(functionals.FunctionalBatch, "__post_init__", checked)
        make_functionals(self.NODES, self.WEIGHTS, self.SIZES)
        fuzzing.random_functionals(np.random.default_rng(1), 0.0, 1.0, 50)


class TestWeightSums:
    """functionals._weight_sums, one zero-led np.add.reduceat over the
    whole batch, holds numpy's per-block ``sum(axis=1)`` (the oracle below)
    bit for bit.  The row lengths cover numpy's pairwise summation below 8
    entries, its 8-accumulator range up to 128 and its recursive halves
    above; a numpy that sums otherwise fails here."""

    @staticmethod
    def assert_block_sums(weights, sizes):
        expected = np.concatenate([block.sum(axis=1) for block in row_blocks(weights, sizes)])
        got = functionals._weight_sums(weights, np.array(sizes))
        assert got.view(np.int64).tolist() == expected.view(np.int64).tolist()

    @pytest.mark.parametrize("spread", [0, 4, 300])
    def test_every_row_length_to_300(self, spread):
        """Mixed signs, with exponents spread over +-spread decades."""
        rng = np.random.default_rng(spread)
        sizes = [k for k in range(1, 301) for _ in range(int(rng.integers(1, 8)))]
        size = sum(sizes)
        weights = rng.uniform(-1.0, 1.0, size) * 10.0 ** rng.uniform(-spread, spread, size)
        self.assert_block_sums(weights, sizes)
        for k in range(1, 301, 37):
            count = sizes.count(k)
            self.assert_block_sums(weights[:count * k], [k] * count)

    def test_negative_zero_and_nan_rows(self):
        sizes = [3] * 2 + [5] + [130] * 3 + [1]
        weights = np.full(2 * 3 + 5 + 3 * 130 + 1, -0.0)
        self.assert_block_sums(weights, sizes)
        assert functionals._weight_sums(weights, np.array(sizes)).view(
            np.int64).tolist() == [0] * 7
        weights[8] = np.nan
        weights[6 + 5 + 200] = 0.25
        weights[-1] = -np.nan
        self.assert_block_sums(weights, sizes)

    def test_fuzz_batches(self):
        rng = np.random.default_rng(33)
        for count in rng.integers(1, 401, 1000).tolist():
            _, weights, sizes, _ = fuzzing._draw(rng, -1.0, 2.0, count)
            self.assert_block_sums(weights, sizes)


class TestBatchSumMessages:
    """The row sums of a batch are checked in one comparison, with the
    message of the check_weights rule for the first row that fails."""

    ROWS = np.tile([0.25, 0.5, 0.25], (400, 1))

    def check(self, rows):
        make_functionals(np.zeros(rows.size), rows.ravel(), [3] * len(rows))

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


class TestEntryRulePrecedence:
    """The entrywise weight rule refuses the first broken rule in a fixed
    order, negative before non-finite before a sum off 1, with the same
    message through every entry point."""

    CASES = [
        ([np.nan, -1.0], "negative weight in {}"),
        ([np.nan, 2.0], "non-finite weight in {}"),
        ([np.nan], "non-finite weight in {}"),
        ([-np.inf], "negative weight in {}"),
        ([np.inf, 0.0], "non-finite weight in {}"),
        ([0.5, 0.5 + 2e-9], "weights of {} must sum to 1 (got 1.0000000020000002)"),
        ([2.0, 0.0], "weights of {} must sum to 1 (got a weight 2.0)"),
    ]
    ENTRY_POINTS = {
        "check_weights": ("weights", check_weights),
        "make_functional": ("functional", lambda w: make_functional([0.5] * len(w), w)),
        "make_functionals": ("functional", lambda w: make_functionals(
            np.full(len(w), 0.5), np.array(w), [len(w)])),
    }

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize("weights,message", CASES,
                             ids=[repr(w) for w, _ in CASES])
    def test_message(self, entry, weights, message):
        label, call = self.ENTRY_POINTS[entry]
        with pytest.raises(ValueError, match=f"^{re.escape(message.format(label))}$"):
            call(weights)


def loop_landed(row):
    """The row landed by the fsum loop (functionals._land_rows)."""
    row = np.array(row, dtype=float)
    functionals._land_rows(row, [(0, row.size)])
    return row


def loop_adjustments(row):
    """How many adjustments the fsum loop makes on the row."""
    row, count = np.array(row, dtype=float), 0
    while count < 4 and math.fsum(row) != 1.0:
        row[row.argmax()] -= math.fsum(row) - 1.0
        count += 1
    return count


def divided(weights):
    weights = np.asarray(weights, dtype=float)
    return weights / weights.sum()


class TestLongRowLanding:
    """A row of at least LIMB_LANDING_ENTRIES entries, landed on its own
    (make_functional, ratio_functional), lands on its exact limb total
    (functionals._land_held), held here to the fsum loop bit for bit."""

    N = functionals.LIMB_LANDING_ENTRIES

    def assert_lands_as_the_loop(self, row):
        landed = np.array(row, dtype=float)
        assert functionals._land_held(landed)
        assert landed.tobytes() == loop_landed(row).tobytes()
        return landed

    def rows_by_adjustments(self, rng):
        """Held rows of N entries grouped by the adjustments the loop makes:
        divided rows need 0 to 2; rows with a tied largest weight whose sum
        lies in [1.5, 2) reach 3."""
        found = {}
        while len(found) < 3:
            row = divided(rng.random(self.N))
            found.setdefault(loop_adjustments(row), row)
        while 3 not in found:
            row = rng.random(self.N)
            row[rng.random(self.N) < 4 / self.N] = row.max()
            row *= rng.uniform(1.5, 2.0) / row.sum()
            if math.fsum(row) < 2.0:
                found.setdefault(loop_adjustments(row), row)
        return found

    def test_rows_needing_zero_to_three_adjustments(self):
        found = self.rows_by_adjustments(np.random.default_rng(22))
        assert sorted(found) == [0, 1, 2, 3]
        for row in found.values():
            self.assert_lands_as_the_loop(row)

    def test_row_the_loop_leaves_after_four_adjustments(self):
        """No nonnegative row with a sum below 2 was seen to need a fourth
        adjustment (about three million random rows); a weight below 0,
        which no checked row holds, builds one: the largest weight is 1
        while the total lies just below 1, so each adjustment rounds back."""
        row = np.zeros(self.N)
        row[:2] = 1.0, -(2.0**-54 + 2.0**-70)
        assert loop_adjustments(row) == 4
        assert math.fsum(self.assert_lands_as_the_loop(row)) != 1.0

    def test_tied_first_largest_weight(self):
        """Adjustments land at the first of the tied largest weights, and
        at the next one when the first drops below it, as argmax picks."""
        rng = np.random.default_rng(23)
        moved = Counter()
        for _ in range(60):
            row = rng.random(self.N + int(rng.integers(0, 600)))
            row[rng.choice(row.size, 3, replace=False)] = row.max()
            row = divided(row)
            tied = np.flatnonzero(row == row.max())
            changed = np.flatnonzero(self.assert_lands_as_the_loop(row) != row)
            assert set(changed) <= set(tied)
            moved[changed.size] += 1
        assert moved[1] > 3 and moved[2] > 3

    @pytest.mark.parametrize("size, held", [(N - 1, False), (N, True)],
                             ids=["below", "at"])
    def test_break_even_chooses_the_path(self, monkeypatch, size, held):
        rng = np.random.default_rng(24)
        calls = []
        land_held = functionals._land_held
        monkeypatch.setattr(functionals, "_land_held",
                            lambda row: calls.append(row.size) or land_held(row))
        for _ in range(20):
            weights = divided(rng.random(size))
            landed = make_functional(np.zeros(size), weights).weights
            assert landed.tobytes() == loop_landed(divided(weights)).tobytes()
        assert calls == ([size] * 20 if held else [])

    def test_row_with_a_bit_below_the_limbs_falls_back(self):
        rng = np.random.default_rng(25)
        weights = rng.random(2 * self.N)
        weights[7] = 2.0**-110
        weights = divided(weights)
        row = divided(weights)
        assert not functionals._limbs(row)[1].all()
        untouched = row.copy()
        assert not functionals._land_held(untouched)
        assert untouched.tobytes() == row.tobytes()
        landed = make_functional(np.zeros(row.size), weights).weights
        assert landed.tobytes() == loop_landed(row).tobytes()

    def test_landed_rows_sum_to_one(self):
        rng = np.random.default_rng(26)
        for _ in range(50):
            size = int(10.0 ** rng.uniform(np.log10(self.N), 4.5))
            weights = (np.arange(1.0, size + 1) + rng.uniform(0, 5)) ** -rng.uniform(0.2, 3)
            landed = make_functional(np.zeros(size), weights / weights.sum()).weights
            assert math.fsum(landed) == 1.0

    def test_exact_total_rounds_as_fsum(self):
        """fsum of held random rows, from their limb totals as Python ints,
        on sums across [0.5, 2), half of them with one more entry that puts
        the exact total on a tie between two doubles, or 2**-104 off it."""
        rng = np.random.default_rng(27)
        ties = 0
        for _ in range(200):
            row = rng.random(int(rng.integers(1, 1000)))
            row *= rng.uniform(0.5, 1.99) / row.sum()
            if rng.random() < 0.5:
                total = sum(map(Fraction, row.tolist()))
                near = float(total)
                tie = Fraction(near) + Fraction(math.ulp(near)) / 2
                off = Fraction(int(rng.integers(-1, 2)), 2**104)
                row = np.append(row, float(tie - total + off))
                ties += 1
            limbs, held = functionals._limbs(row)
            assert held.all() and math.fsum(row) < 2.0
            assert functionals._limb_sums(limbs.sum(axis=1).tolist()) == math.fsum(row)
        assert ties > 50


class TestOneRowPath:
    """make_functional checks and lands its one row itself: its nodes and
    weights are those of make_functionals' batch of one, bit for bit."""

    @staticmethod
    def assert_is_the_batch_of_one(nodes, weights):
        F = make_functional(nodes, weights)
        batch = make_functionals(nodes, weights, [len(weights)])
        assert F.nodes.tobytes() == batch.nodes.tobytes()
        assert F.weights.tobytes() == batch.weights.tobytes()
        assert not (F.nodes.flags.writeable or F.weights.flags.writeable)

    def test_random_rows(self):
        """Rows of 1 to 3000 entries on both sides of the limb break-even,
        uniform and Zipf-like (whose tails hold bits below the limbs), in
        lists, arrays and strided views; a divided row needs at most two
        adjustments (none of 1.75 million random rows needed three)."""
        rng = np.random.default_rng(250)
        sizes = [1, 2, 511, 512, 513, 3000, *rng.integers(1, 3001, 80).tolist()]
        adjustments = Counter()
        for size in sizes:
            if rng.random() < 0.5:
                raw = rng.random(size) ** rng.uniform(1.0, 4.0)
            else:
                raw = (np.arange(1.0, size + 1) + rng.uniform(0, 5)) ** -rng.uniform(0.2, 3)
            weights = divided(raw)
            adjustments[loop_adjustments(divided(weights))] += 1
            nodes = rng.uniform(-5.0, 5.0, 2 * size)
            self.assert_is_the_batch_of_one(nodes[::2], weights)
            self.assert_is_the_batch_of_one(nodes[:size].tolist(), weights.tolist())
        assert adjustments[0] and adjustments[1] and adjustments[2]

    @pytest.mark.parametrize("size", [40, functionals.LIMB_LANDING_ENTRIES],
                             ids=["loop", "limbs"])
    def test_row_needing_three_adjustments(self, size):
        """The one-row landing (functionals._land_row) on rows the loop
        adjusts three times: a tied largest weight and a sum in [1.5, 2),
        which no checked row has, so the row is landed with a total of 1."""
        rng = np.random.default_rng(251)
        while True:
            row = rng.random(size)
            row[rng.random(size) < 4 / size] = row.max()
            row *= rng.uniform(1.5, 2.0) / row.sum()
            if math.fsum(row) < 2.0 and loop_adjustments(row) == 3:
                break
        landed = row.copy()
        functionals._land_row(landed, 1.0)
        assert landed.tobytes() == loop_landed(row).tobytes()


class TestOneCheckPerConstruction:
    """The weight rule runs once per vector per construction: its one home,
    _check_entries, is called once for each vector a builder takes in, and
    never for a batch's row, which make_functionals has checked."""

    @pytest.fixture
    def labels(self, monkeypatch):
        labels = []
        check = functionals._check_entries
        monkeypatch.setattr(functionals, "_check_entries",
                            lambda weights, label: labels.append(label) or check(weights, label))
        return labels

    def test_make_functional(self, labels):
        make_functional([0.2, 0.5, 0.9], [0.25, 0.5, 0.25])
        assert labels == ["functional"]

    def test_ratio_functional(self, labels):
        ratio_functional([0.2, 0.3, 0.5], [0.4, 0.4, 0.2])
        assert labels == ["p", "q"]

    def test_batch_row(self, labels):
        batch = make_functionals([0.5, 0.9, 0.2, 0.4], [0.5, 0.5, 0.25, 0.75], [2, 2])
        labels.clear()
        assert batch.functional(1).weights.tolist() == [0.25, 0.75]
        assert labels == []

    def test_hand_built(self, labels):
        functionals.DiscreteFunctional(np.array([0.5, 0.9]), np.array([0.5, 0.5]))
        assert labels == ["functional"]
