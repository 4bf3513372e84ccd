import itertools
import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from elrbounds import (
    GammaContext,
    GammaCurve,
    bounds,
    cauchy_xi,
    cubic_reference,
    divergence_context,
    elr_context,
    exp_convexity_check,
    gamma,
    generator,
    lyapunov_check,
    make_functional,
    mean_B1,
    mvt_xi,
    stolarsky_quotient,
    upsilon1,
    upsilon2,
)
import elrbounds.elr_bounds as elr_bounds
import elrbounds.functionals as functionals
from elrbounds import stolarsky_means
from elrbounds.cli import main as cli_main
from elrbounds.divided_diff import FunctionBundle, bundle_from_callables, linear_combination
from elrbounds.elr_bounds import theorem_triple
from elrbounds.expconv import THEOREM_BY_INDEX
from elrbounds.registry import poly_bundle, resolve_phi

from counting import counted, counting_bundle

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
        r = bounds("secant", make_functional([0.5], [1.0]), CUBIC, 0.0, 1.0)
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

    @pytest.mark.parametrize("index", [True, False, "1", 1.5])
    def test_index_that_is_no_number_refused(self, index):
        F = make_functional([0.5], [1.0])
        for build in (lambda: elr_context(index, F, 0.0, 1.0),
                      lambda: divergence_context(index, [0.4, 0.6], [0.5, 0.5]),
                      lambda: GammaContext(index=index, functional=F, m=0.0, M=1.0)):
            with pytest.raises(ValueError, match="^functional index must be in 1..10$"):
                build()

    def test_numpy_index_accepted(self):
        ctx = elr_context(np.int64(2), make_functional([0.5], [1.0]), 0.0, 1.0)
        assert gamma(ctx, CUBIC) == gamma(worked_ctx(2), CUBIC)

    @pytest.mark.parametrize("index", range(12))
    def test_context_messages_by_index(self, index):
        """Each constructor refuses an index out of 1..10 first, then an
        index of the other kind, then an empty interval."""
        F = make_functional([0.5], [1.0])
        builds = {"elr": (lambda: elr_context(index, F, 0.0, 1.0), range(1, 7)),
                  "divergence": (lambda: divergence_context(
                      index, [0.4, 0.6], [0.5, 0.5]), range(7, 11))}
        for kind, (build, own) in builds.items():
            if index in own:
                assert build().index == index
                continue
            if index in (0, 11):
                expected = "functional index must be in 1..10"
            else:
                other = "a divergence" if kind == "elr" else "an elr"
                expected = f"index {index} requires {other} context, got {kind!r}"
            with pytest.raises(ValueError) as info:
                build()
            assert str(info.value) == expected
        if index in range(1, 7):
            with pytest.raises(ValueError, match="^degenerate interval"):
                elr_context(index, F, 1.0, 1.0)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_moments_name_the_interval(self):
        """On this pair the interval is [0.5, 5e299] and sq_lo and sq_hi
        overflow: the taylor indices refuse for the interval, and the
        derivative indices, which read neither, keep their values."""
        kl, u1 = generator("kl").bundle, upsilon1(0.5).bundle
        expected = {7: (-172.19388197455345, 0.47140452079103173),
                    8: (-1.721938819745534e+302, 4.714045207910317e+299)}
        for index in (7, 8, 9, 10):
            ctx = divergence_context(index, [0.5, 0.5], [1e-300, 1.0])
            for bundle in (kl, u1):
                if index in expected:
                    assert gamma(ctx, bundle) == expected[index][bundle is u1]
                    continue
                with pytest.raises(ValueError, match=re.escape(
                        f"interval [0.5, {ctx.M}] is too wide: the moments "
                        "of the functional on it overflow")):
                    gamma(ctx, bundle)
                assert bundle not in ctx._gammas

    def test_value_that_is_not_finite_refused(self):
        """upsilon1(0.5) has an infinite slope at 0, so secant's lower
        bound on [0, 1] is -inf while every moment is finite."""
        ctx = elr_context(1, make_functional([0.25, 0.5], [0.5, 0.5]), 0.0, 1.0)
        with pytest.raises(ValueError, match=re.escape(
                "Gamma_1 of 'upsilon1[0.5]' is not finite: inf")):
            gamma(ctx, upsilon1(0.5).bundle)

    @pytest.mark.filterwarnings("error")
    def test_interval_outside_the_domain_refused_before_any_read(self):
        """On an elr context over [-1, 2] Gamma, both mean-value points and
        mean_B1 refuse kl's t*log(t) and the counted bundle on [0, 3]
        before reading them, and mean_B1 its upsilon1 members, which would
        warn on x^s at -1 or at the node -0.5."""
        calls = []
        bundles = (counted(generator("kl").bundle, calls, arrays=True),
                   counting_bundle(calls, arrays=True))
        for nodes in ([0.5, 1.0], [-0.5, 1.0]):
            F = make_functional(nodes, [0.5, 0.5])
            for index in range(1, 7):
                ctx = elr_context(index, F, -1.0, 2.0)
                for bundle in bundles:
                    message = re.escape(f"interval [-1.0, 2.0] escapes the domain "
                                        f"of {bundle.name!r}")
                    for run in (lambda: gamma(ctx, bundle),
                                lambda: mvt_xi(ctx, bundle),
                                lambda: cauchy_xi(ctx, bundle, cubic_reference()),
                                lambda: cauchy_xi(ctx, cubic_reference(), bundle)):
                        with pytest.raises(ValueError, match=message):
                            run()
                    assert bundle not in ctx._gammas
                for s, t, first in ((0.5, 1.5, 1.5), (0.5, 0.5, 0.5)):
                    with pytest.raises(ValueError, match=re.escape(
                            "interval [-1.0, 2.0] escapes the domain of "
                            f"'upsilon1[{first}]'")):
                        mean_B1(ctx, s, t)
        assert calls == []

    def test_divergence_context_rejects_ratio_outside_interval(self):
        # ratios are 0.8 and 1.2; the message prints a plain float
        with pytest.raises(ValueError, match=r"ratio outside \[m, M\]: 0\.8$"):
            divergence_context(7, [0.4, 0.6], [0.5, 0.5], m=0.9, M=1.3)


def _full_pass_gamma(ctx, bundle):
    """Gamma from the one-shot moment pass: theorem_triple on the
    ``moments`` of the context's functional."""
    ms = functionals.moments(ctx.functional, bundle, ctx.m, ctx.M)
    lower, mid, upper = theorem_triple(THEOREM_BY_INDEX[ctx.index], ms, bundle,
                                       ctx.m, ctx.M)
    return mid - lower if ctx.index % 2 == 1 else upper - mid


def _outcome(compute):
    try:
        return np.float64(compute()).tobytes()
    except ValueError as exc:
        return f"ValueError: {exc}"


def _criterion_7_contexts(count):
    """The contexts and member bundles of criterion 7's first draws, each
    context at every index of its kind."""
    rng = np.random.default_rng(88)
    for _ in range(count):
        if rng.random() < 0.8:
            m = float(rng.uniform(0.1, 1.2))
            M = m + float(rng.uniform(0.4, 2.0))
            k = int(rng.integers(2, 10))
            width = M - m
            nodes = rng.uniform(m + 0.05 * width, M - 0.05 * width, k)
            w = rng.uniform(0.2, 1.0, k)
            rng.integers(1, 7)  # the draw's index; all six are checked
            F = make_functional(nodes, w / w.sum())
            contexts = [elr_context(i, F, m, M) for i in range(1, 7)]
        else:
            k = int(rng.integers(3, 8))
            p = rng.dirichlet(np.ones(k) * 3.0)
            q = rng.dirichlet(np.ones(k) * 3.0)
            rng.integers(7, 11)  # the draw's index; all four are checked
            contexts = [divergence_context(i, p, q) for i in range(7, 11)]
        s, t = (float(v) for v in rng.uniform(-2.0, 5.0, 2))
        family = upsilon1 if rng.random() < 0.5 else upsilon2
        yield contexts, (family(s).bundle, family(t).bundle)


def _counting_d1(calls):
    """x^4/24 whose d1 records the size of each evaluation at an array of
    nodes."""
    def d1(x):
        if np.ndim(x):
            calls.append(np.size(x))
        return x ** 3 / 6.0

    return bundle_from_callables(lambda x: x ** 4 / 24.0, d1, lambda x: 0.5 * x ** 2,
                                 lambda x: x, name="counted")


class TestMomentBasis:
    """A context computes the bundle-free moments once, and each Gamma only
    the rows its theorem reads, with the bits of the one-shot pass."""

    def test_bit_identical_on_criterion_7_draws(self):
        checked = 0
        for contexts, bundles in _criterion_7_contexts(2000):
            for ctx in contexts:
                for bundle in bundles:
                    assert (_outcome(lambda: gamma(ctx, bundle))
                            == _outcome(lambda: _full_pass_gamma(ctx, bundle))), \
                        (ctx.index, bundle.name)
                    checked += 1
        assert checked > 20_000

    def test_bit_identical_on_other_bundles(self):
        member = upsilon1(3.7).bundle
        bundles = [
            stolarsky_means._u1_log_product(3.7), stolarsky_means._fixed("upsilon1[0]^2"),
            stolarsky_means._fixed("upsilon1[0]*upsilon1[1]"),
            stolarsky_means._fixed("upsilon1[0]*upsilon1[2]"),
            stolarsky_means._fixed("x*upsilon2[0]"), stolarsky_means._u2_id_product(1.3),
            stolarsky_means._u2_id_product(0.01),
            poly_bundle([0.5, -1.0, 0.0, 2.0, 1.0]), stolarsky_means.cubic_reference(),
            member.negated(), upsilon2(-0.7).bundle.negated(),
            bundle_from_callables(math.exp, math.exp, math.exp, math.exp, name="scalar exp"),
            bundle_from_callables(lambda x: x ** 5, lambda x: 5.0 * x ** 4,
                                  lambda x: 20.0 * x ** 3, lambda x: 60.0 * x ** 2,
                                  lo=0.0, hi=10.0),
        ]
        for contexts, _ in _criterion_7_contexts(60):
            for ctx in contexts:
                for bundle in bundles:
                    assert (_outcome(lambda: gamma(ctx, bundle))
                            == _outcome(lambda: _full_pass_gamma(ctx, bundle))), \
                        (ctx.index, bundle.name)
        # nodes on the interval ends take phi' one-sided
        F = make_functional([0.0, 0.4, 1.0], [0.25, 0.5, 0.25])
        for index in range(1, 7):
            for bundle in bundles[7:9] + bundles[11:]:
                ctx = elr_context(index, F, 0.0, 1.0)
                assert (_outcome(lambda: gamma(ctx, bundle))
                        == _outcome(lambda: _full_pass_gamma(ctx, bundle))), index

    def test_bundle_free_rows_reduced_once_per_context(self, monkeypatch):
        writes, one_shot = [], []
        basis_rows = functionals._basis_rows
        monkeypatch.setattr(functionals, "_basis_rows",
                            lambda *args: writes.append(1) or basis_rows(*args))
        monkeypatch.setattr(elr_bounds, "moments",
                            lambda *args, **kw: one_shot.append(1))
        for index in (1, 3, 5):
            writes.clear()
            ctx = elr_context(index, make_functional([0.5, 1.2, 1.6], [0.3, 0.3, 0.4]),
                              0.2, 2.0)
            assert writes == []
            for t in (-1.5, 0.0, 0.7, 2.0, 3.3):
                gamma(ctx, upsilon1(t).bundle)
                gamma(ctx, upsilon2(t).bundle)
            assert len(writes) == 1
            fresh = replace(ctx)
            assert gamma(fresh, CUBIC) == gamma(ctx, CUBIC)
            gamma(fresh, QUARTIC)
            assert len(writes) == 2
        assert one_shot == []

    def test_derivative_at_the_nodes_only_for_the_derivative_pair(self):
        contexts = [elr_context(i, make_functional([0.3, 0.6, 0.9], [0.2, 0.5, 0.3]),
                                0.1, 1.2) for i in range(1, 7)]
        contexts += [divergence_context(i, [0.2, 0.5, 0.3], [0.4, 0.3, 0.3])
                     for i in range(7, 11)]
        for ctx in contexts:
            calls = []
            gamma(ctx, _counting_d1(calls))
            # one evaluation at the interior nodes (a ratio node may sit
            # on an interval end, where phi' is the stored one-sided value)
            assert len(calls) == (ctx.index in (3, 4, 7, 8)), ctx.index

    def test_errors_at_the_first_gamma_with_the_one_shot_text(self):
        escaping = make_functional([0.5, 1.5], [0.5, 0.5])
        pole = bundle_from_callables(lambda x: 1.0 / (x - 0.5), name="pole")
        no_d1 = FunctionBundle(domain_lo=0.0, domain_hi=1.0, f=lambda x: x ** 3,
                               d2=lambda x: 6.0 * x, d1_plus_at_lo=0.0,
                               d1_minus_at_hi=3.0, name="cube without d1")
        inside = make_functional([0.25, 0.5], [0.5, 0.5])
        cases = [(escaping, CUBIC, range(1, 7), r"node escapes interval \[0\.0, 1\.0\]: 1\.5"),
                 (inside, pole, range(1, 7), r"not finite at node 0\.5"),
                 (inside, no_d1, (3, 4), r"first derivative moment of 'cube without d1'")]
        for functional, bundle, indices, message in cases:
            for index in indices:
                ctx = elr_context(index, functional, 0.0, 1.0)
                for _ in range(2):
                    with pytest.raises(ValueError, match=message) as got:
                        gamma(ctx, bundle)
                    with pytest.raises(ValueError) as want:
                        _full_pass_gamma(ctx, bundle)
                    assert str(got.value) == str(want.value)
        # the secant and taylor pairs never read phi' at the nodes
        for index in (1, 2, 5, 6):
            ctx = elr_context(index, inside, 0.0, 1.0)
            assert gamma(ctx, no_d1) == _full_pass_gamma(ctx, no_d1)

    def test_means_positive_interval_message_comes_first(self, capsys):
        payload = {"functional": {"nodes": [5.0], "weights": [1.0]},
                   "interval": [-1.0, 1.0], "gamma_index": 1,
                   "phi": {"name": "upsilon1"}, "params": {"s": 4, "t": 3}}
        assert cli_main(["means", "--input", json.dumps(payload)]) == 1
        assert "positive half line" in capsys.readouterr().err


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

    def test_sampled_subsets_when_more_than_200(self):
        """C(12, 4) = 495 subsets: 200 are drawn from default_rng(0), so a
        check repeats, and their least eigenvalue is one of all 495."""
        ctx = elr_context(1, make_functional([0.4, 1.1], [0.5, 0.5]), 0.2, 1.5)
        curve = GammaCurve(ctx, lambda t: upsilon2(t).bundle, np.linspace(-2.0, 2.0, 12))
        result = exp_convexity_check(curve, 4)
        assert result.passed and result.subsets_checked == 200
        assert result == exp_convexity_check(curve, 4)

        def least_eigenvalue(subset):
            gram = [[curve.value(0.5 * (a + b)) for b in subset] for a in subset]
            return float(np.linalg.eigvalsh(gram)[0])

        rng = np.random.default_rng(0)
        drawn = [curve.t_grid[sorted(rng.choice(12, size=4, replace=False))]
                 for _ in range(200)]
        assert result.min_eigenvalue == min(map(least_eigenvalue, drawn))
        least = min(map(least_eigenvalue, itertools.combinations(curve.t_grid, 4)))
        assert least <= result.min_eigenvalue

    def test_grid_too_small_rejected(self):
        curve = GammaCurve(WORKED, lambda t: upsilon1(t).bundle, np.array([3.0]))
        with pytest.raises(ValueError, match="grid too small"):
            exp_convexity_check(curve, 2)

    def test_grid_must_increase(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            GammaCurve(WORKED, lambda t: upsilon1(t).bundle, np.array([3.0, 3.0]))

    @pytest.mark.parametrize("grid", [[3.0, math.nan], [math.nan, 3.0], [3.0, math.inf],
                                      [-math.inf, 3.0], [math.nan], [math.inf, math.inf]],
                             ids=repr)
    def test_grid_must_be_finite(self, grid):
        """A nan passed the increasing check (nan <= 0 is False) and an inf
        passed it too, and the first Gamma then failed on upsilon1's range:
        each is refused where the curve is built, naming the first."""
        first = next(t for t in grid if not math.isfinite(t))
        with pytest.raises(ValueError, match=rf"^t_grid must be finite, got {first!r}$"):
            GammaCurve(WORKED, lambda t: upsilon1(t).bundle, np.array(grid))

    @pytest.mark.parametrize("n", [True, False, 2.0, 1.5, np.float64(2.0), "2", None],
                             ids=repr)
    def test_order_that_is_not_an_integer_refused(self, n):
        """A bool or a non-integer order used to fail inside itertools or
        math.comb; it is refused before any Gamma is computed."""
        calls = []
        curve = GammaCurve(WORKED, lambda t: calls.append(t) or upsilon1(t).bundle,
                           np.array([3.0, 4.0, 5.0]))
        with pytest.raises(ValueError, match=rf"^order must be an integer, got {re.escape(repr(n))}$"):
            exp_convexity_check(curve, n)
        assert calls == []

    def test_order_below_one_refused(self):
        curve = GammaCurve(WORKED, lambda t: upsilon1(t).bundle, np.array([3.0, 4.0, 5.0]))
        for n in (0, -1):
            with pytest.raises(ValueError, match="^order must be at least 1$"):
                exp_convexity_check(curve, n)

    def test_numpy_integer_order_accepted(self):
        curve = GammaCurve(WORKED, lambda t: upsilon1(t).bundle, np.array([3.0, 4.0, 5.0]))
        assert exp_convexity_check(curve, np.int64(2)) == exp_convexity_check(curve, 2)


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


def _moment_bits(ms):
    return [None if v is None else np.float64(v).tobytes() for v in
            (ms.mean, ms.cross, ms.sq_lo, ms.sq_hi, ms.value, ms.d_lo, ms.d_hi)]


class TestNodePlaces:
    """The basis records once which nodes sit on m or M; phi' at the nodes
    then has the bits of the one-shot pass, whatever the places."""

    M_LO, M_HI = 0.2, 2.0
    NODES = {"neither": [0.5, 1.1, 1.6], "at m": [0.2, 0.7, 1.3],
             "at M": [0.7, 1.3, 2.0], "at both": [0.2, 1.1, 2.0],
             "only ends": [0.2, 2.0], "one at m": [0.2]}

    @classmethod
    def _contexts(cls):
        for label, nodes in cls.NODES.items():
            weights = np.linspace(1.0, 2.0, len(nodes))
            F = make_functional(nodes, weights / weights.sum())
            yield label, [elr_context(i, F, cls.M_LO, cls.M_HI) for i in (3, 4)]
        rng = np.random.default_rng(31)
        for _ in range(40):
            k = int(rng.integers(2, 8))
            p, q = rng.dirichlet(np.ones(k) * 3.0), rng.dirichlet(np.ones(k) * 3.0)
            yield "divergence", [divergence_context(i, p, q) for i in (7, 8)]

    @staticmethod
    def _bundles(m, M):
        stored = FunctionBundle(domain_lo=m, domain_hi=M, f=lambda x: x ** 4,
                                d1=lambda x: 4.0 * x ** 3, d2=lambda x: 12.0 * x ** 2,
                                d1_plus_at_lo=-9.0, d1_minus_at_hi=9.0,
                                name="stored one-sided")
        return [upsilon1(3.7).bundle, upsilon1(0.02).bundle, upsilon2(-0.7).bundle,
                upsilon2(0.01).bundle, stolarsky_means._u2_id_product(0.01),
                poly_bundle([0.5, -1.0, 0.0, 2.0, 1.0]), stored,
                bundle_from_callables(math.exp, math.exp, math.exp, math.exp,
                                      name="scalar exp")]

    def test_phi_prime_matches_the_one_shot_pass(self):
        for label, contexts in self._contexts():
            basis = contexts[0].basis
            x, m, M = basis.nodes, contexts[0].m, contexts[0].M
            on_end = bool(((x == m) | (x == M)).any())
            assert (basis.places is None) == (not on_end), label
            if label == "divergence":
                assert x.min() == m  # the smallest ratio is m
            for bundle in self._bundles(m, M):
                want = functionals.moments(contexts[0].functional, bundle, m, M)
                got = basis.moments(bundle, True)
                assert _moment_bits(got) == _moment_bits(want), (label, bundle.name)
                for ctx in contexts:
                    assert (_outcome(lambda: gamma(ctx, bundle))
                            == _outcome(lambda: _full_pass_gamma(ctx, bundle))), \
                        (label, ctx.index, bundle.name)

    def test_places_found_once_per_context(self, monkeypatch):
        found = []
        places = functionals._node_places
        monkeypatch.setattr(functionals, "_node_places",
                            lambda *args: found.append(1) or places(*args))
        for label, contexts in self._contexts():
            found.clear()
            for ctx in contexts:
                for t in (-1.5, 0.7, 3.3):
                    gamma(ctx, upsilon1(t).bundle)
                    gamma(ctx, upsilon2(t).bundle)
            assert len(found) == len(contexts), label

    def test_bundle_without_d1_fails_at_the_first_derivative_gamma(self):
        m, M = self.M_LO, self.M_HI
        bare = FunctionBundle(domain_lo=0.0, domain_hi=5.0, f=lambda x: x ** 3,
                              d2=lambda x: 6.0 * x, name="no d1")
        stored = FunctionBundle(domain_lo=m, domain_hi=M, f=lambda x: x ** 3,
                                d2=lambda x: 6.0 * x, d1_plus_at_lo=3.0 * m * m,
                                d1_minus_at_hi=3.0 * M * M, name="stored d1 only")
        texts = {"no d1": "insufficient bundle: derivative of order 1 of 'no d1' "
                          "unavailable at x=0.2",
                 "stored d1 only": "insufficient bundle: first derivative moment "
                                   "of 'stored d1 only' unavailable"}
        for label, contexts in self._contexts():
            if label == "divergence":
                continue
            for bundle in (bare, stored):
                # stored end values are phi' at nodes that are all on the ends
                fails = bundle is bare or any(m < v < M for v in self.NODES[label])
                for ctx in contexts:
                    for _ in range(2):
                        got = _outcome(lambda: gamma(ctx, bundle))
                        assert got == _outcome(lambda: _full_pass_gamma(ctx, bundle))
                        if fails:
                            assert got == f"ValueError: {texts[bundle.name]}", label
