"""Which refusal a bound pass gives when two of its checks would fail, or
a derivative it reads is missing.

Every pass checks its nodes (in [m, M], f finite there) before it reads
phi and its derivatives at m and M, refuses an end value of phi that is
not finite before a derivative the bundle lacks, and names the first
missing order it would read.  The messages below are the ones each pass
gives for these inputs; a pass that reads its ends in fewer calls must
still give them, in this order."""

import json
import math

import numpy as np
import pytest

from elrbounds.cli import main
from elrbounds.divergences import GeneratorFunction, divergence_pass
from elrbounds.divided_diff import FunctionBundle
from elrbounds.elr_bounds import bounds, elr_difference, jensen_gap_bounds
from elrbounds.expconv import divergence_context, elr_context, gamma
from elrbounds.functionals import make_functional

# ratios 0.5, 6/7 and 2.0: the derived interval is [0.5, 2.0], with a
# node on each end and one inside
P, Q = [0.2, 0.3, 0.5], [0.4, 0.35, 0.25]

NODE_NOT_FINITE = "functional argument is not finite at node 2.0"
ENDS_NOT_FINITE = "function values at the interval endpoints must be finite"


def missing(order, at=0.5, name="cube"):
    return (f"insufficient bundle: derivative of order {order} of {name!r} "
            f"unavailable at x={at}")


def cube(cut=math.inf, **fields):
    """x^3 on [0, inf), inf from ``cut`` on; ``fields`` replace or drop
    (None) a derivative.  Its d3 is 6, so it is certified directly."""
    callables = dict(f=lambda t: np.where(t < cut, t ** 3, np.inf),
                     d1=lambda t: 3.0 * t ** 2, d2=lambda t: 6.0 * t,
                     d3=lambda t: 6.0 + 0.0 * t)
    callables.update(fields)
    return FunctionBundle(domain_lo=0.0, domain_hi=math.inf, name="cube", **callables)


def custom(**kw):
    """A hand-built generator of ``cube``: no declared direction."""
    return GeneratorFunction(bundle=cube(**kw), name="cube")


def refused(call, message, kind=ValueError):
    with pytest.raises(kind) as info:
        call()
    assert str(info.value) == message


class TestDivergencePass:
    def test_f_not_finite_at_an_end_ratio(self):
        # the end ratio 2.0 is a node: its value is refused as a node's
        refused(lambda: divergence_pass(P, Q, custom(cut=2.0)), NODE_NOT_FINITE)
        refused(lambda: divergence_pass(P, Q, custom(cut=2.0, d2=None), theorems=("taylor",)),
                NODE_NOT_FINITE)

    def test_ratio_outside_the_interval_comes_before_the_ends(self):
        refused(lambda: divergence_pass(P, Q, custom(cut=1.5, d2=None), 0.5, 1.5),
                "ratio outside [m, M]: 2.0")

    def test_f_not_finite_at_an_end_comes_before_a_missing_d2(self):
        for theorems in (("taylor",), ("derivative", "taylor"), ("taylor", "derivative")):
            refused(lambda: divergence_pass(P, Q, custom(cut=3.0, d2=None), 0.5, 4.0, theorems),
                    ENDS_NOT_FINITE)

    def test_no_d1(self):
        for theorems in (("derivative",), ("taylor",), ("derivative", "taylor")):
            refused(lambda: divergence_pass(P, Q, custom(d1=None), theorems=theorems),
                    missing(1))
        refused(lambda: divergence_pass(P, Q, custom(d1=None, d2=None), theorems=("taylor",)),
                missing(1))

    def test_no_d2_when_taylor_is_asked(self):
        for theorems in (("taylor",), ("derivative", "taylor"), ("taylor", "derivative")):
            refused(lambda: divergence_pass(P, Q, custom(d2=None), theorems=theorems),
                    missing(2))
        value, (report,) = divergence_pass(P, Q, custom(d2=None), theorems=("derivative",))
        assert value == 2.270408163265306 and report.theorem_tag == "divergence_derivative"

    def test_stored_end_slopes_serve_only_end_nodes(self):
        """No d1 but one-sided slopes stored at the domain's ends: they give
        phi' at end nodes, and an interior node has none."""
        stored = FunctionBundle(domain_lo=0.5, domain_hi=2.0, f=lambda t: t ** 3,
                                d2=lambda t: 6.0 * t, d3=lambda t: 6.0 + 0.0 * t,
                                d1_plus_at_lo=0.75, d1_minus_at_hi=12.0, name="stored")
        gen = GeneratorFunction(bundle=stored, name="stored")
        refused(lambda: divergence_pass(P, Q, gen),
                "insufficient bundle: first derivative moment of 'stored' unavailable")
        value, reports = divergence_pass([1 / 3, 2 / 3], [2 / 3, 1 / 3], gen)
        assert value == 2.75
        assert [(r.lower, r.mid, r.upper) for r in reports] == [(-0.5625, 0.0, 1.125),
                                                                (-2.25, 0.0, 1.125)]

    def test_a_derivative_that_raises_keeps_its_exception(self):
        def slope(t):
            return 1 / 0 if np.ndim(t) == 0 else 3.0 * t ** 2
        for interval in ((), (0.25, 4.0)):  # end nodes, then none
            refused(lambda: divergence_pass(P, Q, custom(d1=slope), *interval),
                    "division by zero", ZeroDivisionError)


F = make_functional([0.5, 1.0, 2.0], [0.25, 0.5, 0.25])
OUTSIDE = make_functional([1.0, 3.0], [0.5, 0.5])


@pytest.mark.parametrize("bound", [
    lambda variant, *args: bounds(variant, *args),
    lambda variant, *args: jensen_gap_bounds(*args, variant),
], ids=["bounds", "jensen_gap_bounds"])
class TestBoundsAndJensenGap:
    def test_node_outside_comes_before_the_ends_and_a_missing_d2(self, bound):
        refused(lambda: bound("taylor", OUTSIDE, cube(cut=2.5, d2=None), 0.5, 2.5),
                "node escapes interval [0.5, 2.5]: 3.0")

    def test_f_not_finite_at_a_node_comes_before_a_missing_d2(self, bound):
        refused(lambda: bound("taylor", F, cube(cut=1.5, d2=None), 0.5, 2.5), NODE_NOT_FINITE)

    def test_f_not_finite_at_an_end_comes_before_a_missing_d2(self, bound):
        refused(lambda: bound("taylor", F, cube(cut=2.5, d2=None), 0.5, 2.5), ENDS_NOT_FINITE)

    def test_no_d1(self, bound):
        refused(lambda: bound("derivative", F, cube(d1=None), 0.5, 2.5), missing(1))

    def test_no_d2_when_taylor_is_asked(self, bound):
        refused(lambda: bound("taylor", F, cube(d2=None), 0.5, 2.5), missing(2))


class TestElrDifference:
    def test_node_outside_comes_before_the_ends(self):
        refused(lambda: elr_difference(OUTSIDE, cube(cut=2.5), 0.5, 2.5),
                "node escapes interval [0.5, 2.5]: 3.0")

    def test_f_not_finite_at_a_node(self):
        refused(lambda: elr_difference(F, cube(cut=1.5), 0.5, 2.5), NODE_NOT_FINITE)

    def test_f_not_finite_at_an_end(self):
        refused(lambda: elr_difference(F, cube(cut=2.5), 0.5, 2.5), ENDS_NOT_FINITE)

    def test_no_d1_is_no_refusal(self):
        assert elr_difference(F, cube(d1=None, d2=None), 0.5, 2.5) == 2.4375


class TestGamma:
    @pytest.mark.parametrize("index, bundle, message", [
        (5, cube(d2=None), missing(2)),
        (6, cube(cut=1.5, d2=None), NODE_NOT_FINITE),
        (5, cube(cut=2.5, d2=None), ENDS_NOT_FINITE),
        (1, cube(cut=2.5), ENDS_NOT_FINITE),
        (3, cube(d1=None), missing(1)),
        (4, cube(d1=None, d2=None), missing(1)),
    ])
    def test_elr_context(self, index, bundle, message):
        refused(lambda: gamma(elr_context(index, F, 0.5, 2.5), bundle), message)

    def test_node_outside_comes_before_the_ends_and_a_missing_d2(self):
        ctx = elr_context(5, OUTSIDE, 0.5, 2.5)
        refused(lambda: gamma(ctx, cube(cut=2.5, d2=None)),
                "node escapes interval [0.5, 2.5]: 3.0")

    @pytest.mark.parametrize("index, bundle, message", [
        (9, cube(d2=None), missing(2)),
        (10, cube(cut=2.0, d2=None), NODE_NOT_FINITE),
        (7, cube(d1=None), missing(1)),
        (8, cube(d1=None, d2=None), missing(1)),
    ])
    def test_divergence_context(self, index, bundle, message):
        refused(lambda: gamma(divergence_context(index, P, Q), bundle), message)


def cli_error(command, payload, capsys):
    status = main([command, "--input", json.dumps(payload)])
    assert status == 1
    return capsys.readouterr().err


WIDE = {"functional": {"nodes": [0.0, 1.0], "weights": [0.5, 0.5]},
        "interval": [-1e103, 1e103], "phi": {"name": "cubic"}}


class TestCli:
    """x^3 overflows at 1e103, where its d3 is 6, and renyi's t^3 at 1e200;
    both are refused at the ends, after the nodes."""

    def test_bounds_node_outside_comes_before_the_ends(self, capsys):
        payload = dict(WIDE, functional={"nodes": [0.0, 1e104], "weights": [0.5, 0.5]})
        assert cli_error("bounds", payload, capsys) == (
            "error: node escapes interval [-1e+103, 1e+103]: 1e+104\n")

    @pytest.mark.parametrize("theorem", [None, "secant", "taylor"])
    def test_bounds_f_not_finite_at_an_end(self, theorem, capsys):
        payload = dict(WIDE) if theorem is None else dict(WIDE, theorem=theorem)
        assert cli_error("bounds", payload, capsys) == f"error: {ENDS_NOT_FINITE}\n"

    def test_divergence_ratio_outside_comes_before_the_ends(self, capsys):
        payload = {"distributions": {"p": P, "q": Q}, "interval": [0.6, 1e200],
                   "phi": {"name": "renyi", "params": [3]}}
        assert cli_error("divergence", payload, capsys) == (
            "error: ratio outside [m, M]: 0.5\n")

    @pytest.mark.parametrize("theorem", [None, "derivative", "taylor"])
    def test_divergence_f_not_finite_at_an_end(self, theorem, capsys):
        payload = {"distributions": {"p": P, "q": Q}, "interval": [0.5, 1e200],
                   "phi": {"name": "renyi", "params": [3]}}
        if theorem is not None:
            payload["theorem"] = theorem
        assert cli_error("divergence", payload, capsys) == f"error: {ENDS_NOT_FINITE}\n"
