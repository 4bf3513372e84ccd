import json
import math
import subprocess
import sys
from collections import OrderedDict, namedtuple
from dataclasses import replace
from decimal import Decimal
from enum import IntEnum
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from elrbounds.cli import RunConfig, build_parser, dump_report, main
from elrbounds.divergences import GENERATOR_NAMES
from elrbounds.registry import BUILTIN_NAMES

BOUNDS_INPUT = json.dumps({
    "functional": {"nodes": [0.5], "weights": [1.0]},
    "interval": [0, 1],
    "phi": {"name": "cubic"},
})


def run_main(args, capsys):
    status = main(args)
    out = capsys.readouterr().out
    return status, out


class TestBounds:
    def test_worked_instance_report(self, capsys):
        status, out = run_main(["bounds", "--input", BOUNDS_INPUT], capsys)
        assert status == 0
        report = json.loads(out)
        assert report["convexity"]["verdict"] == "three_convex"
        by_name = {r["theorem"]: r for r in report["reports"]}
        assert by_name["secant"]["lower"] == 0.25
        assert by_name["secant"]["upper"] == 0.5
        assert by_name["secant"]["mid"] == 0.375
        assert by_name["derivative"]["lower"] == 0.3125
        assert by_name["taylor"]["upper"] == 0.5

    def test_single_theorem_selection(self, capsys):
        payload = json.loads(BOUNDS_INPUT)
        payload["theorem"] = "taylor"
        status, out = run_main(["bounds", "--input", json.dumps(payload)], capsys)
        assert status == 0
        report = json.loads(out)
        assert [r["theorem"] for r in report["reports"]] == ["taylor"]

    def test_polynomial_phi(self, capsys):
        payload = {
            "functional": {"nodes": [0.5], "weights": [1.0]},
            "interval": [0, 1],
            "phi": {"poly": [0.0, 0.0, 0.0, 1.0]},
        }
        status, out = run_main(["bounds", "--input", json.dumps(payload)], capsys)
        assert status == 0
        assert json.loads(out)["reports"][0]["mid"] == 0.375

    def test_non_convex_phi_is_input_error(self, capsys):
        payload = {
            "functional": {"nodes": [0.0], "weights": [1.0]},
            "interval": [-1, 1],
            "phi": {"poly": [0.0, 0.0, 0.0, -1.0, 1.0]},
        }
        status = main(["bounds", "--input", json.dumps(payload)])
        assert status == 1

    def test_interval_outside_the_domain_is_named(self, capsys):
        payload = {"functional": {"nodes": [0.5, 1.0], "weights": [0.5, 0.5]},
                   "interval": [-1, 2], "phi": {"name": "kl"}}
        status = main(["bounds", "--input", json.dumps(payload)])
        captured = capsys.readouterr()
        assert (status, captured.out) == (1, "")
        assert captured.err == ("error: interval [-1.0, 2.0] escapes the domain "
                                "of 't*log(t)'\n")

    def test_malformed_json_is_line_numbered_error(self, capsys):
        status = main(["bounds", "--input", '{"functional": [,}'])
        err = capsys.readouterr().err
        assert status == 1
        assert "line 1" in err

    def test_missing_file_is_input_error(self):
        assert main(["bounds", "--input", "/nonexistent/input.json"]) == 1

    def test_bad_weights_is_input_error(self, capsys):
        payload = {
            "functional": {"nodes": [0.5], "weights": [0.5, 0.6]},
            "interval": [0, 1],
            "phi": {"name": "cubic"},
        }
        assert main(["bounds", "--input", json.dumps(payload)]) == 1


class TestDivergence:
    def test_kl_report(self, capsys):
        payload = {
            "distributions": {"p": [2 / 3, 1 / 3], "q": [0.5, 0.5]},
            "phi": {"name": "kl"},
        }
        status, out = run_main(["divergence", "--input", json.dumps(payload)], capsys)
        assert status == 0
        report = json.loads(out)
        expected = (2 / 3) * math.log(4 / 3) + (1 / 3) * math.log(2 / 3)
        assert report["divergence"] == pytest.approx(expected, rel=1e-15)
        assert all(r["orientation"] == "reversed" for r in report["reports"])
        assert report["interval"][0] <= 1.0 <= report["interval"][1]

    # kl's d3 = -1/t^2 is -inf where t^2 underflows; its sign is still right
    @pytest.mark.filterwarnings("error")
    def test_underflowing_ratio_end_warns_nothing(self, capsys):
        payload = {"distributions": {"p": [1e-300, 1.0], "q": [0.5, 0.5]},
                   "phi": {"name": "kl"}}
        status = main(["divergence", "--input", json.dumps(payload)])
        captured = capsys.readouterr()
        assert status == 0
        assert captured.err == ""
        assert json.loads(captured.out)["command"] == "divergence"


class TestZipf:
    def test_reversed_orientation_for_kl(self, capsys):
        payload = {
            "zm": {"a": {"N": 2, "q": 0, "s": 1}, "b": {"N": 2, "q": 0, "s": 2}},
            "phi": {"name": "kl"},
            "theorem": "derivative",
        }
        status, out = run_main(["zipf", "--input", json.dumps(payload)], capsys)
        assert status == 0
        report = json.loads(out)
        assert report["reports"][0]["orientation"] == "reversed"
        assert report["interval"] == pytest.approx([5 / 6, 5 / 3], rel=1e-12)

    def test_identical_laws_is_input_error(self):
        payload = {
            "zm": {"a": {"N": 3, "q": 0, "s": 1}, "b": {"N": 3, "q": 0, "s": 1}},
            "phi": {"name": "kl"},
        }
        assert main(["zipf", "--input", json.dumps(payload)]) == 1


class TestMeans:
    def test_power_mean(self, capsys):
        payload = {
            "functional": {"nodes": [0.5, 1.2], "weights": [0.4, 0.6]},
            "interval": [0.2, 2.0],
            "gamma_index": 1,
            "phi": {"name": "upsilon1"},
            "params": {"s": 4, "t": 3},
        }
        status, out = run_main(["means", "--input", json.dumps(payload)], capsys)
        assert status == 0
        report = json.loads(out)
        assert 0.2 <= report["mean"] <= 2.0

    def test_divergence_context_mean(self, capsys):
        payload = {
            "distributions": {"p": [0.4, 0.6], "q": [0.5, 0.5]},
            "gamma_index": 7,
            "phi": {"name": "upsilon2"},
            "params": {"s": 1, "t": 2},
        }
        status, out = run_main(["means", "--input", json.dumps(payload)], capsys)
        assert status == 0
        report = json.loads(out)
        assert report["interval"][0] <= report["mean"] <= report["interval"][1]

    def test_unknown_family_is_input_error(self):
        payload = {
            "functional": {"nodes": [0.5], "weights": [1.0]},
            "interval": [0.2, 2.0],
            "gamma_index": 1,
            "phi": {"name": "cubic"},
            "params": {"s": 4, "t": 3},
        }
        assert main(["means", "--input", json.dumps(payload)]) == 1


class TestVerify:
    def test_clean_run_exits_zero(self, capsys):
        status, out = run_main(["verify", "--seed", "42", "--instances", "500"], capsys)
        assert status == 0
        report = json.loads(out)
        assert report["max_violation"] <= 1e-9
        assert report["count"] == 500
        assert report["seed"] == 42

    def test_determinism_byte_identical(self, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        assert main(["verify", "--seed", "7", "--instances", "300",
                     "--output", str(out1)]) == 0
        assert main(["verify", "--seed", "7", "--instances", "300",
                     "--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_report_reparses(self, tmp_path):
        out = tmp_path / "r.json"
        main(["verify", "--seed", "3", "--instances", "200", "--output", str(out)])
        report = json.loads(out.read_text())
        assert set(report) >= {"command", "seed", "count", "max_violation", "violations"}


class TestFalsificationExitCode:
    def test_violation_maps_to_exit_two(self, monkeypatch, capsys):
        from elrbounds import cli
        from elrbounds.fuzzing import FuzzReport

        def fake_fuzz(seed, instances, tolerance):
            return FuzzReport(seed=seed, count=instances, max_violation=0.5,
                              violations=[{"theorem": "secant",
                                           "orientation": "direct",
                                           "violation": 0.5}])

        monkeypatch.setattr(cli, "bracket_fuzz", fake_fuzz)
        status = cli.main(["verify", "--seed", "1", "--instances", "10"])
        assert status == 2
        report = json.loads(capsys.readouterr().out)
        assert report["max_violation"] == 0.5


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "elrbounds.cli", "bounds", "--input", BOUNDS_INPUT],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["reports"][0]["lower"] == 0.25

    def test_stdin_input(self):
        proc = subprocess.run(
            [sys.executable, "-m", "elrbounds.cli", "bounds", "--input", "-"],
            input=BOUNDS_INPUT, capture_output=True, text=True)
        assert proc.returncode == 0

    def test_import_loads_no_scipy(self):
        """The CLI imports the fuzzer at module level; its spline is numpy
        only, so no command pays for a scipy import."""
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, elrbounds.cli; print(sorted("
             "m for m in sys.modules if m.partition('.')[0] == 'scipy'))"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_import_loads_no_polynomial(self):
        """Only poly_bundle uses numpy.polynomial, and it imports it when
        called, so no other command pays for it."""
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, elrbounds.cli; "
             "print('numpy.polynomial' in sys.modules)"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


    def test_parser_defaults_are_run_config_defaults(self):
        args = build_parser().parse_args(["verify"])
        config = RunConfig(command="verify", payload={})
        assert ((args.seed, args.instances, args.tolerance)
                == (config.seed, config.instances, config.tolerance) == (0, 1000, 1e-9))

    def test_parser_is_built_once(self, monkeypatch, capsys):
        """In-process calls share one parser, and a call's options leave the
        next call's defaults as RunConfig's."""
        from elrbounds import cli
        built = []

        class Counting(cli._Parser):
            def __init__(self, *args, **kwargs):
                built.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(cli, "_Parser", Counting)
        build_parser.cache_clear()
        try:
            assert main(["verify", "--seed", "3", "--instances", "2"]) == 0
            assert main(["verify", "--instances", "1", "--tolerance", "1e-6"]) == 0
            args = build_parser().parse_args(["verify"])
        finally:
            build_parser.cache_clear()
        assert len(built) == 1
        assert (args.seed, args.instances, args.tolerance) == (0, 1000, 1e-9)


class TestUnusablePath:
    """An input or report path that cannot be read or written is one
    "error:" line naming the path, with exit 1."""

    @pytest.mark.parametrize("args", [
        ["verify", "--instances", "1", "--output", "{missing}/out.json"],
        ["verify", "--instances", "1", "--output", "{dir}"],
        ["bounds", "--input", "{dir}"],
    ], ids=["output-in-missing-dir", "output-is-dir", "input-is-dir"])
    def test_one_error_line_naming_the_path(self, args, tmp_path, capsys):
        paths = {"missing": tmp_path / "absent", "dir": tmp_path}
        args = [a.format(**paths) for a in args]
        status = main(args)
        captured = capsys.readouterr()
        assert status == 1 and captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
        assert args[-1] in lines[0]


POSITIVE_FUNCTIONAL = {"nodes": [0.5, 1.2], "weights": [0.4, 0.6]}
PAIR = {"p": [0.4, 0.6], "q": [0.5, 0.5]}
ZM_PAIR = {"a": {"N": 2, "q": 0, "s": 1}, "b": {"N": 2, "q": 0, "s": 2}}
SUBNORMAL_PAIR = {"p": [5e-324, 1.0], "q": [0.5, 0.5]}
# the interval's square overflows in harmonic's d1 at the nodes
# Gamma of this interval is ill-conditioned enough to overflow a mean
NARROW_MEANS = {"functional": {"nodes": [0.5000000499999999], "weights": [1.0]},
                "interval": [0.5, 0.5000001], "gamma_index": 1,
                "phi": {"name": "upsilon1"}}
HUGE_RATIO_INTERVAL = {"distributions": {"p": [0.5, 0.5], "q": [1e-300, 1.0]},
                       "phi": {"name": "harmonic"}, "interval": [0.1, 1e301]}


class TestInputContract:
    @pytest.mark.parametrize("args", [
        ["bounds", "--input", json.dumps({
            "functional": {"nodes": [0.5], "weights": [1.0]},
            "interval": [0, 1], "phi": "cubic"})],
        ["bounds", "--input", json.dumps({
            "functional": {"nodes": [0.5], "weights": [1.0]},
            "interval": ["a", 1], "phi": {"name": "cubic"}})],
        ["bounds", "--input", json.dumps({
            "functional": POSITIVE_FUNCTIONAL, "interval": [0.2, 2.0],
            "phi": {"name": "renyi"}})],
        ["divergence", "--input", json.dumps({
            "distributions": PAIR, "phi": {"name": "kl"}, "interval": [0.5]})],
        ["divergence", "--input", json.dumps({"distributions": PAIR, "phi": "kl"})],
        ["zipf", "--input", json.dumps({"zm": ZM_PAIR, "phi": "kl"})],
        ["means", "--input", json.dumps({
            "functional": POSITIVE_FUNCTIONAL, "interval": [0.2, 2.0],
            "gamma_index": 1, "phi": {"name": "upsilon1"}, "params": {"s": 4}})],
        ["means", "--input", json.dumps({
            "functional": POSITIVE_FUNCTIONAL, "interval": [0.2, 2.0],
            "gamma_index": "x", "phi": {"name": "upsilon1"},
            "params": {"s": 4, "t": 3}})],
        ["verify", "--instances", "-5"],
        ["bounds", "--input", json.dumps({
            "functional": {"nodes": [0.5, 1.0], "weights": [math.nan, 1.0]},
            "interval": [0, 1], "phi": {"name": "cubic"}})],
        ["bounds", "--input", '{"functional": {"nodes": [0.5], "weights": [1.0]}, '
                              '"interval": [0, 1e400], "phi": {"name": "cubic"}}'],
        ["bounds", "--input", json.dumps({
            "functional": {"nodes": [0.5], "weights": [1.0]},
            "interval": [0, 1], "phi": {"name": "xlogx"}})],
        ["means", "--input", json.dumps({
            "functional": POSITIVE_FUNCTIONAL, "interval": [0.2, 2.0],
            "gamma_index": 1.7, "phi": {"name": "upsilon1"},
            "params": {"s": 4, "t": 3}})],
        ["zipf", "--input", json.dumps({
            "zm": {**ZM_PAIR, "b": {"N": 2.5, "q": 0, "s": 2}},
            "phi": {"name": "kl"}})],
        ["verify", "--instances", "10", "--tolerance", "nan"],
        ["verify", "--instances", "10", "--tolerance", "inf"],
        ["verify", "--instances", "10", "--tolerance", "-1"],
        ["divergence", "--input", json.dumps({
            "distributions": {"p": [0.5, 0.5], "q": [1e-320, 1.0]},
            "phi": {"name": "kl"}})],
        ["divergence", "--input", json.dumps({
            "distributions": {"p": [0.5, 0.5], "q": [1e-300, 1.0]},
            "phi": {"name": "kl"}})],
        ["verify", "--instances", "1.5"],
        ["verify", "--instances", "10", "--tolerance", "-1e-9"],
        ["verify", "--instances", "10", "--jobs", "2"],
        ["divergence", "--input", json.dumps({
            "distributions": {"p": [0.5, 0.5], "q": [1e-300, 1.0]},
            "phi": {"name": "harmonic"}})],
        ["divergence", "--input", json.dumps({
            "distributions": {"p": [0.5, 0.5], "q": [1e-300, 1.0]},
            "phi": {"name": "jeffreys"}})],
        ["divergence", "--input", json.dumps({
            "distributions": {"p": [0.5, 0.5], "q": [1e-300, 1.0]},
            "phi": {"name": "renyi", "params": [3]}})],
        ["means", "--input", json.dumps({
            "functional": POSITIVE_FUNCTIONAL, "interval": [0.2, 2.0],
            "gamma_index": 1, "phi": {"name": "upsilon2"},
            "params": {"s": 1e300, "t": 3}})],
        ["means", "--input", json.dumps({
            "functional": POSITIVE_FUNCTIONAL, "interval": [0.2, 2.0],
            "gamma_index": 1, "phi": {"name": "upsilon1"},
            "params": {"s": 1e300, "t": 3}})],
        ["means", "--input", json.dumps({
            "functional": POSITIVE_FUNCTIONAL, "interval": [0.2, 2.0],
            "gamma_index": 1, "phi": {"name": "upsilon1"},
            "params": {"s": 4, "t": 5e-324}})],
        ["means", "--input", json.dumps({
            "functional": POSITIVE_FUNCTIONAL, "interval": [0.2, 2.0],
            "gamma_index": 1, "phi": {"name": "upsilon2"},
            "params": {"s": 1e300, "t": 1e300}})],
        ["bounds", "--input", json.dumps({
            "functional": POSITIVE_FUNCTIONAL, "interval": [0.2, 2.0],
            "phi": {"name": "upsilon1", "params": 3}})],
        ["bounds", "--input", json.dumps({
            "functional": POSITIVE_FUNCTIONAL, "interval": [0.2, 2.0],
            "phi": {"name": "upsilon1", "params": "3"}})],
        ["bounds", "--input", json.dumps({
            "functional": POSITIVE_FUNCTIONAL, "interval": [0.2, 2.0],
            "phi": {"poly": None}})],
        ["bounds", "--input", json.dumps({
            "functional": POSITIVE_FUNCTIONAL, "interval": [0.2, 2.0],
            "phi": {"name": "upsilon1", "params": [None]}})],
        ["bounds", "--input", json.dumps({
            "functional": POSITIVE_FUNCTIONAL, "interval": [0.2, 2.0],
            "phi": {"name": {"a": 1}}})],
        ["bounds", "--input", json.dumps({
            "functional": {"nodes": {"a": 1}, "weights": [1.0]},
            "interval": [0.2, 2.0], "phi": {"name": "cubic"}})],
        ["divergence", "--input", json.dumps({
            "distributions": {"p": {"a": 1}, "q": [0.5, 0.5]},
            "phi": {"name": "kl"}})],
        ["divergence", "--input", '{"distributions": {"p": [0.4, 0.6], '
                                  '"q": [0.5, 0.5]}, "phi": {"name": "renyi", '
                                  '"params": [Infinity]}}'],
        ["zipf", "--input", json.dumps({
            "zm": {"a": {"N": 5, "q": 1e300, "s": 2},
                   "b": {"N": 5, "q": 0, "s": 2}},
            "phi": {"name": "kl"}})],
        ["divergence", "--input", json.dumps({
            "distributions": SUBNORMAL_PAIR, "phi": {"name": "jeffreys"}})],
        ["divergence", "--input", json.dumps({
            "distributions": SUBNORMAL_PAIR, "phi": {"name": "jeffreys"},
            "interval": [5e-324, 3]})],
        ["divergence", "--input", json.dumps(HUGE_RATIO_INTERVAL)],
        ["divergence", "--input", json.dumps({
            "distributions": {"p": [1.7e308, 1.7e308], "q": [0, 1.7e308]},
            "phi": {"name": "kl"}})],
        ["divergence", "--input", json.dumps({
            "distributions": {"p": [1.0], "q": [1.0]}, "interval": [0.5, 2],
            "phi": {"name": "renyi", "params": [1e300]}})],
        ["zipf", "--input", json.dumps({
            "zm": {"a": {"N": 5, "q": 0.5, "s": 2},
                   "b": {"N": 5, "q": 0, "s": 1000}},
            "phi": {"name": "kl"}})],
        ["bounds", "--input", json.dumps({
            "functional": POSITIVE_FUNCTIONAL, "interval": [0.2, 2.0],
            "phi": {"poly": [3, 0, 0, 1.7e308]}})],
        ["means", "--input", json.dumps({**NARROW_MEANS,
                                         "params": {"s": 3, "t": 3}})],
        ["means", "--input", json.dumps({**NARROW_MEANS,
                                         "params": {"s": 3.0000001, "t": 3}})],
        ["means", "--input", json.dumps({**NARROW_MEANS,
                                         "params": {"s": 3.1, "t": 3}})],
        ["bounds", "--input", json.dumps({
            "functional": {"nodes": [0.5], "weights": [1.0]},
            "interval": [-1e308, 1e308], "phi": {"poly": [0, 1]}})],
        ["bounds", "--input", json.dumps({
            "functional": {"nodes": [0.5], "weights": [1.0]},
            "interval": [-1e308, 1e308], "phi": {"name": "cubic"}})],
    ], ids=["phi-string", "interval-string-end", "renyi-no-params",
            "divergence-short-interval", "divergence-phi-string",
            "zipf-phi-string", "means-params-no-t", "means-index-string",
            "verify-negative-instances", "bounds-nan-weight",
            "bounds-infinite-interval-end", "bounds-xlogx-singular-end",
            "means-index-fraction", "zipf-N-fraction",
            "verify-tolerance-nan", "verify-tolerance-inf",
            "verify-tolerance-negative", "divergence-ratio-overflow",
            "divergence-bound-overflow", "verify-instances-fraction",
            "verify-tolerance-exponent", "verify-unknown-flag",
            "harmonic-derivative-overflow", "jeffreys-derivative-overflow",
            "renyi-value-overflow", "upsilon2-scale-overflow",
            "upsilon1-scale-zero", "upsilon1-scale-infinite",
            "upsilon2-diagonal-scale-overflow", "phi-params-int",
            "phi-params-string", "poly-null", "phi-params-null",
            "phi-name-object", "functional-nodes-object",
            "divergence-p-object", "renyi-params-infinite",
            "zipf-normalizer-underflow", "jeffreys-subnormal-mass",
            "jeffreys-subnormal-interval-end", "harmonic-huge-interval",
            "weight-sum-overflow", "renyi-alpha-overflow",
            "zipf-mass-underflow", "poly-derivative-overflow",
            "means-diagonal-overflow", "means-quotient-overflow",
            "means-mean-outside-interval", "poly-interval-length-overflow",
            "cubic-interval-length-overflow"])
    # pytest keeps warnings off the captured stderr; raising them instead
    # makes a numpy warning line ahead of "error:" fail the case, as it
    # would show on a terminal
    @pytest.mark.filterwarnings("error")
    def test_malformed_input_is_one_error_line(self, args, capsys):
        status = main(args)
        captured = capsys.readouterr()
        assert status == 1
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.filterwarnings("error")
    def test_interval_whose_moments_overflow_is_named(self, capsys):
        """A linear phi has every bound 0, but on [-1e200, 1e200] the
        moments of the functional overflow: the interval is the cause."""
        payload = {"functional": {"nodes": [0.5], "weights": [1.0]},
                   "interval": [-1e200, 1e200], "phi": {"poly": [0, 1]}}
        status = main(["bounds", "--input", json.dumps(payload)])
        captured = capsys.readouterr()
        assert status == 1
        assert captured.out == ""
        assert captured.err == ("error: interval [-1e+200, 1e+200] is too wide: "
                                "the moments of the functional on it overflow\n")
        payload["interval"] = [-1e150, 1e150]
        assert main(["bounds", "--input", json.dumps(payload)]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("args,interval", [
        (["divergence", "--input", json.dumps({
            "distributions": {"p": [0.5, 0.5], "q": [1e-300, 1.0]},
            "phi": {"name": "kl"}})],
         "[0.5, 4.9999999999999995e+299]"),
        (["zipf", "--input", json.dumps({
            "zm": {"a": {"N": 10, "q": 0, "s": 1}, "b": {"N": 10, "q": 0, "s": 300}},
            "phi": {"name": "kl"}})],
         "[0.34141715214740553, 3.4141715214740556e+298]"),
        *((["means", "--input", json.dumps({
            "distributions": {"p": [0.5, 0.5], "q": [1e-300, 1.0]},
            "gamma_index": index, "phi": {"name": "upsilon1"},
            "params": {"s": 0.5, "t": 0.7}})],
          "[0.5, 4.9999999999999995e+299]") for index in (9, 10)),
    ], ids=["divergence", "zipf", "means_9", "means_10"])
    def test_pair_whose_moments_overflow_names_the_interval(self, args, interval,
                                                            capsys):
        """The taylor pair of a huge auto-derived interval, and the Gamma
        built from it, are refused for the interval, in the words of
        ``bounds``."""
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: interval {interval} is too wide: the "
                                "moments of the functional on it overflow\n")

    @pytest.mark.filterwarnings("error")
    def test_overflowing_derivative_moment_is_no_warning(self, capsys):
        """Only the taylor pair of the huge interval overflows; the
        derivative pair alone is a report."""
        payload = {**HUGE_RATIO_INTERVAL, "theorem": "derivative"}
        status = main(["divergence", "--input", json.dumps(payload)])
        captured = capsys.readouterr()
        assert status == 0
        assert captured.err == ""
        assert [r["theorem"] for r in json.loads(captured.out)["reports"]] == [
            "divergence_derivative"]

    @pytest.mark.filterwarnings("error")
    def test_vanishing_renyi_derivative_is_zero_at_zero(self, capsys):
        """t^1 has d3 = 0 everywhere, also at t = 0, where 0 * t^-2 is no
        value: the bundle is 3-convex on [0, 1]."""
        payload = {"functional": {"nodes": [0.0], "weights": [1.0]},
                   "interval": [0, 1], "phi": {"name": "renyi", "params": [1]}}
        status = main(["bounds", "--input", json.dumps(payload)])
        captured = capsys.readouterr()
        assert status == 0
        assert captured.err == ""
        assert json.loads(captured.out)["convexity"]["verdict"] == "three_convex"


def _law_pair(N):
    return {"zm": {"a": {"N": N, "q": 0, "s": 1}, "b": {"N": N, "q": 0, "s": 2}},
            "phi": {"name": "kl"}}


BOUNDS_PAYLOAD = {"functional": POSITIVE_FUNCTIONAL, "interval": [0.2, 2.0],
                  "phi": {"name": "cubic"}}
MEANS_PAYLOAD = {"functional": POSITIVE_FUNCTIONAL, "interval": [0.2, 2.0],
                 "phi": {"name": "upsilon1"}, "params": {"s": 2.5, "t": 3.5}}


class TestRefusedFields:
    """A JSON boolean or string where a number belongs, a nested or ragged
    list where a vector belongs, a Zipf law above the rank limit and a
    negative seed each exit 1 with one error line that names the field."""

    @pytest.mark.parametrize("args,field", [
        (["zipf", "--input", json.dumps(_law_pair(10**13))],
         "N must be at most 10000000 ranks, got 10000000000000"),
        (["zipf", "--input", json.dumps(_law_pair(10**7 + 1))],
         "N must be at most 10000000 ranks, got 10000001"),
        (["zipf", "--input", json.dumps({**_law_pair(2), "zm": {
            "a": {"N": True, "q": 0, "s": 1}, "b": {"N": 2, "q": 0, "s": 2}}})],
         "N must be an integer, got True"),
        (["bounds", "--input", json.dumps({**BOUNDS_PAYLOAD, "functional": {
            "nodes": [0.5, 1.2], "weights": [True, False]}})],
         "weights must be a list of numbers"),
        (["bounds", "--input", json.dumps({**BOUNDS_PAYLOAD, "functional": {
            "nodes": [True, 1.2], "weights": [0.4, 0.6]}})],
         "nodes must be a list of numbers"),
        (["bounds", "--input", json.dumps({**BOUNDS_PAYLOAD, "functional": {
            "nodes": [0.5], "weights": [1.0]}, "interval": [False, True]})],
         "interval end must be a finite number, got False"),
        (["bounds", "--input", json.dumps({**BOUNDS_PAYLOAD,
                                           "phi": {"poly": [0, 0, 0, True]}})],
         "poly coefficient must be a finite number, got True"),
        (["bounds", "--input", json.dumps({**BOUNDS_PAYLOAD, "phi": {
            "name": "upsilon1", "params": [True]}})],
         "phi param must be a finite number, got True"),
        (["means", "--input", json.dumps({**MEANS_PAYLOAD, "gamma_index": True})],
         "gamma_index must be an integer, got True"),
        (["means", "--input", json.dumps({**MEANS_PAYLOAD,
                                          "params": {"s": True, "t": 3.5}})],
         "params s must be a finite number, got True"),
        (["divergence", "--input", json.dumps({"distributions": {
            "p": [True], "q": [1.0]}, "interval": [0.5, 2], "phi": {"name": "kl"}})],
         "p must be a list of numbers"),
        (["divergence", "--input", json.dumps({"distributions": {
            "p": [1.0], "q": True}, "interval": [0.5, 2], "phi": {"name": "kl"}})],
         "q must be a list of numbers"),
        (["means", "--input", json.dumps({**MEANS_PAYLOAD, "gamma_index": 7,
                                          "distributions": {"p": [True], "q": [1.0]}})],
         "p must be a list of numbers"),
        (["verify", "--seed", "-1", "--instances", "1"],
         "seed must be an integer >= 0, got -1"),
        (["bounds", "--input", json.dumps({**BOUNDS_PAYLOAD, "functional": {
            "nodes": [[0.5], [1.2]], "weights": [[True], [0.0]]}})],
         "nodes must be a list of numbers"),
        (["bounds", "--input", json.dumps({**BOUNDS_PAYLOAD, "functional": {
            "nodes": [0.5, 1.2], "weights": [[0.4, 0.6]]}})],
         "weights must be a list of numbers"),
        (["bounds", "--input", json.dumps({**BOUNDS_PAYLOAD, "functional": {
            "nodes": [0.5, 1.2], "weights": [[0.4], 0.6]}})],
         "weights must be a list of numbers"),
        (["divergence", "--input", json.dumps({"distributions": {
            "p": [[0.5], [0.5]], "q": [0.5, 0.5]}, "phi": {"name": "kl"}})],
         "p must be a list of numbers"),
        (["divergence", "--input", json.dumps({"distributions": {
            "p": [0.5, 0.5], "q": [[0.5, 0.0], 0.5]}, "phi": {"name": "kl"}})],
         "q must be a list of numbers"),
        (["bounds", "--input", json.dumps({**BOUNDS_PAYLOAD, "functional": {
            "nodes": [0.5, 1.2], "weights": ["0.5", "0.5"]}})],
         "weights must be a list of numbers"),
        (["bounds", "--input", json.dumps({**BOUNDS_PAYLOAD, "functional": {
            "nodes": [0.5], "weights": [1.0]}, "interval": ["0", "1"]})],
         "interval end must be a finite number, got '0'"),
        (["bounds", "--input", json.dumps({**BOUNDS_PAYLOAD,
                                           "phi": {"poly": ["0", "0", "0", "1"]}})],
         "poly coefficient must be a finite number, got '0'"),
        (["zipf", "--input", json.dumps({**_law_pair(2), "zm": {
            "a": {"N": "100", "q": 0, "s": 1}, "b": {"N": 2, "q": 0, "s": 2}}})],
         "N must be an integer, got '100'"),
    ], ids=["zipf-N-1e13", "zipf-N-limit-plus-1", "zipf-N-true",
            "bounds-weights-booleans", "bounds-nodes-boolean",
"bounds-interval-booleans",
            "bounds-poly-boolean", "phi-params-boolean", "means-index-true",
            "means-s-true", "divergence-p-true", "divergence-q-true",
            "means-p-true", "verify-seed-negative", "bounds-vectors-nested",
            "bounds-weights-nested", "bounds-weights-ragged", "divergence-p-nested",
            "divergence-q-ragged", "bounds-weights-strings", "bounds-interval-strings",
            "bounds-poly-strings", "zipf-N-string"])
    @pytest.mark.filterwarnings("error")
    def test_one_error_line_naming_the_field(self, args, field, capsys):
        status = main(args)
        captured = capsys.readouterr()
        assert status == 1
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
        assert field in lines[0]

    def test_numbers_in_place_of_the_booleans_run(self, capsys):
        for command, payload in (
                ("bounds", BOUNDS_PAYLOAD), ("means", MEANS_PAYLOAD),
                ("zipf", _law_pair(2)),
                ("means", {**MEANS_PAYLOAD, "gamma_index": 7,
                           "distributions": {"p": [1], "q": [1.0]}})):
            assert run_main([command, "--input", json.dumps(payload)], capsys)[0] == 0


class TestParamCount:
    """A built-in name given another count of params than it takes exits 1
    with one error line that names the function: through bounds for every
    name, through divergence and zipf for each generator, and through means
    for each family, whose "phi" carries only its name (s and t pick the
    members)."""

    TAKES_ONE = ("upsilon1", "upsilon2", "renyi")

    @staticmethod
    def error_line(command, payload, capsys):
        status = main([command, "--input", json.dumps(payload)])
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert (status, captured.out, len(lines)) == (1, "", 1), captured.err
        return lines[0]

    @pytest.mark.parametrize("name", BUILTIN_NAMES + GENERATOR_NAMES)
    @pytest.mark.filterwarnings("error")
    def test_wrong_count_is_one_error_line_naming_the_function(self, name, capsys):
        if name in self.TAKES_ONE:
            wrong, message = ([], [2.5, 3.5]), f"{name} needs one parameter"
        else:
            wrong, message = ([3], [7, 8]), f"{name} takes no parameters"
        for params in wrong:
            phi = {"name": name, "params": params}
            runs = [("bounds", {**BOUNDS_PAYLOAD, "phi": phi})]
            if name in GENERATOR_NAMES:
                runs += [("divergence", {"distributions": PAIR, "phi": phi}),
                         ("zipf", {**_law_pair(2), "phi": phi})]
            for command, payload in runs:
                assert self.error_line(command, payload, capsys) == f"error: {message}"
        if name in ("upsilon1", "upsilon2"):
            payload = {**MEANS_PAYLOAD, "phi": {"name": name, "params": [9, 9]}}
            assert self.error_line("means", payload, capsys) == (
                f"error: {name} takes no params in means: s and t pick its members")
            payload["phi"]["params"] = []
            assert run_main(["means", "--input", json.dumps(payload)], capsys)[0] == 0

    def test_unknown_name_with_params_is_unknown(self, capsys):
        phi = {"name": "kullback", "params": [3]}
        assert self.error_line("bounds", {**BOUNDS_PAYLOAD, "phi": phi},
                               capsys) == "error: unknown phi name 'kullback'"
        assert self.error_line("divergence", {"distributions": PAIR, "phi": phi},
                               capsys) == "error: unknown generator 'kullback'"


class TestRefusalOrder:
    """A name or index that selects the rest of the input is checked before
    what it selects: the bounds command checks the theorem name before it
    certifies phi, as bounds() does, and means checks gamma_index before it
    reads the fields of its context; means names the phi it was given."""

    error_line = staticmethod(TestParamCount.error_line)

    def test_bounds_checks_the_theorem_before_the_certificate(self, capsys):
        # x**4 has no direction on [-1, 1]: certifying it first refused it
        payload = {"functional": {"nodes": [0.5], "weights": [1.0]}, "interval": [-1, 1],
                   "phi": {"poly": [0, 0, 0, 0, 1]}, "theorem": "simpson"}
        assert self.error_line("bounds", payload, capsys) == "error: unknown theorem 'simpson'"

    @pytest.mark.parametrize("index", [0, 11])
    @pytest.mark.parametrize("context", ["elr", "divergence"])
    def test_means_checks_the_index_before_its_context(self, index, context, capsys):
        payload = {**MEANS_PAYLOAD, "gamma_index": index}
        if context == "divergence":
            del payload["functional"], payload["interval"]
            payload["distributions"] = PAIR
        assert self.error_line("means", payload, capsys) == (
            "error: functional index must be in 1..10")

    @pytest.mark.parametrize("phi,given", [({"name": "cubic"}, "'cubic'"),
                                           ({"name": "kl"}, "'kl'"),
                                           ({"poly": [0, 1]}, "None")])
    def test_means_names_the_phi_it_was_given(self, phi, given, capsys):
        assert self.error_line("means", {**MEANS_PAYLOAD, "phi": phi}, capsys) == (
            'error: means needs "phi" with name "upsilon1" or "upsilon2", '
            f"got {given}")


class TestPointInterval:
    """An interval [1, 1] is refused by the one degenerate-interval rule,
    with its message, by each command that reads "interval"."""

    error_line = staticmethod(TestParamCount.error_line)

    @pytest.mark.parametrize("command,payload", [
        ("bounds", {"functional": {"nodes": [1.0], "weights": [1.0]},
                    "phi": {"name": "cubic"}}),
        ("divergence", {"distributions": PAIR, "phi": {"name": "kl"}}),
        ("means", MEANS_PAYLOAD),
    ])
    def test_point_interval_is_degenerate(self, command, payload, capsys):
        payload = {**payload, "interval": [1, 1]}
        assert self.error_line(command, payload, capsys) == (
            "error: degenerate interval: m must lie strictly below M")


class TestOnePass:
    """A command validates its input and computes its moments once, however
    many theorems it reports."""

    @staticmethod
    def count_calls(monkeypatch, names):
        """Wrap each named elrbounds function in every module namespace
        that holds it, where its callers look it up; the call counts."""
        counts = dict.fromkeys(names, 0)
        modules = [mod for key, mod in sys.modules.items()
                   if key == "elrbounds" or key.startswith("elrbounds.")]
        for name in names:
            home, attr = name.rsplit(".", 1)
            original = getattr(sys.modules[f"elrbounds.{home}"], attr)

            def counted(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, key, counted)
        return counts

    @pytest.mark.parametrize("command,payload,expected", [
        ("divergence", {"distributions": PAIR, "phi": {"name": "kl"}},
         {"divergences.ratio_functional": 1, "functionals.moments": 1}),
        ("zipf", {"zm": ZM_PAIR, "phi": {"name": "kl"}},
         {"divergences.ratio_functional": 1, "functionals.moments": 1,
          "zipf_mandelbrot.zm_ratio_extrema": 1}),
        ("bounds", json.loads(BOUNDS_INPUT), {"functionals.moments": 1}),
    ], ids=["divergence", "zipf", "bounds"])
    def test_every_theorem_from_one_pass(self, monkeypatch, command, payload,
                                         expected):
        from elrbounds import cli

        counts = self.count_calls(monkeypatch, expected)
        status, report = cli.run(cli.RunConfig(command=command, payload=payload))
        assert status == 0
        assert len(report["reports"]) == (2 if command != "bounds" else 3)
        assert counts == expected

    @pytest.mark.parametrize("theorem", [None, "secant", "derivative", "taylor"])
    def test_bounds_makes_one_moment_pass(self, monkeypatch, theorem):
        """One moments call, then one triple (elr_bounds._triple) per
        reported theorem."""
        from elrbounds import cli

        payload = json.loads(BOUNDS_INPUT)
        if theorem is not None:
            payload["theorem"] = theorem
        names = ("functionals.moments", "elr_bounds._triple")
        counts = self.count_calls(monkeypatch, names)
        status, report = cli.run(cli.RunConfig(command="bounds", payload=payload))
        assert status == 0
        assert len(report["reports"]) == (3 if theorem is None else 1)
        assert counts == dict(zip(names, (1, len(report["reports"]))))

    @pytest.mark.parametrize("command,payload", [
        ("divergence", {"distributions": PAIR, "phi": {"name": "kl"}}),
        ("zipf", {"zm": ZM_PAIR, "phi": {"name": "kl"}}),
    ], ids=["divergence", "zipf"])
    def test_pair_validated_once_and_no_second_divergence(self, monkeypatch,
                                                          command, payload):
        """The divergence value comes from the pass that builds the bounds:
        one check of each vector of the pair, and no f_divergence."""
        from elrbounds import cli

        names = ("divergences.check_probability_vector",
                 "divergences.f_divergence")
        counts = self.count_calls(monkeypatch, names)
        status, report = cli.run(cli.RunConfig(command=command, payload=payload))
        assert status == 0
        assert math.isfinite(report["divergence"])
        assert counts == dict(zip(names, (2, 0)))

    @pytest.mark.parametrize("command,payload", [
        ("divergence", {"distributions": PAIR, "phi": {"name": "kl"}}),
        ("zipf", {"zm": ZM_PAIR, "phi": {"name": "kl"}}),
    ], ids=["divergence", "zipf"])
    def test_generator_evaluated_once_at_the_ratios(self, monkeypatch,
                                                    command, payload):
        """One f evaluation at the ratio nodes gives both the divergence and
        A(f), and the ratio functional is built by normalization alone,
        without make_functional's second check of the pair."""
        from elrbounds import cli

        names = ("divergences.check_probability_vector",
                 "divergences.f_divergence", "divergences.ratio_functional",
                 "functionals.moments", "functionals.make_functional",
                 "functionals.make_functionals")
        counts = self.count_calls(monkeypatch, names)
        node_evaluations = []
        resolve = cli.resolve_generator

        def counting_generator(spec):
            gen = resolve(spec)
            f = gen.bundle.f

            def counted(t):
                if np.ndim(t):  # the nodes, not an endpoint through deriv
                    node_evaluations.append(np.size(t))
                return f(t)

            return replace(gen, bundle=replace(gen.bundle, f=counted))

        monkeypatch.setattr(cli, "resolve_generator", counting_generator)
        status, report = cli.run(cli.RunConfig(command=command, payload=payload))
        assert status == 0
        assert math.isfinite(report["divergence"])
        assert node_evaluations == [2]
        assert counts == dict(zip(names, (2, 0, 1, 1, 0, 0)))


def _reference_dump(obj, indent: int = 0) -> str:
    """The report writer as first defined, one json.dumps per string and per
    key: the oracle that cli.dump_report must match byte for byte."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f"{pad}  {json.dumps(str(k))}: {_reference_dump(v, indent + 1)}"
            for k, v in obj.items())
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = ",\n".join(f"{pad}  {_reference_dump(v, indent + 1)}" for v in obj)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        if math.isnan(obj):
            return '"nan"'
        if math.isinf(obj):
            return '"inf"' if obj > 0 else '"-inf"'
        return format(obj, ".17g")
    return json.dumps(obj)


_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324,
                     1.7976931348623157e308, 0.1, 1e16, 1e-5]))
_SCALARS = st.one_of(
    _FLOATS,
    _FLOATS.map(np.float64),
    st.booleans(),
    st.none(),
    st.integers(min_value=-(10 ** 30), max_value=10 ** 30),
    st.text(),  # non-ASCII, control characters and surrogates among them
)
_KEYS = st.one_of(st.text(), st.integers(), _FLOATS, st.booleans(), st.none())
_VALUES = st.recursive(
    _SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_KEYS, children, max_size=4)),
    max_leaves=30)


class TestReportWriter:
    """dump_report is the reference writer's bytes, at less cost."""

    @settings(derandomize=True, database=None, deadline=None,
              max_examples=150, suppress_health_check=list(HealthCheck))
    @given(_VALUES)
    def test_matches_reference_writer(self, value):
        assert dump_report(value) == _reference_dump(value) + "\n"

    @pytest.mark.parametrize("value", [
        {}, [], (), {"a": {}, "b": [], "c": ()}, [[[]], {}],
        {"é": "ünïcödé ✓   \ud800", 1: None, 2.5: True, None: False,
         False: -0.0, math.nan: math.inf},
        [np.float64(-0.0), np.float64(math.nan), np.float64(-math.inf),
         np.float64(0.1), 10 ** 40, -(10 ** 40)],
    ], ids=["empty-dict", "empty-list", "empty-tuple", "empty-children",
            "nested-empty", "keys-and-strings", "numpy-and-big-ints"])
    def test_edge_values(self, value):
        assert dump_report(value) == _reference_dump(value) + "\n"

    class Level(IntEnum):
        LOW = 3

    class Name(str):
        pass

    class Items(list):
        pass

    Point = namedtuple("Point", "x y")

    class Tags(frozenset):
        pass

    @pytest.mark.parametrize("value", [
        np.float64(0.1), [np.float64(-0.0), np.float64(math.inf)],
        Level.LOW, {"level": Level.LOW},
        Name("tag"), {Name("key"): Name("ünï")},
        OrderedDict([("b", 1.5), ("a", OrderedDict())]),
        Items([1, Items(), (2.5, Items(["x"]))]),
        Point(1.5, Level.LOW), {"at": Point(Name("x"), [Point(0.1, None)])},
    ], ids=["float64", "float64-items", "intenum", "intenum-item", "str-subclass",
            "str-subclass-key-and-item", "ordereddict", "list-subclass",
            "namedtuple", "namedtuple-items"])
    def test_subclass_writes_as_its_base_type(self, value):
        """A subclass of a type in the writer's table is outside it and is
        written as the reference writes it."""
        assert dump_report(value) == _reference_dump(value) + "\n"

    @pytest.mark.parametrize("value", [np.int64(3), {1, 2}, object(),
                                       {"inside": [np.int64(3)]}, Decimal("0.5"),
                                       [Tags({1})]],
                             ids=["int64", "set", "object", "nested-int64", "decimal",
                                  "frozenset-subclass"])
    def test_value_the_reference_refuses_is_refused(self, value):
        with pytest.raises(Exception) as expected:
            _reference_dump(value)
        with pytest.raises(expected.type):
            dump_report(value)

    def test_goldens_round_trip(self):
        """Every golden report reads back and is written to its own bytes."""
        goldens = sorted((Path(__file__).parent / "golden").glob("*.out"))
        assert goldens
        for path in goldens:
            text = path.read_text()
            assert dump_report(json.loads(text)) == text, path.name
