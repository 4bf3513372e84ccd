import json
import math
import subprocess
import sys

import pytest

from elrbounds.cli import main

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


POSITIVE_FUNCTIONAL = {"nodes": [0.5, 1.2], "weights": [0.4, 0.6]}
PAIR = {"p": [0.4, 0.6], "q": [0.5, 0.5]}
ZM_PAIR = {"a": {"N": 2, "q": 0, "s": 1}, "b": {"N": 2, "q": 0, "s": 2}}


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
    ], ids=["phi-string", "interval-string-end", "renyi-no-params",
            "divergence-short-interval", "divergence-phi-string",
            "zipf-phi-string", "means-params-no-t", "means-index-string",
            "verify-negative-instances"])
    def test_malformed_input_is_one_error_line(self, args, capsys):
        status = main(args)
        captured = capsys.readouterr()
        assert status == 1
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
        assert "Traceback" not in captured.err
