"""The benchmark's output checks accept real outputs and reject planted
faults, and the tracer's counters repeat exactly."""

import json

import pytest

import layertrace
import workloads
from elrbounds import cli


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_canary_passes_and_planted_fault_is_caught(name):
    wl = workloads.WORKLOADS[name]
    inp = workloads.canary_input(name)
    result = wl.op(inp)
    assert wl.check(inp, result) == []
    assert wl.check(inp, workloads.plant_fault(name, inp, result))


@pytest.mark.parametrize("name", ["divergence", "zipf"])
@pytest.mark.parametrize("delta", [1e-6, -1e-6])
def test_mid_shifted_by_1e6_fails(name, delta):
    wl = workloads.WORKLOADS[name]
    checked = 0
    for index in range(5):
        inp = wl.make_input(1, index)
        status, text = wl.op(inp)
        report = json.loads(text)
        if abs(report["reports"][0]["mid"]) > 1.0:
            continue  # 1e-6 is below the rounding of a large mid
        report["reports"][0]["mid"] += delta
        assert wl.check(inp, (status, cli.dump_report(report)))
        checked += 1
    assert checked


def test_means_point_outside_interval_fails():
    wl = workloads.WORKLOADS["means"]
    inp = wl.make_input(1, 0)
    mean, cauchy, mvt = wl.op(inp)
    m = inp["ctx"]["m"]
    assert wl.check(inp, (m - 1e-6, cauchy, mvt))
    assert wl.check(inp, (mean, float("nan"), mvt))


def _traced_counters(name, ops):
    wl = workloads.WORKLOADS[name]
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        wrap_d3 = workloads.counting_d3(tracer.count_map_eval)
        for index in range(ops):
            tracer.op = index
            inp = wl.make_input(3, index)
            assert wl.check(inp, wl.op(inp, wrap_d3)) == []
    finally:
        tracer.uninstall()
    return {k: v for k, v in tracer.summary().items() if not k.endswith("self_ms")}


@pytest.mark.parametrize("name", ["divergence", "zipf", "means"])
def test_traced_counters_repeat_exactly(name):
    first = _traced_counters(name, 5)
    assert first == _traced_counters(name, 5)
    assert first["cli.run.calls" if name != "means" else "stolarsky_means.xi.calls"] > 0
    assert all(v == 0 for k, v in first.items() if k.endswith(".errors"))


def test_means_counts_map_evaluations():
    counters = _traced_counters("means", 1)
    assert counters["stolarsky_means.xi.calls"] == 2
    assert counters["stolarsky_means.xi.map_evals"] > 0


def test_uninstall_restores_library():
    original = cli.run
    tracer = layertrace.Tracer()
    tracer.install()
    assert cli.run is not original
    tracer.uninstall()
    assert cli.run is original
