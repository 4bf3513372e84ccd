"""Golden CLI reports: stdout and exit status, byte for byte.

Each case runs ``elrbounds.cli.main`` in-process on a valid input and
compares its exit status with ``golden/status.json`` and its stdout with
``golden/<case>.out``.  Reports are deterministic, so any difference is a
change in behaviour.  After an intended change to report output,
regenerate the files and review the diff:

    PYTHONPATH=src python tests/test_golden_reports.py
"""

import json
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from elrbounds.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

MEANS_FUNCTIONAL = {
    "functional": {"nodes": [0.5, 0.9, 1.4], "weights": [0.3, 0.4, 0.3]},
    "interval": [0.2, 2.0]}

CASES = {
    "verify-seed42": ["verify", "--seed", "42", "--instances", "2000"],
    "readme-bounds": ["bounds", "--input", json.dumps({
        "functional": {"nodes": [0.5], "weights": [1.0]},
        "interval": [0, 1], "phi": {"name": "cubic"}})],
    "readme-divergence": ["divergence", "--input", json.dumps({
        "distributions": {"p": [0.4, 0.6], "q": [0.5, 0.5]},
        "phi": {"name": "kl"}})],
    "readme-zipf": ["zipf", "--input", json.dumps({
        "zm": {"a": {"N": 2, "q": 0, "s": 1}, "b": {"N": 2, "q": 0, "s": 2}},
        "phi": {"name": "harmonic"}})],
    "readme-means": ["means", "--input", json.dumps({
        "functional": {"nodes": [0.5, 1.2], "weights": [0.4, 0.6]},
        "interval": [0.2, 2.0], "gamma_index": 1,
        "phi": {"name": "upsilon1"}, "params": {"s": 4, "t": 3}})],
    "divergence-renyi-interval": ["divergence", "--input", json.dumps({
        "distributions": {"p": [0.2, 0.5, 0.3], "q": [0.3, 0.3, 0.4]},
        "phi": {"name": "renyi", "params": [2.5]}, "interval": [0.5, 2.0]})],
    "zipf-n500": ["zipf", "--input", json.dumps({
        "zm": {"a": {"N": 500, "q": 1.5, "s": 1.1},
               "b": {"N": 500, "q": 0.5, "s": 1.3}},
        "phi": {"name": "kl"}})],
    "means-diagonal-index8": ["means", "--input", json.dumps({
        "distributions": {"p": [0.2, 0.5, 0.3], "q": [0.3, 0.3, 0.4]},
        "gamma_index": 8, "phi": {"name": "upsilon2"},
        "params": {"s": 2, "t": 2}})],
    # each branch of the two-parameter means: off the diagonal, on it, at
    # a singular parameter, within the diagonal threshold of it, and in a
    # divergence context
    "means-upsilon2-index3": ["means", "--input", json.dumps({
        **MEANS_FUNCTIONAL, "gamma_index": 3, "phi": {"name": "upsilon2"},
        "params": {"s": 2, "t": 0.5}})],
    "means-diagonal-index2": ["means", "--input", json.dumps({
        **MEANS_FUNCTIONAL, "gamma_index": 2, "phi": {"name": "upsilon1"},
        "params": {"s": 3.7, "t": 3.7}})],
    "means-diagonal-singular-index5": ["means", "--input", json.dumps({
        **MEANS_FUNCTIONAL, "gamma_index": 5, "phi": {"name": "upsilon1"},
        "params": {"s": 1, "t": 1}})],
    "means-diagonal-zero-index4": ["means", "--input", json.dumps({
        **MEANS_FUNCTIONAL, "gamma_index": 4, "phi": {"name": "upsilon2"},
        "params": {"s": 0, "t": 0}})],
    "means-near-diagonal-index1": ["means", "--input", json.dumps({
        **MEANS_FUNCTIONAL, "gamma_index": 1, "phi": {"name": "upsilon1"},
        "params": {"s": 2.5, "t": 2.500000005}})],
    "means-divergence-index7": ["means", "--input", json.dumps({
        "distributions": {"p": [0.2, 0.5, 0.3], "q": [0.3, 0.3, 0.4]},
        "gamma_index": 7, "phi": {"name": "upsilon1"},
        "params": {"s": 4, "t": -1}})],
    # one theorem of each command: the batch-of-one paths
    "bounds-secant": ["bounds", "--input", json.dumps({
        "functional": {"nodes": [0.2, 0.5, 0.9], "weights": [0.3, 0.5, 0.2]},
        "interval": [0, 1], "phi": {"name": "cubic"}, "theorem": "secant"})],
    "divergence-taylor": ["divergence", "--input", json.dumps({
        "distributions": {"p": [0.2, 0.5, 0.3], "q": [0.3, 0.3, 0.4]},
        "phi": {"name": "hellinger"}, "theorem": "taylor"})],
    "zipf-derivative": ["zipf", "--input", json.dumps({
        "zm": {"a": {"N": 50, "q": 2.0, "s": 1.2},
               "b": {"N": 50, "q": 0.5, "s": 0.9}},
        "phi": {"name": "renyi", "params": [3.0]}, "theorem": "derivative"})],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, capsys):
    status = main(CASES[name])
    expected = json.loads((GOLDEN / "status.json").read_text())
    assert status == expected[name]
    assert capsys.readouterr().out == (GOLDEN / f"{name}.out").read_text()


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    statuses = {}
    for name in sorted(CASES):
        buffer = StringIO()
        with redirect_stdout(buffer):
            statuses[name] = main(CASES[name])
        (GOLDEN / f"{name}.out").write_text(buffer.getvalue())
    (GOLDEN / "status.json").write_text(json.dumps(statuses, indent=2) + "\n")


if __name__ == "__main__":
    regenerate()
