"""Generated payloads for every command meet the CLI's input contract.

Each payload starts as a well-formed request of its command, with zeros,
subnormals, values near the float range and negative values among its
numbers; then one field may be dropped or replaced by a value of the
wrong type.  It runs through ``main`` in process.  Whatever the payload,
the exit status is 0, 1 or 2, exit 1 prints exactly one ``error:`` line
and nothing else, and no warning is raised on the way.  The draws are
derandomized and bounded, so the test is deterministic.
"""

import contextlib
import io
import json
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from elrbounds.cli import main
from elrbounds.divergences import GENERATOR_NAMES
from elrbounds.registry import BUILTIN_NAMES

CONTRACT = settings(derandomize=True, database=None, deadline=None,
                    max_examples=40, suppress_health_check=list(HealthCheck))

NUMBER = st.sampled_from([0, -0.0, 1, -1, 2, 3, 4, 0.5, 1.5, 5e-324, 1e-300,
                          1e300, -1e300, 1.7e308, 10 ** 400, float("inf"),
                          float("nan")])
WRONG = st.sampled_from([None, True, "x", "0.5", [], {}, {"a": 1}, [None],
                         [[0.5, 0.5]]])
VALUE = st.one_of(NUMBER, WRONG)
MASS = st.sampled_from([0.5, 0.1, 1.0, 3.0, 0.2, 0.7, 0.0, 5e-324, 1e-300,
                        1e300])
PARAMS = st.lists(st.sampled_from([3, 1, 2, 4, 0.5, 2.5, 0, -1, 5e-324,
                                   1e300]),
                  min_size=1, max_size=1)
THEOREM = st.sampled_from(["secant", "derivative", "taylor"])
DIVERGENCE_THEOREM = st.sampled_from(["derivative", "taylor"])


def _normalized(masses):
    total = sum(masses)
    return [m / total for m in masses] if total > 0 else masses


@st.composite
def _vector(draw, size):
    """A probability vector of ``size`` masses, now and then of another
    length or with non-numeric entries."""
    kind = draw(st.integers(0, 9))
    if kind < 8:
        size = size if kind < 7 else draw(st.integers(0, 3))
        return _normalized(draw(st.lists(MASS, min_size=size, max_size=size)))
    return draw(st.lists(VALUE, min_size=1, max_size=2))


@st.composite
def _functional(draw, interval):
    m, M = interval
    size = draw(st.integers(1, 3))
    nodes = draw(st.lists(st.sampled_from([(m + M) / 2, m, M, 0.5, 5e-324,
                                           -1, 1e300]),
                          min_size=size, max_size=size))
    return {"nodes": nodes, "weights": draw(_vector(size))}


INTERVALS = st.sampled_from([[0.2, 2.0], [0, 1], [-1, 1], [5e-324, 1],
                             [1e-300, 3], [0.1, 1e300], [-1e300, 1e300],
                             [1, 1], [2, 1]])
RATIO_INTERVALS = st.sampled_from([None, [0.5, 2], [5e-324, 3], [0.1, 1e301],
                                   [1e-300, 1e300], [0, 2], [1, 1]])


@st.composite
def _pair(draw):
    size = draw(st.integers(1, 3))
    return {"p": draw(_vector(size)), "q": draw(_vector(size))}


GENERATOR = st.one_of(
    st.fixed_dictionaries({"name": st.sampled_from(GENERATOR_NAMES)}),
    st.fixed_dictionaries({"name": st.just("renyi"), "params": PARAMS}))
PHI = st.one_of(
    st.fixed_dictionaries({"name": st.sampled_from(BUILTIN_NAMES)},
                          optional={"params": PARAMS}),
    GENERATOR,
    st.fixed_dictionaries({"poly": st.lists(NUMBER, min_size=1, max_size=5)}))


@st.composite
def _laws(draw):
    """Two Zipf-Mandelbrot laws, now and then of different lengths."""
    sizes = st.sampled_from([5, 40, 2, 1])
    size = draw(sizes)
    return {key: {"N": draw(st.one_of(st.just(size), st.just(size), sizes)),
                  "q": draw(st.sampled_from([0, 0.5, 2, 3, 5e-324, 1e300])),
                  "s": draw(st.sampled_from([1, 2, 0.5, 3, 1.5, 1e-300, 1000,
                                             1e300]))}
            for key in ("a", "b")}


@st.composite
def _bounds(draw):
    interval = draw(INTERVALS)
    return {"functional": draw(_functional(interval)), "interval": interval,
            "phi": draw(PHI), "theorem": draw(THEOREM)}


@st.composite
def _means(draw):
    interval = draw(st.sampled_from([[0.2, 2.0], [5e-324, 1], [1e-300, 1e300],
                                     [0.5, 0.5000001]]))
    return {"functional": draw(_functional(interval)), "interval": interval,
            "distributions": draw(_pair()),
            "gamma_index": draw(st.sampled_from([*range(1, 11), 0, 11])),
            "phi": {"name": draw(st.sampled_from(["upsilon1", "upsilon2"]))},
            "params": {"s": draw(PARAMS)[0], "t": draw(PARAMS)[0]}}


WELL_FORMED = {
    "bounds": _bounds(),
    "divergence": st.fixed_dictionaries({
        "distributions": _pair(), "phi": GENERATOR,
        "interval": RATIO_INTERVALS, "theorem": DIVERGENCE_THEOREM}),
    "zipf": st.fixed_dictionaries({
        "zm": _laws(), "phi": GENERATOR,
        "theorem": DIVERGENCE_THEOREM}),
    "means": _means(),
}


@st.composite
def _payload(draw, command):
    """A well-formed payload with at most one field dropped or of the
    wrong type."""
    payload = draw(WELL_FORMED[command])
    key = draw(st.sampled_from([None] * len(payload) + list(payload)))
    if key is not None:
        if draw(st.booleans()):
            del payload[key]
        else:
            payload[key] = draw(VALUE)
    return payload


def _check_contract(argv: list[str]) -> None:
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = main(argv)
    assert status in (0, 1, 2), argv
    if status == 1:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)
        assert out.getvalue() == ""
    else:
        assert json.loads(out.getvalue())["command"] == argv[0]


def _command_test(command: str):
    @CONTRACT
    @given(payload=_payload(command))
    def test(payload):
        _check_contract([command, "--input", json.dumps(payload)])

    return test


test_bounds_payloads_meet_contract = _command_test("bounds")
test_divergence_payloads_meet_contract = _command_test("divergence")
test_zipf_payloads_meet_contract = _command_test("zipf")
test_means_payloads_meet_contract = _command_test("means")

FLAG = st.sampled_from(["0", "1", "-1", "1.5", "x", "nan", "inf", "1e-9",
                        "5e-324", "1e300"])


@CONTRACT
@given(seed=st.sampled_from(["0", "1", "-1", "x"]),
       instances=st.sampled_from(["0", "1", "7", "-1", "1.5", "x"]),
       tolerance=FLAG)
def test_verify_flags_meet_contract(seed, instances, tolerance):
    _check_contract(["verify", "--seed", seed, "--instances", instances,
                     "--tolerance", tolerance])


def _law(N):
    return {"N": N, "q": 0, "s": 1}


GOOD_BOUNDS = {"functional": {"nodes": [0.5, 1.2], "weights": [0.4, 0.6]},
               "interval": [0.2, 2.0], "phi": {"name": "cubic"}}
GOOD_MEANS = {**GOOD_BOUNDS, "phi": {"name": "upsilon2"},
              "params": {"s": 1, "t": 2}}


@pytest.mark.parametrize("command,payload", [
    ("zipf", {"zm": {"a": _law(10**13), "b": _law(10**13)}, "phi": {"name": "kl"}}),
    ("zipf", {"zm": {"a": _law(10**7 + 1), "b": _law(2)}, "phi": {"name": "kl"}}),
    ("zipf", {"zm": {"a": _law(2), "b": {"N": 2, "q": False, "s": 2}},
              "phi": {"name": "kl"}}),
    ("bounds", {**GOOD_BOUNDS, "functional": {"nodes": [0.5, 1.2],
                                              "weights": [True, False]}}),
    ("bounds", {**GOOD_BOUNDS, "functional": {"nodes": [0.5], "weights": [1]},
                "interval": [False, True]}),
    ("bounds", {**GOOD_BOUNDS, "phi": {"poly": [0, 0, 0, True]}}),
    ("divergence", {"distributions": {"p": [True], "q": [1.0]},
                    "interval": [0.5, 2], "phi": {"name": "kl"}}),
    ("means", {**GOOD_MEANS, "gamma_index": True}),
    ("means", {**GOOD_MEANS, "params": {"s": True, "t": 2}}),
], ids=["zipf-N-1e13", "zipf-N-limit-plus-1", "zipf-q-false",
        "bounds-weights-booleans", "bounds-interval-booleans",
        "bounds-poly-boolean", "divergence-p-true", "means-index-true",
        "means-s-true"])
def test_refused_payloads_meet_contract(command, payload, capsys):
    """Booleans where numbers belong, in payloads that run when they are
    read as 1 and 0, and laws above the rank limit exit 1 under the
    contract."""
    argv = [command, "--input", json.dumps(payload)]
    _check_contract(argv)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 1
