"""The refusal table: what every bound pass gives, a refusal or a result,
for each combination of bundle faults, interval and theorem order.

The bundle is x^3 on [0, inf) or on the interval itself (with or without
one-sided slopes stored at its ends), inf from a cut point on, with a
first derivative that is present, missing, raising on scalars or defined
only at the interval's ends, and a second derivative present or missing.
The interval holds a node of the functional (and a ratio of the
divergence pair) on both ends, on m alone, on M alone or on neither.
Each pass runs on every theorem, every ordered choice of theorems, or
every index it takes.

``golden/refusal-table.json`` holds each outcome of the table as one
character per pass in a row per bundle and interval, the distinct
outcomes they stand for, and a sha256 of the results of the passes that
are not refused.  After an intended change of what a pass refuses,
regenerate it and review the diff:

    PYTHONPATH=src python tests/test_refusal_table.py

One class of inputs is kept out of the table (``DOUBLE_FAULT``): phi
infinite at M, which holds no node, and a phi' that raises on scalars at
m, which holds one, so that a pass meets two faults at its ends.  Its own
test pins it: a pass's one endpoint read refuses phi at the ends first.
"""

import hashlib
import itertools
import json
import math
import warnings
from pathlib import Path

import numpy as np

from elrbounds.divergences import DIVERGENCE_THEOREMS, GeneratorFunction, divergence_pass
from elrbounds.divided_diff import FunctionBundle
from elrbounds.elr_bounds import (ORIENT_DIRECT, THEOREMS, _moments_and_ends, _pair_reports,
                                  bounds, elr_difference, jensen_gap_bounds, theorem_triple)
from elrbounds.expconv import divergence_context, elr_context, gamma
from elrbounds.functionals import make_functional, moments

GOLDEN = Path(__file__).resolve().parent / "golden" / "refusal-table.json"

F = make_functional([0.5, 1.0, 2.0], [0.25, 0.5, 0.25])
P, Q = [0.2, 0.3, 0.5], [0.4, 0.35, 0.25]  # ratios 0.5, 6/7 and 2.0

# [m, M] by the ends that hold a node of F and a ratio of P / Q
INTERVALS = {"both": (0.5, 2.0), "m": (0.5, 4.0), "M": (0.25, 2.0), "none": (0.25, 4.0)}
# phi is inf from the cut on: nowhere, from the node 2.0, or at M = 4.0 alone
CUTS = (math.inf, 1.5, 3.0)
D1S = ("present", "missing", "raises-on-scalars", "ends-only")
D2S = ("present", "missing")
DOMAINS = ("half-line", "interval", "interval+slopes")

# phi infinite at M, which holds no node, and phi' raising at m, which holds
# one, read there from the two-sided callable
DOUBLE_FAULT = {"cut": 3.0, "d1": "raises-on-scalars", "ends": "m",
                "domain": ("half-line", "interval")}

CODES = "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"


def cube(m, M, cut, d1, d2, domain):
    """x^3, inf from ``cut`` on, with the faults named by ``d1``, ``d2``
    and ``domain`` on [m, M]; its d3 is 6, so it is certified directly."""
    def slope(t):
        return 3.0 * t ** 2

    def raises_on_scalars(t):
        return 1 / 0 if np.ndim(t) == 0 else slope(t)

    def ends_only(t):
        if np.ndim(t) or float(t) not in (m, M):
            raise ValueError("phi' off the ends")
        return slope(t)

    lo, hi = (0.0, math.inf) if domain == "half-line" else (m, M)
    stored = {"d1_plus_at_lo": slope(m), "d1_minus_at_hi": slope(M)} if domain.endswith(
        "+slopes") else {}
    return FunctionBundle(
        domain_lo=lo, domain_hi=hi, f=lambda t: np.where(t < cut, t ** 3, np.inf),
        d1={"present": slope, "missing": None, "raises-on-scalars": raises_on_scalars,
            "ends-only": ends_only}[d1],
        d2={"present": lambda t: 6.0 * t, "missing": None}[d2],
        d3=lambda t: 6.0 + 0.0 * t, name="cube", **stored)


def passes(bundle, m, M):
    """(label, call) of every pass on the bundle and [m, M]."""
    gen = GeneratorFunction(bundle=bundle, name="cube")
    ordered = [seq for r in range(1, 4) for seq in itertools.permutations(THEOREMS, r)]
    yield from ((f"bounds[{t}]", lambda t=t: bounds(t, F, bundle, m, M)) for t in THEOREMS)
    yield from ((f"pair_reports[{','.join(seq)}]",
                 lambda seq=seq: _pair_reports(*_moments_and_ends(F, bundle, m, M, seq),
                                               bundle, m, M, seq, ORIENT_DIRECT))
                for seq in ordered)
    for seq in (seq for r in (1, 2) for seq in itertools.permutations(DIVERGENCE_THEOREMS, r)):
        yield (f"divergence_pass[auto,{','.join(seq)}]",
               lambda seq=seq: divergence_pass(P, Q, gen, theorems=seq))
        yield (f"divergence_pass[{','.join(seq)}]",
               lambda seq=seq: divergence_pass(P, Q, gen, m, M, seq))
    yield from ((f"jensen_gap_bounds[{v}]", lambda v=v: jensen_gap_bounds(F, bundle, m, M, v))
                for v in ("derivative", "taylor"))
    yield from ((f"theorem_triple[{t}]", lambda t=t: theorem_triple(
        t, moments(F, bundle, m, M), bundle, m, M)) for t in THEOREMS)
    yield "elr_difference", lambda: elr_difference(F, bundle, m, M)
    yield from ((f"gamma[{i}]", lambda i=i: gamma(elr_context(i, F, m, M), bundle))
                for i in range(1, 7))
    yield from ((f"gamma[{i}]", lambda i=i: gamma(divergence_context(i, P, Q, m, M), bundle))
                for i in range(7, 11))


def blocks(double_fault=False):
    """(row label, bundle, m, M) of each row of the table, or with
    ``double_fault`` of the class left out of it."""
    for cut, d1, d2, domain, ends in itertools.product(CUTS, D1S, D2S, DOMAINS, INTERVALS):
        fault = (cut == DOUBLE_FAULT["cut"] and d1 == DOUBLE_FAULT["d1"]
                 and ends == DOUBLE_FAULT["ends"] and domain in DOUBLE_FAULT["domain"])
        if fault == double_fault:
            m, M = INTERVALS[ends]
            yield (f"cut={cut} d1={d1} d2={d2} domain={domain} nodes-on={ends}",
                   cube(m, M, cut, d1, d2, domain), m, M)


def outcome(call):
    """(outcome, result): the refusal as "Type: message", or "ok" and the
    repr of what the pass returned."""
    try:
        result = call()
    except Exception as error:  # every refusal is an outcome of the table
        return f"{type(error).__name__}: {error}", None
    return "ok", repr(result)


def table(rows):
    """({row label: [(pass label, outcome)]}, sha256 of the results)."""
    digest = hashlib.sha256()
    out = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for label, bundle, m, M in rows:
            out[label] = []
            for name, call in passes(bundle, m, M):
                got, result = outcome(call)
                out[label].append((name, got))
                if result is not None:
                    digest.update(f"{label} {name} {result}\n".encode())
    return out, digest.hexdigest()


def encoded(rows):
    """The golden form of a table: its outcomes, pass labels, one code
    string per row and the sha256 of its results."""
    found, sha = table(rows)
    outcomes = list(dict.fromkeys(got for row in found.values() for _, got in row))
    assert len(outcomes) <= len(CODES)
    labels = [name for name, _ in next(iter(found.values()))]
    return {"outcomes": outcomes, "passes": labels,
            "rows": {label: "".join(CODES[outcomes.index(got)] for _, got in row)
                     for label, row in found.items()},
            "results_sha256": sha}


def test_every_pass_refuses_as_pinned():
    expected = json.loads(GOLDEN.read_text())
    got = encoded(blocks())
    assert got["passes"] == expected["passes"]
    assert got["rows"].keys() == expected["rows"].keys()
    changed = [(label, expected["passes"][i], expected["outcomes"][CODES.index(want)],
                got["outcomes"][CODES.index(have)])
               for label, codes in expected["rows"].items()
               for i, (want, have) in enumerate(zip(codes, got["rows"][label]))
               if expected["outcomes"][CODES.index(want)]
               != got["outcomes"][CODES.index(have)]]
    assert changed == [], f"{len(changed)} changed, first: {changed[:10]}"
    assert got["results_sha256"] == expected["results_sha256"]


def test_table_covers_every_fault():
    expected = json.loads(GOLDEN.read_text())
    rows = len(CUTS) * len(D1S) * len(D2S) * len(DOMAINS) * len(INTERVALS)
    assert len(expected["rows"]) == rows - len(DOUBLE_FAULT["domain"]) * len(D2S)
    assert len(expected["passes"]) == 42


ENDS_NOT_FINITE = "ValueError: function values at the interval endpoints must be finite"


def test_double_fault_refuses_phi_at_the_ends_first():
    """A bound pass reads phi and phi' at m and M in one read, which refuses
    phi infinite at M before phi' raises at m, as it refuses it before a
    derivative the bundle lacks; elr_difference reads no phi' at all.  The
    public ``moments`` ahead of theorem_triple reads phi' at the node on m
    first, and the divergence pass on its own interval [0.5, 2.0] has phi
    finite at both ends: they keep the ZeroDivisionError of phi'."""
    found, _ = table(blocks(double_fault=True))
    assert len(found) == len(DOUBLE_FAULT["domain"]) * len(D2S)
    for row in found.values():
        for name, got in row:
            first_moments = name.startswith(("theorem_triple", "divergence_pass[auto"))
            assert got == ("ZeroDivisionError: division by zero" if first_moments
                           else ENDS_NOT_FINITE), name


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(encoded(blocks()), indent=1) + "\n")
