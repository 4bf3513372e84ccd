"""The four benchmark workloads: input generation, the timed op, and an
independent check of every output.

Each workload is a closed loop with one caller.  Op ``i`` of a run draws
its input from a generator seeded by ``(seed, workload tag, i)`` only, so
the same seed gives the same inputs in every run and in every process.
The op calls the library the way a user does: through ``cli.run`` and
``cli.dump_report`` for the command workloads, through the public library
functions for ``means``.  Library functions are always looked up as module
attributes at call time, so the tracer can replace them in place.

The checks recompute what they can from closed forms in plain numpy,
without calling the library, and return a list of failure messages (empty
when the output is correct).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from elrbounds import cli, expconv, functionals, stolarsky_means

BRACKET_TOL = 1e-9      # criteria 4 and 7: brackets and means hold to 1e-9
MATCH_RTOL = 1e-12      # recomputed divergence, mid and normalizer
VERIFY_INSTANCES = 400  # one fuzzer bundle batch per verify op
# The warm-up op of every process runs input 0 of this seed on stream 1,
# whatever the run's seed, and carries the planted fault.
CANARY_SEED = 0


def _rng(seed: int, tag: int, stream: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, tag, stream, index])


def unwrapped(bundle):
    """The ``wrap_d3`` of an untraced op: the bundle as it is."""
    return bundle


# ---------------------------------------------------------------------------
# closed forms of the five divergence generators, independent of the library
# ---------------------------------------------------------------------------

GENERATOR_FORMS: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "kl": lambda t: t * np.log(t),
    "hellinger": lambda t: 0.5 * (1.0 - np.sqrt(t)) ** 2,
    "harmonic": lambda t: 2.0 * t / (1.0 + t),
    "jeffreys": lambda t: (t - 1.0) * np.log(t),
    "renyi": lambda t: t ** 3.0,  # alpha = 3 is the only renyi spec drawn
}


def _phi_spec(name: str) -> dict:
    return {"name": "renyi", "params": [3.0]} if name == "renyi" else {"name": name}


def _is_number(value) -> bool:
    # the report writer prints integral floats without a fraction ("0")
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _close(value, reference: float, scale: float) -> bool:
    """Relative agreement, measured against the size of the summed terms
    so that cancellation in the reference does not count as disagreement."""
    if not _is_number(value):
        return False
    return abs(value - reference) <= MATCH_RTOL * max(abs(reference), scale)


def _check_divergence_report(report: dict, p: np.ndarray, q: np.ndarray,
                             name: str, interval: tuple[float, float]) -> list[str]:
    """Divergence value, ELR mid and brackets of a parsed divergence or zipf
    report against the closed form of the generator."""
    phi = GENERATOR_FORMS[name]
    errors = []
    ratios = p / q
    terms = q * phi(ratios)
    divergence = math.fsum(terms)
    div_scale = math.fsum(np.abs(terms))
    if not _close(report.get("divergence"), divergence, div_scale):
        errors.append(f"divergence {report.get('divergence')!r} != {divergence!r}")
    m, M = interval
    got = report.get("interval")
    if not (isinstance(got, list) and len(got) == 2
            and _close(got[0], m, abs(m)) and _close(got[1], M, abs(M))):
        errors.append(f"interval {got!r} != {[m, M]!r}")
    mean = math.fsum(q * ratios)
    phi_m, phi_M = float(phi(np.float64(m))), float(phi(np.float64(M)))
    chord_lo = (M - mean) * phi_m / (M - m)
    chord_hi = (mean - m) * phi_M / (M - m)
    mid = chord_lo + chord_hi - divergence
    # a rounding of m, M or the mean moves the chord by that much times
    # its slope, which dominates when m and M are close together
    slope = abs(phi_M - phi_m) / (M - m)
    mid_scale = (abs(chord_lo) + abs(chord_hi) + div_scale
                 + (abs(m) + abs(M) + abs(mean)) * slope)
    reports = report.get("reports")
    if not (isinstance(reports, list) and len(reports) == 2):
        return errors + [f"expected two bound reports, got {reports!r}"]
    for entry in reports:
        theorem = entry.get("theorem")
        if not _close(entry.get("mid"), mid, mid_scale):
            errors.append(f"{theorem}: mid {entry.get('mid')!r} != {mid!r}")
        lower, mid_got, upper = (entry.get(k) for k in ("lower", "mid", "upper"))
        if not all(_is_number(v) for v in (lower, mid_got, upper)):
            errors.append(f"{theorem}: non-numeric bound {entry!r}")
            continue
        lo, hi = (lower, upper) if entry.get("orientation") == "direct" else (upper, lower)
        if not lo - BRACKET_TOL <= mid_got <= hi + BRACKET_TOL:
            errors.append(f"{theorem}: mid {entry['mid']!r} escapes "
                          f"[{lo!r}, {hi!r}]")
    return errors


# ---------------------------------------------------------------------------
# verify: one 400-instance falsification batch through the CLI
# ---------------------------------------------------------------------------

def verify_input(seed: int, index: int, stream: int = 0) -> dict:
    rng = _rng(seed, 1, stream, index)
    return {"seed": int(rng.integers(2 ** 31))}


def verify_op(inp: dict, wrap_d3=unwrapped) -> tuple[int, dict]:
    config = cli.RunConfig(command="verify", payload={}, seed=inp["seed"],
                           instances=VERIFY_INSTANCES, tolerance=BRACKET_TOL)
    return cli.run(config)


def verify_check(inp: dict, result) -> list[str]:
    status, report = result
    errors = []
    if status != 0:
        errors.append(f"exit status {status}")
    if report.get("count") != VERIFY_INSTANCES:
        errors.append(f"count {report.get('count')!r} != {VERIFY_INSTANCES}")
    if report.get("seed") != inp["seed"]:
        errors.append(f"seed {report.get('seed')!r} != {inp['seed']}")
    if report.get("violations") != [] or report.get("max_violation") != 0.0:
        errors.append(f"report not clean: max violation "
                      f"{report.get('max_violation')!r}")
    return errors


# ---------------------------------------------------------------------------
# divergence: a Dirichlet pair under one generator, both theorems
# ---------------------------------------------------------------------------

DIVERGENCE_GENERATORS = ("kl", "hellinger", "harmonic", "jeffreys", "renyi")


def divergence_input(seed: int, index: int, stream: int = 0) -> dict:
    rng = _rng(seed, 2, stream, index)
    k = int(rng.integers(2, 9))
    p = rng.dirichlet(np.ones(k))
    q = rng.dirichlet(np.ones(k))
    name = DIVERGENCE_GENERATORS[int(rng.integers(len(DIVERGENCE_GENERATORS)))]
    return {"p": p, "q": q, "name": name,
            "payload": {"distributions": {"p": p.tolist(), "q": q.tolist()},
                        "phi": _phi_spec(name)}}


def divergence_op(inp: dict, wrap_d3=unwrapped) -> tuple[int, str]:
    status, report = cli.run(cli.RunConfig(command="divergence",
                                           payload=inp["payload"]))
    return status, cli.dump_report(report)


def divergence_check(inp: dict, result) -> list[str]:
    status, text = result
    if status != 0:
        return [f"exit status {status}"]
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"report is not JSON: {exc}"]
    p, q = inp["p"], inp["q"]
    ratios = p / q
    interval = (min(float(ratios.min()), 1.0), max(float(ratios.max()), 1.0))
    return _check_divergence_report(report, p, q, inp["name"], interval)


# ---------------------------------------------------------------------------
# zipf: two Zipf-Mandelbrot laws of one length, N log-uniform in [1e2, 1e4]
# ---------------------------------------------------------------------------

ZIPF_GENERATORS = ("kl", "hellinger", "harmonic", "renyi")


def zipf_input(seed: int, index: int, stream: int = 0) -> dict:
    rng = _rng(seed, 3, stream, index)
    N = int(round(10.0 ** rng.uniform(2.0, 4.0)))
    laws = [{"N": N, "q": float(rng.uniform(0.0, 5.0)),
             "s": float(rng.uniform(0.2, 4.0))} for _ in range(2)]
    name = ZIPF_GENERATORS[int(rng.integers(len(ZIPF_GENERATORS)))]
    return {"laws": laws, "name": name,
            "payload": {"zm": {"a": laws[0], "b": laws[1]},
                        "phi": _phi_spec(name)}}


def zipf_op(inp: dict, wrap_d3=unwrapped) -> tuple[int, str]:
    status, report = cli.run(cli.RunConfig(command="zipf",
                                           payload=inp["payload"]))
    return status, cli.dump_report(report)


def _zipf_terms(law: dict) -> np.ndarray:
    return (np.arange(1, law["N"] + 1, dtype=float) + law["q"]) ** (-law["s"])


def zipf_check(inp: dict, result) -> list[str]:
    """Each normalizer against ``math.fsum`` of the terms; then the
    divergence checks on the terms divided by the reported normalizers.
    Two close laws make the divergence a small difference of large terms,
    so a last-bit difference in a normalizer, which criterion 5 allows,
    would otherwise show up in it many times over."""
    status, text = result
    if status != 0:
        return [f"exit status {status}"]
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"report is not JSON: {exc}"]
    pmfs = []
    for key, law in zip(("zm_a", "zm_b"), inp["laws"]):
        terms = _zipf_terms(law)
        exact = math.fsum(terms)
        got = (report.get(key) or {}).get("normalizer")
        if not _close(got, exact, exact):
            return [f"{key} normalizer {got!r} != {exact!r}"]
        pmfs.append(terms / got)
    p, q = pmfs
    ratios = p / q
    interval = (float(ratios.min()), float(ratios.max()))
    return _check_divergence_report(report, p, q, inp["name"], interval)


# ---------------------------------------------------------------------------
# means: one criterion-7 instance through the library
# ---------------------------------------------------------------------------

def counting_d3(on_eval: Callable[[], None]):
    """A ``wrap_d3`` for means_op that calls ``on_eval`` once per
    evaluation of the inverted map (cauchy_xi calls the first bundle's d3
    once per evaluation, mvt_xi its only bundle's)."""
    def wrap(bundle):
        d3 = bundle.d3

        def counted(x):
            on_eval()
            return d3(x)

        return replace(bundle, d3=counted)

    return wrap


def means_input(seed: int, index: int, stream: int = 0) -> dict:
    rng = _rng(seed, 4, stream, index)
    if rng.random() < 0.8:
        m = float(rng.uniform(0.1, 1.2))
        M = m + float(rng.uniform(0.4, 2.0))
        k = int(rng.integers(2, 10))
        width = M - m
        nodes = rng.uniform(m + 0.05 * width, M - 0.05 * width, k)
        weights = rng.uniform(0.2, 1.0, k)
        ctx = {"kind": "elr", "index": int(rng.integers(1, 7)), "m": m, "M": M,
               "nodes": nodes, "weights": weights / weights.sum()}
    else:
        k = int(rng.integers(3, 8))
        p = rng.dirichlet(np.ones(k) * 3.0)
        q = rng.dirichlet(np.ones(k) * 3.0)
        ratios = p / q
        ctx = {"kind": "divergence", "index": int(rng.integers(7, 11)),
               "p": p, "q": q,
               "m": min(float(ratios.min()), 1.0),
               "M": max(float(ratios.max()), 1.0)}
    s, t = (float(v) for v in rng.uniform(-2.0, 5.0, 2))
    family = "upsilon1" if rng.random() < 0.5 else "upsilon2"
    return {"ctx": ctx, "s": s, "t": t, "family": family}


def means_op(inp: dict, wrap_d3=unwrapped) -> tuple[float, float, float]:
    """``wrap_d3`` wraps the third derivative of each bundle passed to a
    mean-value inversion; the traced run uses it to count map evaluations."""
    spec = inp["ctx"]
    if spec["kind"] == "elr":
        functional = functionals.make_functional(spec["nodes"], spec["weights"])
        ctx = expconv.elr_context(spec["index"], functional, spec["m"], spec["M"])
    else:
        ctx = expconv.divergence_context(spec["index"], spec["p"], spec["q"])
    s, t = inp["s"], inp["t"]
    if inp["family"] == "upsilon1":
        mean = stolarsky_means.mean_B1(ctx, s, t)
        member_s, member_t = stolarsky_means.upsilon1(s), stolarsky_means.upsilon1(t)
    else:
        mean = stolarsky_means.mean_M2(ctx, s, t)
        member_s, member_t = stolarsky_means.upsilon2(s), stolarsky_means.upsilon2(t)
    cauchy = stolarsky_means.cauchy_xi(ctx, wrap_d3(member_s.bundle), member_t.bundle)
    mvt = stolarsky_means.mvt_xi(ctx, wrap_d3(member_s.bundle))
    return mean, cauchy.xi, mvt.xi


def means_check(inp: dict, result) -> list[str]:
    m, M = inp["ctx"]["m"], inp["ctx"]["M"]
    errors = []
    for label, value in zip(("mean", "cauchy_xi", "mvt_xi"), result):
        if not (_is_number(value) and m - BRACKET_TOL <= value <= M + BRACKET_TOL):
            errors.append(f"{label} {value!r} escapes [{m!r}, {M!r}]")
    return errors


# ---------------------------------------------------------------------------
# workload table and planted faults
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    make_input: Callable[..., dict]
    op: Callable[..., object]
    check: Callable[[dict, object], list]
    traced_ops: int  # fixed op count of a traced pass, for exact counters


WORKLOADS = {
    "verify": Workload(verify_input, verify_op, verify_check, 30),
    "divergence": Workload(divergence_input, divergence_op, divergence_check, 3000),
    "zipf": Workload(zipf_input, zipf_op, zipf_check, 800),
    "means": Workload(means_input, means_op, means_check, 1500),
}


def canary_input(name: str) -> dict:
    return WORKLOADS[name].make_input(CANARY_SEED, 0, stream=1)


def plant_fault(name: str, inp: dict, result):
    """A copy of a correct result with one planted error: the ELR ``mid``
    shifted by 1e-6 for the divergence workloads, a lost instance for
    ``verify``, and a mean-value point 1e-6 beyond M for ``means``."""
    if name in ("divergence", "zipf"):
        status, text = result
        report = json.loads(text)
        report["reports"][0]["mid"] += 1e-6
        return status, cli.dump_report(report)
    if name == "verify":
        status, report = result
        return status, {**report, "count": report["count"] - 1}
    mean, cauchy, mvt = result
    return mean, cauchy, inp["ctx"]["M"] + 1e-6
