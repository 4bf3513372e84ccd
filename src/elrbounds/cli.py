"""Command line front end.

Subcommands:

* ``bounds``     -- bound pairs for a discrete functional and a target
                    function on an interval;
* ``divergence`` -- f-divergence value and bound pairs for two
                    distributions;
* ``zipf``       -- the same for two Zipf-Mandelbrot laws;
* ``means``      -- two-parameter means from the functional families;
* ``verify``     -- randomized falsification run over the bound chains.

Input is a JSON object given inline, as a file path, or as ``-`` for
stdin.  Reports are JSON with a fixed float format (17 significant
digits) so identical inputs and seeds reproduce byte-identical output.
Exit status: 0 on success, 1 on input errors, 2 when verification finds a
genuine bracket violation.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, fields
from functools import cache
from pathlib import Path

from .divergences import DIVERGENCE_THEOREMS, divergence_pass
from .divided_diff import _check_order
from .elr_bounds import (THEOREMS, BoundReport, _certified, _check_theorems,
                         _moments_and_ends, _pair_reports)
from .expconv import _check_index, divergence_context, elr_context
from .functionals import make_functional
from .fuzzing import TOLERANCE, bracket_fuzz
from .registry import number, resolve_generator, resolve_phi
from .stolarsky_means import mean_B1, mean_M2
from .zipf_mandelbrot import zm_distribution, zm_divergence_pass

__all__ = ["RunConfig", "run", "main"]


@dataclass
class RunConfig:
    command: str
    payload: dict
    seed: int = 0
    instances: int = 1000
    tolerance: float = TOLERANCE


# ---------------------------------------------------------------------------
# deterministic JSON emission
# ---------------------------------------------------------------------------

_encode_str = json.encoder.encode_basestring_ascii  # what json.dumps(str) returns
_LITERALS = {True: "true", False: "false", None: "null"}


def _write_float(obj, pad: str, out: list) -> None:
    if math.isfinite(obj):
        out.append(format(obj, ".17g"))
    else:
        out.append('"nan"' if math.isnan(obj) else '"inf"' if obj > 0 else '"-inf"')


def _write_str(obj, pad: str, out: list) -> None:
    out.append(_encode_str(obj))


def _write_literal(obj, pad: str, out: list) -> None:
    out.append(_LITERALS[obj])


def _write_int(obj, pad: str, out: list) -> None:
    out.append(str(obj))


def _write_dict(obj, pad: str, out: list) -> None:
    if not obj:
        out.append("{}")
        return
    inner = pad + "  "
    sep = "{\n" + inner
    for k, v in obj.items():
        out.append(sep + _encode_str(str(k)) + ": ")
        _WRITERS.get(type(v), _write_other)(v, inner, out)
        sep = ",\n" + inner
    out.append("\n" + pad + "}")


def _write_list(obj, pad: str, out: list) -> None:
    if not obj:
        out.append("[]")
        return
    inner = pad + "  "
    sep = "[\n" + inner
    for v in obj:
        out.append(sep)
        _WRITERS.get(type(v), _write_other)(v, inner, out)
        sep = ",\n" + inner
    out.append("\n" + pad + "]")


# the writer of each exact type a report holds
_WRITERS = {float: _write_float, str: _write_str, dict: _write_dict,
            list: _write_list, tuple: _write_list, bool: _write_literal,
            type(None): _write_literal, int: _write_int}


def _write_other(obj, pad: str, out: list) -> None:
    # a subclass writes as its base in _WRITERS (np.float64 as a float, an
    # IntEnum as an int); their instance layouts clash, so it has at most one
    for cls in type(obj).__mro__:
        if cls in _WRITERS:
            _WRITERS[cls](obj, pad, out)
            return
    out.append(json.dumps(obj))  # raises json's TypeError on any other type


def dump_report(report: dict) -> str:
    """``report`` as indented JSON, two spaces per level, written piece by
    piece to one list and joined once; floats have 17 significant digits,
    and nan and +-inf are strings."""
    out = []
    _WRITERS.get(type(report), _write_other)(report, "", out)
    out.append("\n")
    return "".join(out)


def _bound_report_dict(report: BoundReport) -> dict:
    return {
        "theorem": report.theorem_tag,
        "orientation": report.orientation,
        "lower": report.lower,
        "mid": report.mid,
        "upper": report.upper,
        "details": dict(report.details),
    }


# ---------------------------------------------------------------------------
# payload helpers
# ---------------------------------------------------------------------------

def _need(payload: dict, key: str):
    if key not in payload:
        raise ValueError(f"missing required field {key!r}")
    return payload[key]


def _need_object(payload: dict, key: str, fields: tuple = ()) -> dict:
    spec = _need(payload, key)
    if not isinstance(spec, dict) or any(f not in spec for f in fields):
        carrying = " carrying " + ", ".join(map(repr, fields)) if fields else ""
        raise ValueError(f"{key!r} must be an object{carrying}")
    return spec


def _parse_interval(payload: dict, required: bool = True):
    """[m, M] as floats; (None, None) when optional and absent."""
    if not required and payload.get("interval") is None:
        return None, None
    interval = _need(payload, "interval")
    if not (isinstance(interval, list) and len(interval) == 2):
        raise ValueError('"interval" must be [m, M]')
    m, M = (number(end, "interval end") for end in interval)
    _check_order(m, M)
    return m, M


def _parse_functional(payload: dict):
    spec = _need_object(payload, "functional")
    return make_functional(spec.get("nodes", []), spec.get("weights", []))


def _parse_theorems(payload: dict, allowed=THEOREMS):
    requested = payload.get("theorem")
    if requested is None:
        return list(allowed)
    _check_theorems((requested,), allowed)
    return [requested]


def _parse_distributions(payload: dict):
    spec = _need_object(payload, "distributions", ("p", "q"))
    return spec["p"], spec["q"]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _run_bounds(config: RunConfig) -> tuple[int, dict]:
    payload = config.payload
    functional = _parse_functional(payload)
    m, M = _parse_interval(payload)
    bundle = resolve_phi(_need_object(payload, "phi"))
    theorems = _parse_theorems(payload)
    cert, orientation = _certified(bundle, m, M)
    reports = _pair_reports(*_moments_and_ends(functional, bundle, m, M, theorems), bundle,
                            m, M, theorems, orientation)
    return 0, {
        "command": "bounds",
        "inputs": payload,
        "interval": [m, M],
        "phi": bundle.name,
        "convexity": {"verdict": cert.verdict,
                      "min_witness": cert.min_witness,
                      "grid_size": cert.grid_size},
        "reports": [_bound_report_dict(r) for r in reports],
    }


def _divergence_report(command: str, payload: dict, gen, value: float,
                       reports, **extra) -> dict:
    return {
        "command": command,
        "inputs": payload,
        **extra,
        "generator": gen.name,
        "direction": gen.direction,
        "divergence": value,
        "interval": [reports[0].details["m"], reports[0].details["M"]],
        "reports": [_bound_report_dict(r) for r in reports],
    }


def _run_divergence(config: RunConfig) -> tuple[int, dict]:
    payload = config.payload
    p, q = _parse_distributions(payload)
    gen = resolve_generator(_need_object(payload, "phi"))
    m, M = _parse_interval(payload, required=False)
    theorems = _parse_theorems(payload, allowed=DIVERGENCE_THEOREMS)
    value, reports = divergence_pass(p, q, gen, m, M, theorems)
    return 0, _divergence_report("divergence", payload, gen, value, reports)


def _run_zipf(config: RunConfig) -> tuple[int, dict]:
    payload = config.payload
    spec = _need_object(payload, "zm", ("a", "b"))
    try:
        a, b = (zm_distribution(number(spec[k]["N"], "N", integral=True),
                                number(spec[k]["q"], "q"),
                                number(spec[k]["s"], "s")) for k in ("a", "b"))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"bad zm specification: {exc}") from exc
    gen = resolve_generator(_need_object(payload, "phi"))
    theorems = _parse_theorems(payload, allowed=DIVERGENCE_THEOREMS)
    value, reports = zm_divergence_pass(a, b, gen, theorems)
    return 0, _divergence_report("zipf", payload, gen, value, reports,
                                 zm_a=a.params(), zm_b=b.params())


# the two-parameter mean of each family that "phi" names
_MEANS = {"upsilon1": mean_B1, "upsilon2": mean_M2}


def _run_means(config: RunConfig) -> tuple[int, dict]:
    payload = config.payload
    index = number(payload.get("gamma_index", 1), "gamma_index", integral=True)
    params = _need_object(payload, "params", ("s", "t"))
    s, t = number(params["s"], "params s"), number(params["t"], "params t")
    phi = _need_object(payload, "phi")
    family = phi.get("name")
    if not (isinstance(family, str) and family in _MEANS):
        raise ValueError('means needs "phi" with name "upsilon1" or "upsilon2", '
                         f"got {family!r}")
    if phi.get("params", []) != []:
        raise ValueError(f"{family} takes no params in means: s and t pick its members")
    _check_index(index)
    if index <= 6:
        functional = _parse_functional(payload)
        m, M = _parse_interval(payload)
        ctx = elr_context(index, functional, m, M)
    else:
        p, q = _parse_distributions(payload)
        m, M = _parse_interval(payload, required=False)
        ctx = divergence_context(index, p, q, m=m, M=M)
    if ctx.m <= 0:
        raise ValueError("means require an interval inside the positive "
                         "half line")
    mean = _MEANS[family](ctx, s, t)
    return 0, {
        "command": "means",
        "inputs": payload,
        "gamma_index": index,
        "family": family,
        "interval": [ctx.m, ctx.M],
        "s": s,
        "t": t,
        "mean": mean,
    }


def _run_verify(config: RunConfig) -> tuple[int, dict]:
    result = bracket_fuzz(seed=config.seed, instances=config.instances,
                          tolerance=config.tolerance)
    report = {
        "command": "verify",
        "seed": result.seed,
        "instances": result.count,
        "tolerance": config.tolerance,
        "count": result.count,
        "max_violation": result.max_violation,
        "violations": result.violations,
    }
    return (0 if result.clean else 2), report


_RUNNERS = {
    "bounds": _run_bounds,
    "divergence": _run_divergence,
    "zipf": _run_zipf,
    "means": _run_means,
    "verify": _run_verify,
}


def run(config: RunConfig) -> tuple[int, dict]:
    """Execute one command; returns (exit status, report)."""
    runner = _RUNNERS.get(config.command)
    if runner is None:
        raise ValueError(f"unknown command {config.command!r}")
    return runner(config)


# ---------------------------------------------------------------------------
# argument parsing and entry point
# ---------------------------------------------------------------------------

def _load_payload(raw: str | None) -> dict:
    if raw is None:
        return {}
    if raw == "-":
        text = sys.stdin.read()
    elif raw.lstrip().startswith("{"):
        text = raw
    elif Path(raw).exists():
        text = Path(raw).read_text()
    else:
        # JSON that is not an object ("[1, 2]") is refused as such, not as
        # a file name
        try:
            json.loads(raw)
        except json.JSONDecodeError:
            raise ValueError(f"input file not found: {raw}") from None
        text = raw
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"malformed input at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from exc
    if not isinstance(payload, dict):
        raise ValueError("input must be a JSON object")
    return payload


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # a usage error is an input error (exit 1): argparse's own exit
        # status 2 would read as a bracket violation
        raise ValueError(message)


@cache  # one parser per process: parse_args leaves it as it was
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="elrbounds",
        description="Bound pairs for 3-convex functions, f-divergences, "
                    "Zipf-Mandelbrot laws and Stolarsky-type means.")
    parser.add_argument("command", choices=sorted(_RUNNERS))
    parser.add_argument("--input", help="JSON object, file path, or - for stdin")
    parser.add_argument("--output", help="report path (default stdout)")
    # RunConfig's fields after command and payload: the run options and their defaults
    for option in fields(RunConfig)[2:]:
        parser.add_argument(f"--{option.name}", type=type(option.default),
                            default=option.default)
    return parser


def main(argv: list[str] | None = None) -> int:
    # the one exit-1 boundary: usage and parse errors and the library's own
    # input checks are all ValueErrors, an input or report path that cannot
    # be used is an OSError; anything else is a bug and propagates
    try:
        args = build_parser().parse_args(argv)
        payload = _load_payload(args.input)
        options = {option.name: getattr(args, option.name)
                   for option in fields(RunConfig)[2:]}
        status, report = run(RunConfig(command=args.command, payload=payload, **options))
        text = dump_report(report)
        if args.output:
            Path(args.output).write_text(text)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: cannot use path {exc.filename!r}: {exc.strerror}",
              file=sys.stderr)
        return 1
    if not args.output:
        sys.stdout.write(text)
    return status


if __name__ == "__main__":
    sys.exit(main())
