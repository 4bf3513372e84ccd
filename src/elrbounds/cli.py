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
from dataclasses import dataclass
from pathlib import Path

from .divided_diff import certify_3convex
from .divergences import divergence_bounds, f_divergence
from .elr_bounds import THEOREMS, BoundReport, bounds
from .expconv import divergence_context, elr_context
from .functionals import make_functional
from .fuzzing import bracket_fuzz
from .registry import resolve_generator, resolve_phi
from .stolarsky_means import mean_B1, mean_M2
from .zipf_mandelbrot import zm_distribution, zm_divergence_bounds

__all__ = ["RunConfig", "run", "main"]


@dataclass
class RunConfig:
    command: str
    payload: dict
    seed: int = 0
    instances: int = 1000
    tolerance: float = 1e-9


class InputError(ValueError):
    """Bad command input; like every ValueError it maps to exit status 1."""


# ---------------------------------------------------------------------------
# deterministic JSON emission
# ---------------------------------------------------------------------------

def _dump(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f"{pad}  {json.dumps(str(k))}: {_dump(v, indent + 1)}"
            for k, v in obj.items())
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = ",\n".join(f"{pad}  {_dump(v, indent + 1)}" for v in obj)
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


def dump_report(report: dict) -> str:
    return _dump(report) + "\n"


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
        raise InputError(f"missing required field {key!r}")
    return payload[key]


def _need_object(payload: dict, key: str, fields: tuple = ()) -> dict:
    spec = _need(payload, key)
    if not isinstance(spec, dict) or any(f not in spec for f in fields):
        carrying = " carrying " + ", ".join(map(repr, fields)) if fields else ""
        raise InputError(f"{key!r} must be an object{carrying}")
    return spec


def _number(value, what: str, kind=float):
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise InputError(f"{what} must be a number, got {value!r}") from None


def _parse_interval(payload: dict, required: bool = True):
    """[m, M] as floats; (None, None) when optional and absent."""
    if not required and payload.get("interval") is None:
        return None, None
    interval = _need(payload, "interval")
    if not (isinstance(interval, list) and len(interval) == 2):
        raise InputError('"interval" must be [m, M]')
    m, M = (_number(end, "interval end") for end in interval)
    if not m < M:
        raise InputError("interval must satisfy m < M")
    return m, M


def _parse_functional(payload: dict):
    spec = _need_object(payload, "functional")
    return make_functional(spec.get("nodes", []), spec.get("weights", []))


def _parse_theorems(payload: dict, allowed=THEOREMS):
    requested = payload.get("theorem")
    if requested is None:
        return list(allowed)
    if requested not in allowed:
        raise InputError(f"unknown theorem {requested!r}")
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
    if not bundle.contains(m, M):
        raise InputError(f"interval [{m}, {M}] escapes the domain of "
                         f"{bundle.name!r}")
    cert = certify_3convex(bundle, m, M, 201)
    if not cert.is_directed:
        raise InputError(
            f"{bundle.name!r} is not 3-convex on [{m}, {M}] in either "
            f"direction (verdict {cert.verdict!r})")
    reports = [bounds(name, functional, bundle, m, M, cert)
               for name in _parse_theorems(payload)]
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
    theorems = _parse_theorems(payload, allowed=("derivative", "taylor"))
    value = f_divergence(p, q, gen)
    reports = [divergence_bounds(p, q, gen, m=m, M=M, theorem=name)
               for name in theorems]
    return 0, _divergence_report("divergence", payload, gen, value, reports)


def _run_zipf(config: RunConfig) -> tuple[int, dict]:
    payload = config.payload
    spec = _need_object(payload, "zm", ("a", "b"))
    try:
        a, b = (zm_distribution(int(spec[k]["N"]), float(spec[k]["q"]),
                                float(spec[k]["s"])) for k in ("a", "b"))
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad zm specification: {exc}") from exc
    gen = resolve_generator(_need_object(payload, "phi"))
    theorems = _parse_theorems(payload, allowed=("derivative", "taylor"))
    reports = [zm_divergence_bounds(a, b, gen, theorem=name)
               for name in theorems]
    value = f_divergence(a.pmf, b.pmf, gen)
    return 0, _divergence_report("zipf", payload, gen, value, reports,
                                 zm_a=a.params(), zm_b=b.params())


def _run_means(config: RunConfig) -> tuple[int, dict]:
    payload = config.payload
    index = _number(payload.get("gamma_index", 1), "gamma_index", int)
    params = _need_object(payload, "params", ("s", "t"))
    s, t = _number(params["s"], "params s"), _number(params["t"], "params t")
    family = _need_object(payload, "phi").get("name")
    if family not in ("upsilon1", "upsilon2"):
        raise InputError('means needs "phi" with name "upsilon1" or "upsilon2"')
    if index <= 6:
        functional = _parse_functional(payload)
        m, M = _parse_interval(payload)
        ctx = elr_context(index, functional, m, M)
    else:
        p, q = _parse_distributions(payload)
        m, M = _parse_interval(payload, required=False)
        ctx = divergence_context(index, p, q, m=m, M=M)
    if ctx.m <= 0:
        raise InputError("means require an interval inside the positive "
                         "half line")
    mean = mean_B1(ctx, s, t) if family == "upsilon1" else mean_M2(ctx, s, t)
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
    if config.instances < 1:
        raise InputError("--instances must be at least 1")
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
        raise InputError(f"unknown command {config.command!r}")
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
    else:
        path = Path(raw)
        if not path.exists():
            raise InputError(f"input file not found: {raw}")
        text = path.read_text()
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"malformed input at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from exc
    if not isinstance(payload, dict):
        raise InputError("input must be a JSON object")
    return payload


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="elrbounds",
        description="Bound pairs for 3-convex functions, f-divergences, "
                    "Zipf-Mandelbrot laws and Stolarsky-type means.")
    parser.add_argument("command", choices=sorted(_RUNNERS))
    parser.add_argument("--input", help="JSON object, file path, or - for stdin")
    parser.add_argument("--output", help="report path (default stdout)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--instances", type=int, default=1000)
    parser.add_argument("--tolerance", type=float, default=1e-9)
    parser.add_argument("--format", dest="fmt", choices=["json"],
                        default="json")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # the one exit-1 boundary: parse errors and the library's own input
    # checks are both ValueErrors; anything else is a bug and propagates
    try:
        payload = _load_payload(args.input)
        status, report = run(RunConfig(command=args.command, payload=payload,
                                       seed=args.seed, instances=args.instances,
                                       tolerance=args.tolerance))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    text = dump_report(report)
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    return status


if __name__ == "__main__":
    sys.exit(main())
