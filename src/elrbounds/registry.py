"""Built-in function bundles addressable by name from the CLI.

Arbitrary user functions cannot carry derivative data through a command
line, so the CLI accepts either a registry name (with the numeric
parameters it takes) or a polynomial given by its coefficient list, whose
derivatives are computed analytically.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import replace
from functools import cache, partial

import numpy as np

from .divided_diff import FunctionBundle
from .divergences import _GENERATOR_PARAMS, GENERATOR_NAMES, GeneratorFunction, generator
from .functionals import _is_number
from .stolarsky_means import cubic_reference, upsilon1, upsilon2

__all__ = ["number", "resolve_phi", "resolve_generator", "poly_bundle",
           "BUILTIN_NAMES"]

_REAL_LINE = dict(domain_lo=-math.inf, domain_hi=math.inf)


def number(value, what: str, integral: bool = False):
    """A finite float, or an int when ``integral``: no inf, nan, bool,
    string or truncated fraction reaches the library from outside values."""
    try:
        result = float(value) if _is_number(value, numbers.Real) else math.nan
    except OverflowError:  # an int beyond the float range
        result = math.nan
    if not math.isfinite(result) or (integral and not result.is_integer()):
        kind = "an integer" if integral else "a finite number"
        raise ValueError(f"{what} must be {kind}, got {value!r}")
    return int(result) if integral else result


# The named bundles take no parameters: each is built once, on first use.
@cache
def _quartic() -> FunctionBundle:
    return FunctionBundle(
        f=lambda x: np.asarray(x, dtype=float) ** 4,
        d1=lambda x: 4.0 * np.asarray(x, dtype=float) ** 3,
        d2=lambda x: 12.0 * np.asarray(x, dtype=float) ** 2,
        d3=lambda x: 24.0 * np.asarray(x, dtype=float),
        name="quartic", **_REAL_LINE)


@cache
def _exp() -> FunctionBundle:
    return FunctionBundle(f=np.exp, d1=np.exp, d2=np.exp, d3=np.exp,
                          name="exp", **_REAL_LINE)


@cache
def _xlogx() -> FunctionBundle:
    # t*log(t) is the kl generator's function
    return replace(generator("kl").bundle, name="xlogx")


def poly_bundle(coefficients) -> FunctionBundle:
    """Bundle for a polynomial given by a non-empty list of finite
    ascending coefficients."""
    if not (isinstance(coefficients, list) and coefficients):
        raise ValueError("poly must be a non-empty list of coefficients")
    coefficients = [number(c, "poly coefficient") for c in coefficients]
    # k^3 bounds the factor that the third derivative puts on coefficient k
    if not all(math.isfinite(c * k ** 3) for k, c in enumerate(coefficients)):
        raise ValueError("poly coefficients overflow its derivatives")
    # numpy.polynomial is imported here: no other path of the package needs it
    from numpy.polynomial import Polynomial

    p = Polynomial(coefficients)
    d1, d2, d3 = p.deriv(1), p.deriv(2), p.deriv(3)
    return FunctionBundle(f=p, d1=d1, d2=d2, d3=d3,
                          name=f"poly{tuple(coefficients)}", **_REAL_LINE)


# Each built-in name: what it builds from its params, and how many it takes.
_NAMED = {"cubic": (cubic_reference, 0), "quartic": (_quartic, 0),
          "exp": (_exp, 0), "xlogx": (_xlogx, 0),
          "upsilon1": (upsilon1, 1), "upsilon2": (upsilon2, 1)}
BUILTIN_NAMES = tuple(_NAMED)
_NAMED.update((name, (partial(generator, name), count))
              for name, count in _GENERATOR_PARAMS.items())


def _name_and_params(spec: dict) -> tuple[str, list[float]]:
    if not isinstance(spec, dict):
        raise ValueError("phi specification must be an object")
    name, params = spec.get("name"), spec.get("params", [])
    if not isinstance(name, str):
        raise ValueError(f"phi name must be a string, got {name!r}")
    if not isinstance(params, list):
        raise ValueError("phi params must be a list of numbers")
    return name, [number(v, "phi param") for v in params]


def _build(name: str, params: list[float]):
    """What the built-in ``name`` builds from ``params``, refused unless it
    takes that many."""
    build, count = _NAMED[name]
    if len(params) != count:
        raise ValueError(f"{name} takes no parameters" if count == 0
                         else f"{name} needs one parameter")
    return build(*params)


def resolve_phi(spec: dict) -> FunctionBundle:
    """Resolve a phi specification {"name": ..., "params": [...]} or
    {"poly": [...]} to a function bundle."""
    if isinstance(spec, dict) and "poly" in spec:
        return poly_bundle(spec["poly"])
    name, params = _name_and_params(spec)
    if name not in _NAMED:
        raise ValueError(f"unknown phi name {name!r}")
    built = _build(name, params)
    # a family member and a generator carry their bundle
    return getattr(built, "bundle", built)


def resolve_generator(spec: dict) -> GeneratorFunction:
    """Resolve a generator specification for divergence commands."""
    name, params = _name_and_params(spec)
    # generator() refuses every other name
    return _build(name, params) if name in GENERATOR_NAMES else generator(name)
