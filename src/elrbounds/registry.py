"""Built-in function bundles addressable by name from the CLI.

Arbitrary user functions cannot carry derivative data through a command
line, so the CLI accepts either a registry name (with optional numeric
parameters) or a polynomial given by its coefficient list, whose
derivatives are computed analytically.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import replace

import numpy as np
from numpy.polynomial import Polynomial

from .divided_diff import FunctionBundle
from .divergences import GENERATOR_NAMES, GeneratorFunction, generator
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


def _quartic() -> FunctionBundle:
    return FunctionBundle(
        f=lambda x: np.asarray(x, dtype=float) ** 4,
        d1=lambda x: 4.0 * np.asarray(x, dtype=float) ** 3,
        d2=lambda x: 12.0 * np.asarray(x, dtype=float) ** 2,
        d3=lambda x: 24.0 * np.asarray(x, dtype=float),
        name="quartic", **_REAL_LINE)


def _exp() -> FunctionBundle:
    return FunctionBundle(f=np.exp, d1=np.exp, d2=np.exp, d3=np.exp,
                          name="exp", **_REAL_LINE)


def poly_bundle(coefficients) -> FunctionBundle:
    """Bundle for a polynomial given by a non-empty list of finite
    ascending coefficients."""
    if not (isinstance(coefficients, list) and coefficients):
        raise ValueError("poly must be a non-empty list of coefficients")
    coefficients = [number(c, "poly coefficient") for c in coefficients]
    # k^3 bounds the factor that the third derivative puts on coefficient k
    if not all(math.isfinite(c * k ** 3) for k, c in enumerate(coefficients)):
        raise ValueError("poly coefficients overflow its derivatives")
    p = Polynomial(coefficients)
    d1, d2, d3 = p.deriv(1), p.deriv(2), p.deriv(3)
    return FunctionBundle(f=p, d1=d1, d2=d2, d3=d3,
                          name=f"poly{tuple(coefficients)}", **_REAL_LINE)


_BUILDERS = {"cubic": cubic_reference, "quartic": _quartic, "exp": _exp,
             # t*log(t) is the kl generator's function
             "xlogx": lambda: replace(generator("kl").bundle, name="xlogx")}
_FAMILIES = {"upsilon1": upsilon1, "upsilon2": upsilon2}
BUILTIN_NAMES = (*_BUILDERS, *_FAMILIES)


def _name_and_params(spec: dict) -> tuple[str, list[float]]:
    if not isinstance(spec, dict):
        raise ValueError("phi specification must be an object")
    name, params = spec.get("name"), spec.get("params", [])
    if not isinstance(name, str):
        raise ValueError(f"phi name must be a string, got {name!r}")
    if not isinstance(params, list):
        raise ValueError("phi params must be a list of numbers")
    return name, [number(v, "phi param") for v in params]


def resolve_phi(spec: dict) -> FunctionBundle:
    """Resolve a phi specification {"name": ..., "params": [...]} or
    {"poly": [...]} to a function bundle."""
    if isinstance(spec, dict) and "poly" in spec:
        return poly_bundle(spec["poly"])
    name, params = _name_and_params(spec)
    if name in _BUILDERS:
        return _BUILDERS[name]()
    if name in _FAMILIES:
        if len(params) != 1:
            raise ValueError(f"{name} needs one parameter")
        return _FAMILIES[name](params[0]).bundle
    if name in GENERATOR_NAMES:
        return resolve_generator(spec).bundle
    raise ValueError(f"unknown phi name {name!r}")


def resolve_generator(spec: dict) -> GeneratorFunction:
    """Resolve a generator specification for divergence commands."""
    name, params = _name_and_params(spec)
    if name == "renyi":
        if len(params) != 1:
            raise ValueError("renyi needs one parameter (alpha)")
        return generator("renyi", alpha=params[0])
    if name in GENERATOR_NAMES:
        return generator(name)
    raise ValueError(f"unknown generator {name!r}")
