"""Built-in function bundles addressable by name from the CLI.

Arbitrary user functions cannot carry derivative data through a command
line, so the CLI accepts either a registry name (with optional numeric
parameters) or a polynomial given by its coefficient list, whose
derivatives are computed analytically.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import Polynomial

from .divided_diff import FunctionBundle
from .divergences import GENERATOR_NAMES, GeneratorFunction, generator
from .stolarsky_means import cubic_reference, upsilon1, upsilon2

__all__ = ["resolve_phi", "resolve_generator", "poly_bundle", "BUILTIN_NAMES"]

_REAL_LINE = dict(domain_lo=-math.inf, domain_hi=math.inf)


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


def _xlogx() -> FunctionBundle:
    return FunctionBundle(
        domain_lo=0.0, domain_hi=math.inf,
        f=lambda x: x * np.log(x),
        d1=lambda x: np.log(x) + 1.0,
        d2=lambda x: 1.0 / np.asarray(x, dtype=float),
        d3=lambda x: -1.0 / np.asarray(x, dtype=float) ** 2,
        name="xlogx")


def poly_bundle(coefficients) -> FunctionBundle:
    """Bundle for a polynomial given by ascending coefficients."""
    coefficients = [float(c) for c in coefficients]
    if not coefficients:
        raise ValueError("polynomial needs at least one coefficient")
    p = Polynomial(coefficients)
    d1, d2, d3 = p.deriv(1), p.deriv(2), p.deriv(3)
    return FunctionBundle(f=p, d1=d1, d2=d2, d3=d3,
                          name=f"poly{tuple(coefficients)}", **_REAL_LINE)


_BUILDERS = {"cubic": cubic_reference, "quartic": _quartic, "exp": _exp,
             "xlogx": _xlogx}
_FAMILIES = {"upsilon1": upsilon1, "upsilon2": upsilon2}
BUILTIN_NAMES = (*_BUILDERS, *_FAMILIES)


def _name_and_params(spec: dict) -> tuple[str | None, list[float]]:
    if not isinstance(spec, dict):
        raise ValueError("phi specification must be an object")
    return spec.get("name"), [float(v) for v in spec.get("params", [])]


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
