"""Smooth test functions paired with extended-precision evaluators.

Each entry carries a float bundle with analytic derivatives, an mpmath
evaluator of the same function, and four base points chosen so the third
derivative stays bounded away from zero there (the coalescence checks are
relative).  The extended-precision evaluator feeds the recursive
divided-difference oracle at split points, where float64 evaluation of
the function values would lose the high-multiplicity comparisons to
cancellation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import mpmath as mp
import numpy as np

from elrbounds import FunctionBundle, dd_recursive

ORACLE_DPS = 40
HERMITE_DPS = 60


@dataclass(frozen=True)
class OracleFunction:
    name: str
    bundle: FunctionBundle
    mp_f: Callable
    points: tuple[float, float, float, float]


def _b(f, d1, d2, d3, lo=-math.inf, hi=math.inf, name="f") -> FunctionBundle:
    return FunctionBundle(domain_lo=lo, domain_hi=hi, f=f, d1=d1, d2=d2,
                          d3=d3, name=name)


_DEFAULT = (0.35, 0.8, 1.45, 2.1)

SMOOTH_FUNCTIONS: list[OracleFunction] = [
    OracleFunction(
        "x^3",
        _b(lambda x: x**3, lambda x: 3*x**2, lambda x: 6*np.asarray(x, float),
           lambda x: 6*np.ones_like(np.asarray(x, float)), name="x^3"),
        lambda x: x**3, _DEFAULT),
    OracleFunction(
        "x^4",
        _b(lambda x: x**4, lambda x: 4*x**3, lambda x: 12*x**2,
           lambda x: 24*np.asarray(x, float), name="x^4"),
        lambda x: x**4, _DEFAULT),
    OracleFunction(
        "x^5",
        _b(lambda x: x**5, lambda x: 5*x**4, lambda x: 20*x**3,
           lambda x: 60*x**2, name="x^5"),
        lambda x: x**5, _DEFAULT),
    OracleFunction(
        "x^6-2x^4+x",
        _b(lambda x: x**6 - 2*x**4 + x, lambda x: 6*x**5 - 8*x**3 + 1,
           lambda x: 30*x**4 - 24*x**2, lambda x: 120*x**3 - 48*np.asarray(x, float),
           name="x^6-2x^4+x"),
        lambda x: x**6 - 2*x**4 + x, (0.9, 1.3, 1.8, 2.4)),
    OracleFunction(
        "exp",
        _b(np.exp, np.exp, np.exp, np.exp, name="exp"),
        mp.exp, _DEFAULT),
    OracleFunction(
        "exp(-x)",
        _b(lambda x: np.exp(-x), lambda x: -np.exp(-x), lambda x: np.exp(-x),
           lambda x: -np.exp(-x), name="exp(-x)"),
        lambda x: mp.exp(-x), _DEFAULT),
    OracleFunction(
        "x*exp(x)",
        _b(lambda x: x*np.exp(x), lambda x: (x+1)*np.exp(x),
           lambda x: (x+2)*np.exp(x), lambda x: (x+3)*np.exp(x),
           name="x*exp(x)"),
        lambda x: x*mp.exp(x), _DEFAULT),
    OracleFunction(
        "log",
        _b(np.log, lambda x: 1/np.asarray(x, float), lambda x: -1/x**2,
           lambda x: 2/x**3, lo=0.0, name="log"),
        mp.log, _DEFAULT),
    OracleFunction(
        "x*log(x)",
        _b(lambda x: x*np.log(x), lambda x: np.log(x) + 1,
           lambda x: 1/np.asarray(x, float), lambda x: -1/x**2,
           lo=0.0, name="x*log(x)"),
        lambda x: x*mp.log(x), _DEFAULT),
    OracleFunction(
        "1/x",
        _b(lambda x: 1/np.asarray(x, float), lambda x: -1/x**2,
           lambda x: 2/x**3, lambda x: -6/x**4, lo=0.0, name="1/x"),
        lambda x: 1/x, _DEFAULT),
    OracleFunction(
        "sqrt",
        _b(np.sqrt, lambda x: 0.5*x**-0.5, lambda x: -0.25*x**-1.5,
           lambda x: 0.375*x**-2.5, lo=0.0, name="sqrt"),
        mp.sqrt, _DEFAULT),
    OracleFunction(
        "x^3.5",
        _b(lambda x: x**3.5, lambda x: 3.5*x**2.5, lambda x: 8.75*x**1.5,
           lambda x: 13.125*x**0.5, lo=0.0, name="x^3.5"),
        lambda x: x**mp.mpf("3.5"), _DEFAULT),
    OracleFunction(
        "sinh",
        _b(np.sinh, np.cosh, np.sinh, np.cosh, name="sinh"),
        mp.sinh, _DEFAULT),
    OracleFunction(
        "cosh",
        _b(np.cosh, np.sinh, np.cosh, np.sinh, name="cosh"),
        mp.cosh, _DEFAULT),
    OracleFunction(
        "sin",
        _b(np.sin, np.cos, lambda x: -np.sin(x), lambda x: -np.cos(x),
           name="sin"),
        mp.sin, (0.2, 0.45, 0.7, 0.95)),
    OracleFunction(
        "cos",
        _b(np.cos, lambda x: -np.sin(x), lambda x: -np.cos(x), np.sin,
           name="cos"),
        mp.cos, (0.9, 1.15, 1.4, 1.65)),
    OracleFunction(
        "1/(1+x)",
        _b(lambda x: 1/(1+x), lambda x: -(1+x)**-2.0, lambda x: 2*(1+x)**-3.0,
           lambda x: -6*(1+x)**-4.0, lo=-1.0, name="1/(1+x)"),
        lambda x: 1/(1+x), _DEFAULT),
    OracleFunction(
        "atan",
        _b(np.arctan, lambda x: 1/(1+x**2), lambda x: -2*x/(1+x**2)**2,
           lambda x: (6*x**2 - 2)/(1+x**2)**3, name="atan"),
        mp.atan, (1.0, 1.4, 1.9, 2.4)),
    OracleFunction(
        "exp(x^2/2)",
        _b(lambda x: np.exp(x**2/2), lambda x: x*np.exp(x**2/2),
           lambda x: (x**2+1)*np.exp(x**2/2),
           lambda x: (x**3+3*x)*np.exp(x**2/2), name="exp(x^2/2)"),
        lambda x: mp.exp(x**2/2), _DEFAULT),
    OracleFunction(
        "x^2*log(x)",
        _b(lambda x: x**2*np.log(x), lambda x: 2*x*np.log(x) + x,
           lambda x: 2*np.log(x) + 3, lambda x: 2/np.asarray(x, float),
           lo=0.0, name="x^2*log(x)"),
        lambda x: x**2*mp.log(x), _DEFAULT),
]

assert len(SMOOTH_FUNCTIONS) == 20


def recursive_oracle(mp_f: Callable, points) -> float:
    """Recursive divided difference with function values evaluated in
    extended precision; the recursion itself is the package's own."""
    with mp.workdps(ORACLE_DPS):
        pairs = [(mp.mpf(float(p)), mp_f(mp.mpf(float(p)))) for p in points]
        return float(dd_recursive(pairs))


def hermite_oracle(mp_f: Callable, points, multiplicities) -> float:
    """[t0, ..., t3]f at HERMITE_DPS digits by the Hermite difference table
    over the points in the order given, each repeated by its multiplicity:
    an entry over k + 1 equal points is mpmath's k-th derivative over k!,
    every other the difference quotient of its two neighbours."""
    with mp.workdps(HERMITE_DPS):
        pts = [mp.mpf(float(p)) for p, k in zip(points, multiplicities) for _ in range(k)]
        table = [mp_f(t) for t in pts]
        for level in range(1, len(pts)):
            for i in range(len(pts) - level):
                if pts[i] == pts[i + level]:
                    table[i] = mp.diff(mp_f, pts[i], level) / mp.factorial(level)
                else:
                    table[i] = (table[i + 1] - table[i]) / (pts[i + level] - pts[i])
        return float(table[0])
