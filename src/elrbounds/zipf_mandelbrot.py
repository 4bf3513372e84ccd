"""Zipf and Zipf-Mandelbrot laws and their divergence bound corollaries.

The law on ranks {1, ..., N} with shift q >= 0 and exponent s > 0 has
probability mass (i + q)^(-s) / H where H is the finite normalizing sum;
q = 0 recovers Zipf's law.  The bound corollaries are pure specializations
of the generic divergence bounds to two materialized laws, with [m, M]
taken from the elementwise ratio extrema.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .divergences import DIVERGENCE_THEOREMS, GeneratorFunction, divergence_pass
from .elr_bounds import BoundReport, _check_theorems
from .functionals import _is_number

__all__ = [
    "ZipfMandelbrot",
    "harmonic_sum",
    "zm_distribution",
    "zm_ratio_extrema",
    "zm_divergence_pass",
]


# Most ranks of a law (its terms take 80 MB)
MAX_RANKS = 10**7


def _terms(N: int, q: float, s: float) -> np.ndarray:
    if not _is_number(N, numbers.Integral) or N < 1:
        raise ValueError("N must be a positive integer")
    if N > MAX_RANKS:
        raise ValueError(f"N must be at most {MAX_RANKS} ranks, got {N}")
    for value, label in ((q, "shift q"), (s, "exponent s")):
        if not math.isfinite(value):
            raise ValueError(f"{label} must be finite, got {value!r}")
    if q < 0:
        raise ValueError("shift q must be nonnegative")
    if s <= 0:
        raise ValueError("exponent s must be positive")
    ranks = np.arange(1, N + 1, dtype=float)
    return (ranks + q) ** (-s)


def _left_sum(terms: np.ndarray) -> float:
    """The sum of the terms added strictly left to right, as cumsum adds
    them, where np.sum would add pairwise: the accumulation order of the
    normalizer, fixed for reproducibility."""
    return float(np.cumsum(terms)[-1])


def harmonic_sum(N: int, q: float, s: float) -> float:
    """The normalizer: sum over i = 1..N of (i + q)^(-s).

    Terms decrease in i, so natural order is descending magnitude, and
    they are added in that order (_left_sum).
    """
    return _left_sum(_terms(N, q, s))


@dataclass(frozen=True)
class ZipfMandelbrot:
    """A materialized Zipf-Mandelbrot law."""

    N: int
    q: float
    s: float
    normalizer: float
    pmf: np.ndarray

    def params(self) -> dict:
        return {"N": self.N, "q": self.q, "s": self.s,
                "normalizer": self.normalizer}


def zm_distribution(N: int, q: float, s: float) -> ZipfMandelbrot:
    """Materialize the law with parameters (N, q, s)."""
    terms = _terms(N, q, s)
    normalizer = _left_sum(terms)
    law = f"Zipf-Mandelbrot law (N={N}, q={q}, s={s})"
    if not normalizer > 0.0:
        raise ValueError(f"{law} has no positive normalizer: its terms underflow")
    pmf = terms / normalizer
    if not pmf[-1] > 0.0:  # the least mass
        raise ValueError(f"{law} has a mass that underflows to 0 at rank {N}")
    pmf.flags.writeable = False
    return ZipfMandelbrot(N=int(N), q=float(q), s=float(s),
                          normalizer=normalizer, pmf=pmf)


def zm_ratio_extrema(a: ZipfMandelbrot, b: ZipfMandelbrot) -> tuple[float, float]:
    """(min, max) of the elementwise mass ratios a_i / b_i.

    Normalization forces the ratios to straddle 1, so min <= 1 <= max.
    The extrema are computed from the same materialized ratio values the
    divergence bounds see, keeping the two routes consistent to the bit.
    """
    if a.N != b.N:
        raise ValueError("length mismatch: the two laws must share N")
    ratio = a.pmf / b.pmf
    return float(ratio.min()), float(ratio.max())


def zm_divergence_pass(a: ZipfMandelbrot, b: ZipfMandelbrot,
                       gen: GeneratorFunction, theorems=DIVERGENCE_THEOREMS
                       ) -> tuple[float, list[BoundReport]]:
    """(divergence, reports) between two Zipf-Mandelbrot laws:
    ``divergence_pass`` of the mass vectors on [m, M] from the ratio
    extrema, so identical laws are rejected."""
    _check_theorems(theorems, DIVERGENCE_THEOREMS)
    m, M = zm_ratio_extrema(a, b)
    value, reports = divergence_pass(a.pmf, b.pmf, gen, m, M, theorems)
    for report in reports:
        # each report of the pass holds details of its own
        report.details.update(zm_a=a.params(), zm_b=b.params())
    return value, reports
