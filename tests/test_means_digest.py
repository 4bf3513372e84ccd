"""Bit-identity guard for the Stolarsky-type family members, their product
bundles, and the means and mean-value points built from them.

The sha256 below was taken before the members and product bundles were
rebuilt on one construction site each, on the same parameters: any later
change to how they are built must reproduce the same bits, not only the
same values to a tolerance.  It covers f, d1, d2 and d3 of every bundle
on a 97-point grid and at scalar points, its name, domain and the kind of
its third derivative; ``mean_B1``, ``mean_M2``, ``mvt_xi`` and
``cauchy_xi`` on the diagonal, near it and off it at every singular
parameter; and the message of every refusal among them.  When it was
taken, the four parameterless product bundles came from a builder each;
they are reached here through the one table that replaced them
(``stolarsky_means._fixed``), with the same bits.
"""

import hashlib
import math
import struct

import numpy as np

from elrbounds import stolarsky_means
from elrbounds.expconv import EQUAL_PARAM_TOL, elr_context
from elrbounds.functionals import make_functional
from elrbounds.stolarsky_means import (SMALL_T, cauchy_xi, mean_B1, mean_M2, mvt_xi,
                                       upsilon1, upsilon2)

DIGEST = "d23211d93f693b3eb58d14da4799dfdfbc6f33a693b7ebafbe4797e46c2fc36f"

GRID = np.linspace(0.05, 6.0, 97)
POINTS = (0.3, 1.0, 2.7)
SINGULAR = (0.0, 1.0, 2.0)
# offsets from a singular parameter: inside SMALL_T, on it and just outside
OFFSETS = (1e-12, 1e-9, 0.01, 0.049, SMALL_T, math.nextafter(SMALL_T, 1.0), 0.051, 0.06)
FIXED_PRODUCTS = ("upsilon1[0]^2", "upsilon1[0]*upsilon1[1]", "upsilon1[0]*upsilon1[2]",
                  "x*upsilon2[0]")


def _parameters() -> list[float]:
    """Every singular parameter, -0.0, the offsets around each, general
    parameters, and parameters whose scale is refused (or, for upsilon2
    inside SMALL_T, not needed)."""
    ts = [0.0, -0.0, 1.0, 2.0]
    for s0 in SINGULAR:
        for d in OFFSETS:
            ts += [s0 + d, s0 - d]
    return ts + [-2.5, -0.7, 0.5, 1.5, 3.7, 4.3, 1e-300, -1e-300, 1e-320, -1e-320,
                 1e103, math.inf, math.nan]


def _products(ts):
    """Every product bundle of the diagonal limit rows: phi_s * phi_0 and
    x * phi_s at each non-singular parameter, and the fixed products."""
    for s in ts:
        if s not in SINGULAR and abs(s) < 50.0:  # no nan, inf or 1e103
            yield lambda s=s: stolarsky_means._u1_log_product(s)
            yield lambda s=s: stolarsky_means._u2_id_product(s)
    for name in FIXED_PRODUCTS:
        yield lambda name=name: stolarsky_means._fixed(name)


def _outcome(digest, run) -> None:
    """The bits of what ``run`` returns (a float, a pair or an XiResult),
    or the type and message of its refusal."""
    try:
        value = run()
    except ValueError as exc:
        digest.update(f"{type(exc).__name__}:{exc};".encode())
        return
    values = [float(v) for v in value] if isinstance(value, tuple) else [float(value)]
    digest.update(struct.pack(f"<{len(values)}d", *values))


def _bundle_bits(digest, build) -> None:
    try:
        bundle = build()
    except ValueError as exc:
        digest.update(f"refused:{exc};".encode())
        return
    digest.update(f"{bundle.name}/{bundle.domain_lo!r}/{bundle.domain_hi!r}/"
                  f"{type(bundle.d3).__name__};".encode())
    with np.errstate(all="ignore"):
        for g in (bundle.f, bundle.d1, bundle.d2, bundle.d3):
            digest.update(np.asarray(g(GRID), dtype=float).tobytes())
        _outcome(digest, lambda: tuple(bundle.derivs(
            [(order, x) for order in (0, 1, 2) for x in POINTS])))


def _pairs():
    """(s, t) on the diagonal, near it and off it at each singular
    parameter, in and around the EQUAL_PARAM_TOL snaps, and general."""
    for s0 in SINGULAR + (-0.0,):
        for e in (0.0, 0.5 * EQUAL_PARAM_TOL, EQUAL_PARAM_TOL, 2.0 * EQUAL_PARAM_TOL,
                  1e-6, 0.01, 0.06):
            yield s0 + e, s0 + e
            yield s0 - e, s0 - e
        for e in (0.25 * EQUAL_PARAM_TOL, EQUAL_PARAM_TOL, 1e-7, 1e-4):
            yield s0 + e, s0 - e
        yield s0, s0 + 0.7
        yield s0 + 0.03, s0 - 1.3
    yield from ((3.7, -1.2), (4.3, 4.3), (-0.7, -0.7), (2.5, 0.5))


def _contexts():
    intervals = ((make_functional([0.5, 1.2, 1.9], [0.3, 0.4, 0.3]), 0.2, 2.0),
                 (make_functional([1.3, 2.0, 3.1], [0.2, 0.5, 0.3]), 1.0, 3.5))
    for functional, m, M in intervals:
        for index in range(1, 7):
            yield elr_context(index, functional, m, M)


def means_digest() -> str:
    digest = hashlib.sha256()
    ts = _parameters()
    for family in (upsilon1, upsilon2):
        for t in ts:
            _bundle_bits(digest, lambda: family(t).bundle)
            try:
                member = family(t)
            except ValueError:
                continue
            digest.update(f"{member.family_tag}/{member.t!r};".encode())
    for build in _products(ts):
        _bundle_bits(digest, build)
    xi = lambda result: (result.xi, float(result.unique))
    for ctx in _contexts():
        for s, t in _pairs():
            _outcome(digest, lambda: mean_B1(ctx, s, t))
            _outcome(digest, lambda: mean_M2(ctx, s, t))
            for family in (upsilon1, upsilon2):
                _outcome(digest, lambda: xi(cauchy_xi(ctx, family(s).bundle,
                                                      family(t).bundle)))
        for t in ts:
            for family in (upsilon1, upsilon2):
                _outcome(digest, lambda: xi(mvt_xi(ctx, family(t).bundle)))
    return digest.hexdigest()


def test_means_bits_are_pinned():
    assert means_digest() == DIGEST
