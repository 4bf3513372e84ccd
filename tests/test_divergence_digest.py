"""A bit-identity guard for the divergence path.

The sha256 below was taken from ``divergence_pass`` before any of its
speed work was allowed to change it: any later change to this path must
reproduce the same bits on criterion 4's draws, not only the same values
to a tolerance.
"""

import hashlib
import struct

import numpy as np

from elrbounds import generator
from elrbounds.divergences import divergence_pass

PAIRS = 2000
DIGEST = "a4e29f4b2e7d121add600d8f645d75bf24b1043cd2cc146aca71e9463f9260b9"


def _criterion_4_pairs(count: int):
    """The first ``count`` pairs of criterion 4's stream (seed 77)."""
    rng = np.random.default_rng(77)
    for _ in range(count):
        k = int(rng.integers(2, 9))
        yield rng.dirichlet(np.ones(k)), rng.dirichlet(np.ones(k))


def divergence_digest(count: int = PAIRS) -> str:
    """sha256 of every float and label of ``divergence_pass`` (both bound
    pairs) on the first ``count`` pairs under each of criterion 4's five
    generators."""
    named = [generator("kl"), generator("hellinger"), generator("harmonic"),
             generator("jeffreys"), generator("renyi", alpha=3.0)]
    digest = hashlib.sha256()
    for p, q in _criterion_4_pairs(count):
        for gen in named:
            value, reports = divergence_pass(p, q, gen)
            floats = [value]
            for r in reports:
                floats += [r.lower, r.mid, r.upper, r.details["m"], r.details["M"]]
                digest.update(f"{r.theorem_tag}/{r.orientation}/"
                              f"{r.details['generator']}/{r.details['params']}/"
                              f"{r.details['interval_auto_derived']};".encode())
            digest.update(struct.pack(f"<{len(floats)}d", *floats))
    return digest.hexdigest()


def test_divergence_pass_bits_are_pinned():
    assert divergence_digest() == DIGEST
