"""Bit-identity guards for the divergence and Zipf-Mandelbrot paths.

Each sha256 below was taken from its path before any of its speed work
was allowed to change it: any later change to that path must reproduce
the same bits on the same draws, not only the same values to a
tolerance.
"""

import hashlib
import struct

import numpy as np

from elrbounds import generator
from elrbounds.divergences import divergence_pass, ratio_functional
from elrbounds.zipf_mandelbrot import zm_distribution, zm_divergence_pass

PAIRS = 2000
DIGEST = "a4e29f4b2e7d121add600d8f645d75bf24b1043cd2cc146aca71e9463f9260b9"

ZIPF_PAIRS = 300
ZIPF_DIGEST = "23c4176c525f1c4678156d3fc3433f329426874ba9a04df99a584ec4a3b6b2b0"


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


def _zipf_law_pairs(count: int):
    """``count`` law pairs shaped as the zipf benchmark draws them (N
    log-uniform on [1e2, 1e4], q uniform on [0, 5], s on [0.2, 4], one of
    four generators; seed 2022), then pairs of 1e5 ranks and pairs whose
    second law has a steep tail (s = 4, q = 0, 1e4 ranks: its least
    masses hold bits below 2**-104)."""
    names = ["kl", "hellinger", "harmonic", "renyi"]
    rng = np.random.default_rng(2022)
    for _ in range(count):
        N = int(round(10.0 ** rng.uniform(2.0, 4.0)))
        laws = [(N, float(rng.uniform(0.0, 5.0)), float(rng.uniform(0.2, 4.0)))
                for _ in range(2)]
        yield laws, names[int(rng.integers(len(names)))]
    for name in names:
        yield [(10**5, 1.0, 1.1), (10**5, 0.0, 0.9)], name
        yield [(10**4, 0.5, 3.5), (10**4, 0.0, 4.0)], name
        yield [(10**4, 2.0, 1.2), (10**4, 0.0, 4.0)], name


def zipf_digest(count: int = ZIPF_PAIRS) -> str:
    """sha256 of the landed ratio-functional weights and of every float
    and label of ``zm_divergence_pass`` (both bound pairs) on the law
    pairs of ``_zipf_law_pairs(count)``."""
    named = {name: generator(name, alpha=3.0 if name == "renyi" else None)
             for name in ("kl", "hellinger", "harmonic", "renyi")}
    digest = hashlib.sha256()
    for laws, name in _zipf_law_pairs(count):
        a, b = (zm_distribution(*law) for law in laws)
        digest.update(ratio_functional(a.pmf, b.pmf)[0].weights.tobytes())
        value, reports = zm_divergence_pass(a, b, named[name])
        floats = [value]
        for r in reports:
            floats += [r.lower, r.mid, r.upper, r.details["m"], r.details["M"]]
            digest.update(f"{r.theorem_tag}/{r.orientation}/"
                          f"{r.details['generator']};".encode())
        digest.update(struct.pack(f"<{len(floats)}d", *floats))
    return digest.hexdigest()


def test_divergence_pass_bits_are_pinned():
    assert divergence_digest() == DIGEST


def test_zipf_pass_bits_are_pinned():
    assert zipf_digest() == ZIPF_DIGEST
