"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts.  Every tolerance is fixed here, not
configurable.
"""

import json
import math
import time

import numpy as np

from elrbounds import (
    GammaCurve,
    MultiplicityPattern,
    bounds,
    cauchy_xi,
    dd_confluent,
    divergence_bounds,
    divergence_context,
    elr_context,
    exp_convexity_check,
    generator,
    lyapunov_check,
    make_functional,
    mean_B1,
    mean_M2,
    mvt_xi,
    upsilon1,
    upsilon2,
    zm_distribution,
    zm_ratio_extrema,
)
from elrbounds.cli import main as cli_main
from elrbounds.divergences import divergence_pass
from elrbounds.fuzzing import bracket_fuzz
from elrbounds.registry import poly_bundle, resolve_phi
from elrbounds.zipf_mandelbrot import zm_divergence_pass

from oracle_functions import SMOOTH_FUNCTIONS, recursive_oracle


def _verdict(number: int, description: str) -> None:
    print(f"\nacceptance criterion {number}: PASS ({description})")


# -------------------------------------------------------------------------
# 1. confluent formulas against the split-point recursion
# -------------------------------------------------------------------------

def test_criterion_1_confluent_oracle():
    started = time.perf_counter()
    eps = 1e-4
    patterns = [(1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,)]
    worst = 0.0
    for entry in SMOOTH_FUNCTIONS:
        for mult in patterns:
            pat = MultiplicityPattern(entry.points[:len(mult)], mult)
            confluent = dd_confluent(entry.bundle, pat)
            recursive = recursive_oracle(entry.mp_f, pat.expand(eps))
            rel = abs(confluent - recursive) / max(abs(confluent), abs(recursive))
            worst = max(worst, rel)
            assert rel <= 1e-5, (entry.name, mult, confluent, recursive)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"runtime {elapsed:.1f}s exceeds 10s"
    _verdict(1, f"20 functions x 5 patterns, worst relative gap {worst:.2e}, "
                f"{elapsed:.1f}s")


# -------------------------------------------------------------------------
# 2. randomized bracketing for the three bound pairs, both orientations
# -------------------------------------------------------------------------

def test_criterion_2_bracket_fuzz():
    started = time.perf_counter()
    # every instance is checked in the direct and the reversed (negated
    # target) orientation, so the reversal sweep is the same size
    report = bracket_fuzz(seed=20260808, instances=100_000, tolerance=1e-9)
    elapsed = time.perf_counter() - started
    assert report.clean, report.violations[:5]
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 60s"
    _verdict(2, f"{report.count} instances x 3 pairs x 2 orientations, "
                f"max violation {report.max_violation:.1e}, {elapsed:.1f}s")


# -------------------------------------------------------------------------
# 3. golden worked instance
# -------------------------------------------------------------------------

def test_criterion_3_golden_brackets():
    F = make_functional([0.5], [1.0])
    cubic = resolve_phi({"name": "cubic"})
    expected = {
        "secant": (0.25, 0.375, 0.5),
        "derivative": (0.3125, 0.375, 0.4375),
        "taylor": (0.25, 0.375, 0.5),
    }
    for theorem, (lo, mid, hi) in expected.items():
        r = bounds(theorem, F, cubic, 0.0, 1.0)
        assert abs(r.lower - lo) <= 1e-12
        assert abs(r.mid - mid) <= 1e-12
        assert abs(r.upper - hi) <= 1e-12
    _verdict(3, "point mass at 0.5, cubic target: all three brackets to 1e-12")


# -------------------------------------------------------------------------
# 4. divergence bound pairs for the five named generators
# -------------------------------------------------------------------------

def _random_pair(rng):
    k = int(rng.integers(2, 9))
    return rng.dirichlet(np.ones(k)), rng.dirichlet(np.ones(k))


def test_criterion_4_divergence_fuzz():
    rng = np.random.default_rng(77)
    named = [generator("kl"), generator("hellinger"), generator("harmonic"),
             generator("jeffreys"), generator("renyi", alpha=3.0)]
    worst = 0.0
    theorems = ("derivative", "taylor")
    # one divergence_pass per pair gives both of its bound pairs
    for gen in named:
        for _ in range(10_000):
            p, q = _random_pair(rng)
            reports = divergence_pass(p, q, gen, theorems=theorems)[1]
            for theorem, r in zip(theorems, reports, strict=True):
                worst = max(worst, r.violation())
                assert r.violation() <= 1e-9, (gen.name, theorem)
    # third-derivative-free boundary exponents bracket in both orientations
    for alpha in (0.0, 1.0, 2.0):
        gen = generator("renyi", alpha=alpha)
        for _ in range(500):
            p, q = _random_pair(rng)
            for r in divergence_pass(p, q, gen, theorems=theorems)[1]:
                lo, hi = r.bracket()
                assert lo - 1e-9 <= r.mid <= hi + 1e-9
                assert hi - 1e-9 <= r.mid <= lo + 1e-9
    _verdict(4, f"5 generators x 10^4 pairs x 2 pairs each, max violation "
                f"{worst:.1e}; boundary exponents two-sided")


# -------------------------------------------------------------------------
# 5. Zipf-Mandelbrot materialization and corollary delegation
# -------------------------------------------------------------------------

def test_criterion_5_zipf_mandelbrot():
    for N in (1, 2, 3, 5, 10, 31, 100, 316, 1000, 3162, 10_000):
        for s in (0.1, 0.5, 1.0, 2.5, 5.0):
            for q in (0.0, 0.5, 3.0, 10.0):
                z = zm_distribution(N, q, s)
                assert abs(math.fsum(z.pmf) - 1.0) <= 1e-12
                exact = math.fsum((i + q) ** (-s) for i in range(1, N + 1))
                assert abs(z.normalizer - exact) <= 1e-12 * exact

    rng = np.random.default_rng(55)
    gens = [generator("kl"), generator("harmonic"), generator("hellinger"),
            generator("renyi", alpha=3.0)]
    checked = 0
    for _ in range(40):
        N = int(rng.integers(2, 400))
        a = zm_distribution(N, float(rng.uniform(0, 5)), float(rng.uniform(0.2, 4)))
        b = zm_distribution(N, float(rng.uniform(0, 5)), float(rng.uniform(0.2, 4)))
        m, M = zm_ratio_extrema(a, b)
        assert m <= 1.0 <= M
        if m == M:
            continue
        gen = gens[int(rng.integers(len(gens)))]
        for theorem in ("derivative", "taylor"):
            rz = zm_divergence_pass(a, b, gen, (theorem,))[1][0]
            rg = divergence_bounds(a.pmf, b.pmf, gen, m=m, M=M, theorem=theorem)
            assert (rz.lower, rz.mid, rz.upper) == (rg.lower, rg.mid, rg.upper)
            assert rz.orientation == rg.orientation
            checked += 1
    assert checked >= 60
    _verdict(5, f"normalization over 220 parameter combinations (N up to 1e4); "
                f"{checked} corollary reports bit-identical to the generic path")


# -------------------------------------------------------------------------
# 6. exponential convexity and log-convexity of the functional curves
# -------------------------------------------------------------------------

def _random_elr_ctx(rng, index):
    m = float(rng.uniform(0.1, 1.2))
    M = m + float(rng.uniform(0.4, 2.0))
    k = int(rng.integers(2, 10))
    width = M - m
    nodes = rng.uniform(m + 0.05 * width, M - 0.05 * width, k)
    w = rng.uniform(0.2, 1.0, k)
    return elr_context(index, make_functional(nodes, w / w.sum()), m, M)


def _random_div_ctx(rng, index):
    k = int(rng.integers(3, 8))
    p = rng.dirichlet(np.ones(k) * 3.0)
    q = rng.dirichlet(np.ones(k) * 3.0)
    return divergence_context(index, p, q)


def test_criterion_6_exponential_convexity():
    rng = np.random.default_rng(66)
    contexts = ([_random_elr_ctx(rng, int(rng.integers(1, 7))) for _ in range(10)]
                + [_random_div_ctx(rng, int(rng.integers(7, 11))) for _ in range(10)])
    u1_grid = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    u2_grid = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    curves = []
    worst_eig = math.inf
    for ctx in contexts:
        for family, grid in ((upsilon1, u1_grid), (upsilon2, u2_grid)):
            curve = GammaCurve(ctx, lambda t, fam=family: fam(t).bundle, grid)
            curves.append(curve)
            for n in (1, 2, 3, 4):
                result = exp_convexity_check(curve, n)
                worst_eig = min(worst_eig, result.min_eigenvalue)
                assert result.passed, (ctx.index, n, result.min_eigenvalue)

    held = 0
    attempts = 0
    while held < 1000:
        attempts += 1
        assert attempts < 5000
        curve = curves[int(rng.integers(len(curves)))]
        low, high = curve.t_grid[0], curve.t_grid[-1]
        r, s, t = np.sort(rng.uniform(low, high, 3))
        if t - s < 1e-3 or s - r < 1e-3:
            continue
        values = [curve.value(float(u)) for u in (r, s, t)]
        if min(values) <= 1e-12:
            continue  # log-convexity needs a strictly positive curve
        holds, residual = lyapunov_check(curve, float(r), float(s), float(t))
        assert holds, (curve.context.index, r, s, t, residual)
        held += 1
    _verdict(6, f"orders 1..4 on 20 contexts x 2 families, min Gram eigenvalue "
                f"{worst_eig:.1e}; log-convexity held on 1000 triples")


# -------------------------------------------------------------------------
# 7. means: containment, diagonal continuity, monotonicity
# -------------------------------------------------------------------------

def test_criterion_7_means():
    rng = np.random.default_rng(88)
    slack = 1e-9
    count = 0
    while count < 10_000:
        if rng.random() < 0.8:
            ctx = _random_elr_ctx(rng, int(rng.integers(1, 7)))
        else:
            ctx = _random_div_ctx(rng, int(rng.integers(7, 11)))
        m, M = ctx.m, ctx.M
        s, t = (float(v) for v in rng.uniform(-2.0, 5.0, 2))
        family = upsilon1 if rng.random() < 0.5 else upsilon2
        member_s, member_t = family(s), family(t)
        b1 = mean_B1(ctx, s, t) if family is upsilon1 else mean_M2(ctx, s, t)
        assert m - slack <= b1 <= M + slack
        xi = cauchy_xi(ctx, member_s.bundle, member_t.bundle)
        assert m - slack <= xi.xi <= M + slack
        mv = mvt_xi(ctx, member_s.bundle)
        assert m - slack <= mv.xi <= M + slack
        count += 1

    ctx = elr_context(1, make_functional([0.5, 0.9, 1.4], [0.3, 0.4, 0.3]),
                      0.2, 2.0)
    specials = [0.0, 1.0, 2.0, 0.001, 0.999, 1.001, 1.999, 2.001, -0.001]
    samples = specials + [float(v) for v in
                          np.random.default_rng(5).uniform(-2, 5, 50 - len(specials))]
    assert len(samples) == 50
    for s in samples:
        diag = mean_B1(ctx, s, s)
        for offset in (1e-5, -1e-5):
            near = mean_B1(ctx, s + offset, s)
            assert abs(near - diag) <= 1e-4 * abs(diag), ("B", s, offset)
    for s in samples:
        diag = mean_M2(ctx, s, s)
        for offset in (1e-5, -1e-5):
            near = mean_M2(ctx, s + offset, s)
            assert abs(near - diag) <= 1e-4 * max(abs(diag), 1e-12), ("M", s, offset)

    violations = 0
    for _ in range(1000):
        s, t = np.sort(rng.uniform(-2.0, 5.0, 2))
        u = float(s) + float(rng.uniform(0, 2.0))
        v = float(t) + float(rng.uniform(0, 2.0))
        if mean_B1(ctx, float(s), float(t)) > mean_B1(ctx, u, v) + 1e-9:
            violations += 1
        if mean_M2(ctx, float(s), float(t)) > mean_M2(ctx, u, v) + 1e-9:
            violations += 1
    assert violations == 0
    _verdict(7, "10^4 containment instances; diagonal continuity at 50 "
                "parameters to 1e-4; monotone on 1000 parameter pairs")


# -------------------------------------------------------------------------
# 8. golden mean-value point
# -------------------------------------------------------------------------

def test_criterion_8_mvt_golden():
    ctx = elr_context(1, make_functional([0.5], [1.0]), 0.0, 1.0)
    result = mvt_xi(ctx, poly_bundle([0.0, 0.0, 0.0, 0.0, 1.0]))
    assert abs(result.xi - 0.375) <= 1e-9
    _verdict(8, f"quartic mean-value point {result.xi!r} within 1e-9 of 0.375")


# -------------------------------------------------------------------------
# 9. command line determinism
# -------------------------------------------------------------------------

def test_criterion_9_cli_determinism(tmp_path):
    pairs = [
        (["verify", "--seed", "42", "--instances", "1000"], "verify"),
        (["bounds", "--input", json.dumps({
            "functional": {"nodes": [0.5], "weights": [1.0]},
            "interval": [0, 1], "phi": {"name": "cubic"}})], "bounds"),
    ]
    for args, tag in pairs:
        first = tmp_path / f"{tag}1.json"
        second = tmp_path / f"{tag}2.json"
        assert cli_main(args + ["--output", str(first)]) == 0
        assert cli_main(args + ["--output", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes(), tag
    _verdict(9, "verify and bounds reports byte-identical across runs")
