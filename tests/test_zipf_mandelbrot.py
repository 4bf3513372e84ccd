import math
from types import SimpleNamespace

import numpy as np
import pytest

from elrbounds import zipf_mandelbrot

from elrbounds import (
    divergence_bounds,
    generator,
    harmonic_sum,
    zm_distribution,
    zm_ratio_extrema,
)
from elrbounds.zipf_mandelbrot import zm_divergence_pass


class TestHarmonicSum:
    def test_single_term(self):
        assert harmonic_sum(1, 0.0, 2.0) == 1.0

    def test_two_terms(self):
        assert harmonic_sum(2, 0.0, 1.0) == pytest.approx(1.5, abs=1e-15)

    def test_shifted(self):
        assert harmonic_sum(3, 1.0, 1.0) == pytest.approx(0.5 + 1 / 3 + 0.25, abs=1e-15)

    def test_matches_exact_summation(self):
        rng = np.random.default_rng(12)
        for _ in range(40):
            N = int(rng.integers(1, 5000))
            q = float(rng.uniform(0, 10))
            s = float(rng.uniform(0.05, 5))
            exact = math.fsum((i + q) ** (-s) for i in range(1, N + 1))
            assert harmonic_sum(N, q, s) == pytest.approx(exact, rel=1e-12)

    def test_zero_n_rejected(self):
        with pytest.raises(ValueError, match="positive integer"):
            harmonic_sum(0, 0.0, 1.0)


class TestDistribution:
    @pytest.mark.parametrize("N", [True, False, "100", 2.0])
    def test_rank_count_must_be_an_integer(self, N):
        for build in (zm_distribution, harmonic_sum):
            with pytest.raises(ValueError, match="^N must be a positive integer$"):
                build(N, 0.0, 1.0)

    def test_numpy_rank_count_accepted(self):
        assert zm_distribution(np.int64(3), 0.0, 1.0).N == 3

    def test_two_point_zipf(self):
        z = zm_distribution(2, 0.0, 1.0)
        assert z.pmf == pytest.approx([2 / 3, 1 / 3], abs=1e-15)
        assert z.normalizer == pytest.approx(1.5, abs=1e-15)

    def test_single_point(self):
        assert zm_distribution(1, 2.0, 3.0).pmf == pytest.approx([1.0], abs=1e-15)

    def test_flat_exponent_approaches_uniform(self):
        z = zm_distribution(3, 0.0, 0.0001)
        assert np.allclose(z.pmf, 1 / 3, atol=1e-3)

    def test_pmf_monotone_decreasing(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            z = zm_distribution(int(rng.integers(2, 200)),
                                float(rng.uniform(0, 10)),
                                float(rng.uniform(0.05, 5)))
            assert (np.diff(z.pmf) < 0).all()

    def test_normalization_tight(self):
        for N in (1, 2, 7, 100, 2500, 10000):
            z = zm_distribution(N, 1.3, 2.2)
            assert abs(math.fsum(z.pmf) - 1.0) <= 1e-12

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError, match="exponent"):
            zm_distribution(3, 0.0, 0.0)
        with pytest.raises(ValueError, match="nonnegative"):
            zm_distribution(3, -0.5, 1.0)

    @pytest.mark.parametrize("q, s, label", [
        (math.nan, 1.0, "shift q"), (math.inf, 1.0, "shift q"), (-math.inf, 1.0, "shift q"),
        (0.0, math.nan, "exponent s"), (0.0, math.inf, "exponent s"),
        (1.0, -math.inf, "exponent s"),
    ])
    def test_non_finite_parameters_rejected(self, q, s, label):
        for call in (zm_distribution, harmonic_sum):
            with pytest.raises(ValueError, match=f"{label} must be finite"):
                call(10, q, s)


    @pytest.mark.parametrize("N", [10**13, 10**7 + 1,
                                   np.int64(10**13)])
    def test_more_ranks_than_the_limit_refused_before_allocating(self, N, monkeypatch):
        def no_allocation(*args, **kwargs):
            raise AssertionError("a law above the rank limit allocated its ranks")

        monkeypatch.setattr(zipf_mandelbrot, "np", SimpleNamespace(
            **{**vars(np), "arange": no_allocation}))
        for call in (zm_distribution, harmonic_sum):
            with pytest.raises(ValueError, match=f"N must be at most 10000000 "
                                                 f"ranks, got {N}$"):
                call(N, 0.0, 1.0)


class TestRatioExtrema:
    def test_identical_laws(self):
        a = zm_distribution(5, 1.0, 2.0)
        assert zm_ratio_extrema(a, a) == (1.0, 1.0)

    def test_worked_pair(self):
        a = zm_distribution(2, 0.0, 1.0)
        b = zm_distribution(2, 0.0, 2.0)
        m, M = zm_ratio_extrema(a, b)
        assert m == pytest.approx(5 / 6, rel=1e-14)
        assert M == pytest.approx(5 / 3, rel=1e-14)

    def test_always_straddles_one(self):
        rng = np.random.default_rng(14)
        for _ in range(60):
            N = int(rng.integers(2, 300))
            a = zm_distribution(N, float(rng.uniform(0, 5)), float(rng.uniform(0.1, 4)))
            b = zm_distribution(N, float(rng.uniform(0, 5)), float(rng.uniform(0.1, 4)))
            m, M = zm_ratio_extrema(a, b)
            assert m <= 1.0 <= M

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length mismatch"):
            zm_ratio_extrema(zm_distribution(2, 0, 1), zm_distribution(3, 0, 1))


class TestDivergenceBounds:
    def test_harmonic_bracket_and_mid_cross_check(self):
        a = zm_distribution(2, 0.0, 1.0)
        b = zm_distribution(2, 0.0, 2.0)
        gen = generator("harmonic")
        r = zm_divergence_pass(a, b, gen, ("derivative",))[1][0]
        assert r.orientation == "direct"
        assert r.violation() <= 1e-12
        # direct-sum cross check of the mid quantity
        m, M = zm_ratio_extrema(a, b)
        f = lambda t: 2 * t / (1 + t)
        div = sum(bq * f(ap / bq) for ap, bq in zip(a.pmf, b.pmf))
        mid = (M - 1) / (M - m) * f(m) + (1 - m) / (M - m) * f(M) - div
        assert r.mid == pytest.approx(mid, rel=1e-12)

    def test_kl_reversed(self):
        a = zm_distribution(2, 0.0, 1.0)
        b = zm_distribution(2, 0.0, 2.0)
        r = zm_divergence_pass(a, b, generator("kl"), ("derivative",))[1][0]
        assert r.orientation == "reversed"
        assert r.violation() <= 1e-12

    def test_identical_laws_rejected(self):
        a = zm_distribution(4, 0.5, 1.5)
        with pytest.raises(ValueError, match="degenerate interval"):
            zm_divergence_pass(a, a, generator("kl"), ("derivative",))[1][0]

    def test_bit_identical_to_generic_path(self):
        rng = np.random.default_rng(15)
        gens = [generator("kl"), generator("harmonic"), generator("renyi", alpha=3.0)]
        for _ in range(25):
            N = int(rng.integers(2, 100))
            a = zm_distribution(N, float(rng.uniform(0, 4)), float(rng.uniform(0.2, 3)))
            b = zm_distribution(N, float(rng.uniform(0, 4)), float(rng.uniform(0.2, 3)))
            m, M = zm_ratio_extrema(a, b)
            if m == M:
                continue
            gen = gens[int(rng.integers(len(gens)))]
            for theorem in ("derivative", "taylor"):
                rz = zm_divergence_pass(a, b, gen, (theorem,))[1][0]
                rg = divergence_bounds(a.pmf, b.pmf, gen, m=m, M=M, theorem=theorem)
                assert rz.lower == rg.lower
                assert rz.mid == rg.mid
                assert rz.upper == rg.upper
                assert rz.orientation == rg.orientation

    def test_report_carries_parameters(self):
        a = zm_distribution(3, 0.0, 1.0)
        b = zm_distribution(3, 0.2, 2.0)
        r = zm_divergence_pass(a, b, generator("harmonic"), ("derivative",))[1][0]
        assert r.details["zm_a"]["N"] == 3
        assert r.details["zm_b"]["q"] == 0.2
