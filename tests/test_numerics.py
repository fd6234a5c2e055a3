import math
import sys

import mpmath as mp
import numpy as np
import pytest
import scipy.stats

from cathist.core import ValidityError
from cathist.numerics import (
    BINOMIAL_MEAN_ENVELOPE,
    derive_seed,
    inclusion_probability,
    make_rng,
    noisy_threshold,
    pcg64_state,
    sample_binomial,
    sample_laplace,
    sample_shifted_exponential,
    threshold_defined,
)

from oracles import expected_injected_oracle, inclusion_oracle, pcg64_doubles, sample_binomial_by_walk, tau_oracle


class TestThreshold:
    def test_boundary_is_exactly_zero(self):
        # rho=0.5, n=1: the root equals 1/2, so the argument of ln is 1.
        assert noisy_threshold(1.0, 0.5, 1) == 0.0
        assert math.copysign(1.0, noisy_threshold(1.0, 0.5, 1)) == 1.0

    def test_frozen_wordlist_value(self):
        # Computed independently at 60 significant digits before implementation.
        assert noisy_threshold(1.0, 0.9, 171_000) == pytest.approx(
            13.606639290308964, rel=1e-13
        )

    def test_frozen_wordpair_value(self):
        assert noisy_threshold(0.01, 0.9, 171_000**2) == pytest.approx(
            2565.6057817723895, rel=1e-13
        )

    @pytest.mark.parametrize(
        "epsilon,rho,n",
        [
            (1.0, 0.9, 171_000),
            (0.1, 0.5, 1_000),
            (2.5, 0.99, 10**8),
            (0.01, 0.1, 10**12),
            (5.0, 0.999999, 3),
        ],
    )
    def test_matches_high_precision_oracle(self, epsilon, rho, n):
        assert noisy_threshold(epsilon, rho, n) == pytest.approx(
            tau_oracle(epsilon, rho, n), rel=1e-12
        )

    def test_scales_inversely_with_epsilon(self):
        t1 = noisy_threshold(1.0, 0.9, 171_000)
        t2 = noisy_threshold(0.01, 0.9, 171_000)
        assert t2 == pytest.approx(100.0 * t1, rel=1e-12)

    def test_monotone_in_rho_and_n(self):
        for n in (10, 1_000, 10**6):
            taus = [noisy_threshold(1.0, r, n) for r in (0.1, 0.3, 0.5, 0.7, 0.9)]
            assert taus == sorted(taus)
            assert taus[0] < taus[-1]
        for rho in (0.1, 0.9):
            taus = [noisy_threshold(1.0, rho, n) for n in (4, 100, 10**4, 10**9)]
            assert taus == sorted(taus)

    def test_undefined_gate_message(self):
        with pytest.raises(ValidityError, match=r"tau undefined: rho\^\(1/n\) < 1/2"):
            noisy_threshold(1.0, 0.2, 2)
        assert not threshold_defined(0.2, 2)
        assert threshold_defined(0.26, 2)

    def test_extreme_rho_gate(self):
        with pytest.raises(ValidityError, match="tau undefined"):
            noisy_threshold(1.0, 1e-300, 2)

    def test_bad_parameters(self):
        with pytest.raises(ValidityError):
            noisy_threshold(0.0, 0.9, 10)
        with pytest.raises(ValidityError):
            noisy_threshold(-1.0, 0.9, 10)
        with pytest.raises(ValidityError):
            noisy_threshold(1.0, 0.9, 0)
        with pytest.raises(ValidityError):
            threshold_defined(1.2, 10)

    def test_domain_size_past_the_largest_double_refused(self):
        largest = int(sys.float_info.max)
        for n in (10**308, largest):
            assert 0 < noisy_threshold(1.0, 0.5, n) < math.inf
        for n in (largest + 1, 10**309, 10**400):
            with pytest.raises(ValidityError, match="domain size must be at most the largest double"):
                noisy_threshold(1.0, 0.5, n)
            with pytest.raises(ValidityError, match="domain size must be at most the largest double"):
                threshold_defined(0.5, n)

    def test_root_exponent_underflowing_to_zero(self):
        # ln(rho)/n is about -1.1e-324, which rounds to 0: the threshold is
        # still -ln(-2 * expm1(ln(rho)/n)), here evaluated at 60 digits.
        rho, n = 0.9999999999999999, 10**308
        assert math.log(rho) / n == 0.0
        with mp.workdps(60):
            want = float(-mp.log(-2 * mp.expm1(mp.log(mp.mpf(rho)) / n)))
        assert noisy_threshold(1.0, rho, n) == pytest.approx(want, rel=1e-12)
        assert noisy_threshold(0.5, rho, n) == pytest.approx(2 * want, rel=1e-12)


class TestInclusionProbability:
    def test_zero_threshold_gives_half(self):
        assert inclusion_probability(1.0, 0.0) == 0.5

    def test_matches_oracle(self):
        for epsilon, rho, n in [(1.0, 0.9, 171_000), (0.01, 0.5, 10**10)]:
            t = noisy_threshold(epsilon, rho, n)
            assert inclusion_probability(epsilon, t) == pytest.approx(
                inclusion_oracle(epsilon, rho, n), rel=1e-12
            )

    def test_round_trip_recovers_rho(self):
        # (1-p)^n computed as exp(n*log1p(-p)) must land back on rho.
        rng = np.random.default_rng(7)
        for _ in range(200):
            epsilon = float(10.0 ** rng.uniform(-3, 1))
            n = int(10.0 ** rng.uniform(0, 12)) + 1
            rho = float(rng.uniform(0.5, 0.999999))
            t = noisy_threshold(epsilon, rho, n)
            p = inclusion_probability(epsilon, t)
            assert math.exp(n * math.log1p(-p)) == pytest.approx(rho, rel=1e-9)


class TestLaplaceSampler:
    def test_deterministic_given_seed(self):
        a = [sample_laplace(make_rng(42), 0.0, 1.0) for _ in range(1)]
        b = [sample_laplace(make_rng(42), 0.0, 1.0) for _ in range(1)]
        assert a == b

    def test_moments(self):
        rng = make_rng(101)
        xs = np.array([sample_laplace(rng, 0.0, 1.0) for _ in range(1_000_000)])
        assert abs(xs.mean()) < 0.005
        assert xs.var() == pytest.approx(2.0, abs=0.05)

    def test_location_and_scale(self):
        rng = make_rng(102)
        xs = np.array([sample_laplace(rng, 5.0, 2.0) for _ in range(200_000)])
        assert xs.mean() == pytest.approx(5.0, abs=0.02)
        assert xs.var() == pytest.approx(8.0, abs=0.25)

    def test_tail_mass_matches_closed_form(self):
        # P(X >= t) = (1/2) e^(-eps*t) for X ~ Laplace(0, 1/eps), t >= 0.
        epsilon = 1.0
        rng = make_rng(103)
        xs = np.array([sample_laplace(rng, 0.0, 1.0 / epsilon) for _ in range(400_000)])
        for t in (0.5, 1.0, 2.0):
            expected = 0.5 * math.exp(-epsilon * t)
            se = math.sqrt(expected * (1 - expected) / xs.size)
            assert abs((xs >= t).mean() - expected) < 4 * se

    def test_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            sample_laplace(make_rng(0), 0.0, 0.0)


class TestShiftedExponentialSampler:
    def test_strictly_above_shift(self):
        rng = make_rng(104)
        shift = 13.606639290308964
        xs = [sample_shifted_exponential(rng, 1.0, shift) for _ in range(10_000)]
        assert min(xs) > shift

    def test_mean_rate_two(self):
        rng = make_rng(105)
        xs = np.array([sample_shifted_exponential(rng, 2.0, 0.0) for _ in range(1_000_000)])
        assert xs.mean() == pytest.approx(0.5, abs=0.002)

    def test_mean_with_shift(self):
        rng = make_rng(106)
        shift = 13.6
        xs = np.array([sample_shifted_exponential(rng, 1.0, shift) for _ in range(1_000_000)])
        assert xs.mean() == pytest.approx(shift + 1.0, abs=0.004)

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            sample_shifted_exponential(make_rng(0), 0.0, 1.0)


class TestBinomialSampler:
    def test_p_zero_always_zero(self):
        rng = make_rng(107)
        assert all(sample_binomial(rng, 10**12, 0.0) == 0 for _ in range(100))

    def test_envelope_guard(self):
        with pytest.raises(ValidityError, match="expected bin count out of envelope"):
            sample_binomial(make_rng(0), 10**10, 1e-3)
        assert BINOMIAL_MEAN_ENVELOPE == 1e3

    @pytest.mark.parametrize(
        "n, mean",
        [(n, mean) for mean in (0.69, 40, 500, 744) for n in (1_007, 171_000**2, 2**63 - 1)]
        # The walk stops at k = n; the first CDF sums underflow to 0.0.
        + [(5, 2.5), (10**12, 900)],
    )
    def test_cached_inversion_equals_the_walk(self, n, mean):
        # Same draws, and the same generator state after them, as walking the
        # PMF from k = 0 on every call.
        p = mean / n
        rng, reference = make_rng(111, n % 1000, int(mean)), make_rng(111, n % 1000, int(mean))
        for i in range(3_000):
            assert sample_binomial(rng, n, p) == sample_binomial_by_walk(reference, n, p), i
        assert rng.bit_generator.state == reference.bit_generator.state

    @staticmethod
    def assert_chi_square_fit(n, p, seed, runs, pmf):
        """Chi-square goodness of fit of runs draws against the pmf array (of
        k = 0, 1, ...) at the 0.001 level, its cells expecting 5 or fewer
        draws pooled into one."""
        rng = make_rng(seed)
        draws = np.array([sample_binomial(rng, n, p) for _ in range(runs)])
        assert draws.max() < pmf.size, f"n={n}, p={p}: a draw is past the pmf's support"
        observed = np.bincount(draws, minlength=pmf.size)
        expected = pmf * runs
        keep = expected > 5
        obs = observed[keep].astype(float)
        exp = expected[keep]
        if not keep.all():
            obs = np.append(obs, observed[~keep].sum())
            exp = np.append(exp, expected[~keep].sum())
        stat = ((obs - exp) ** 2 / exp).sum()
        crit = scipy.stats.chi2.isf(0.001, df=len(obs) - 1)
        assert stat < crit, f"n={n}, p={p}: chi2={stat:.1f} > {crit:.1f}"

    def test_small_n_matches_scipy_pmf(self):
        # Chi-square goodness of fit against an independent pmf.
        for n, p, seed in [(10, 0.3, 1), (30, 0.05, 2), (5, 0.5, 3)]:
            self.assert_chi_square_fit(n, p, seed, 100_000, scipy.stats.binom.pmf(np.arange(n + 1), n, p))

    @pytest.mark.parametrize("n", [171_000**2, 2**63 - 1])
    def test_huge_n_large_mean_matches_poisson_pmf(self, n):
        # n*p = 40, where numpy's Generator.binomial goes wrong at n = 2**63 - 1
        # (chi-square about 2600, variance 31 instead of 40). Poisson(n*p) is
        # within total variation p of Binomial(n, p), far below what 20 000
        # draws can resolve; its mass past k = 200 is below 1e-60.
        p = 40 / n
        self.assert_chi_square_fit(n, p, 110, 20_000, scipy.stats.poisson.pmf(np.arange(200), n * p))

    def test_huge_n_mean(self):
        # Word-pair sized n with p calibrated so n*p = ln 2.
        n = 171_000**2
        p = inclusion_oracle(1.0, 0.5, n)
        rng = make_rng(108)
        draws = np.array([sample_binomial(rng, n, p) for _ in range(100_000)])
        assert draws.mean() == pytest.approx(math.log(2.0), abs=0.01)

    def test_zero_fraction_at_rho(self):
        n = 171_000
        rho = 0.9
        p = inclusion_oracle(1.0, rho, n)
        rng = make_rng(109)
        draws = np.array([sample_binomial(rng, n, p) for _ in range(100_000)])
        assert (draws == 0).mean() == pytest.approx(rho, abs=0.01)
        assert draws.mean() == pytest.approx(expected_injected_oracle(1.0, rho, n, n), abs=0.01)

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            sample_binomial(make_rng(0), 10, 1.0)
        with pytest.raises(ValueError):
            sample_binomial(make_rng(0), 10, -0.1)


class TestSeedDerivation:
    def test_stable_across_calls(self):
        assert derive_seed(0, 1, 2, 3) == derive_seed(0, 1, 2, 3)

    def test_distinct_keys_differ(self):
        seeds = {derive_seed(0, i, j, k) for i in range(3) for j in range(5) for k in range(10)}
        assert len(seeds) == 150

    def test_make_rng_streams_are_independent_of_each_other(self):
        a = make_rng(5, 0).random(4).tolist()
        b = make_rng(5, 1).random(4).tolist()
        assert a != b
        assert make_rng(5, 0).random(4).tolist() == a


class TestMakeRng:
    def test_golden_first_doubles(self):
        # Pinned: a change here changes every seeded release, sweep CSV and
        # records file.
        assert make_rng(0).random(3).tolist() == [0.5349767416168838, 0.024312486100300568, 0.6945282093298388]
        assert make_rng(7, 2).random(3).tolist() == [0.1881425397401687, 0.52903353569206, 0.029703850029235368]

    @pytest.mark.parametrize("words", [(0,), (7, 2), (1, 0), (2**64,), (2**200, 3, 0)])
    def test_stream_is_the_hashed_pcg64(self, words):
        assert make_rng(*words).random(5).tolist() == pcg64_doubles(5, *words)
        assert make_rng(*words).bit_generator.state == pcg64_state(*words)

    def test_length_prefix_keeps_word_tuples_apart(self):
        words = [(1, 0), (256,), (1,), (0, 1), (2**64,), (2**200,)]
        streams = {tuple(make_rng(*w).random(4).tolist()) for w in words}
        assert len(streams) == len(words)

    def test_numpy_integer_words_match_int_words(self):
        assert make_rng(np.int64(5), np.uint32(2)).random(3).tolist() == make_rng(5, 2).random(3).tolist()

    @pytest.mark.parametrize("words", [(-1,), (3, -2)])
    def test_negative_word_refused_by_name(self, words):
        with pytest.raises(ValueError, match=f"got {min(words)} in"):
            make_rng(*words)

    def test_spawned_children_differ_between_seeds(self):
        # Generator.spawn arrived in numpy 1.25; on 1.24 spawn the same way
        # from the bit generator's SeedSequence.
        def children(rng):
            if hasattr(rng, "spawn"):
                return rng.spawn(2)
            return [np.random.Generator(np.random.PCG64(s)) for s in rng.bit_generator._seed_seq.spawn(2)]

        drawn = [tuple(child.random(4).tolist()) for seed in (0, 1) for child in children(make_rng(seed))]
        assert len(set(drawn)) == 4
        parents = {tuple(make_rng(seed).random(4).tolist()) for seed in (0, 1)}
        assert not parents & set(drawn)
