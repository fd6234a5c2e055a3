import functools
import math
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest

from cathist.core import (
    ARRAY_CHECK_COUNTS,
    CatHistError,
    ExplicitList,
    Histogram,
    NoisyBin,
    NoisyHistogram,
    Origin,
    PrivacyParams,
    SizeOnly,
    ValidityError,
    WordList,
    WordPairs,
)
from cathist import mechanism
from cathist.domain import load_domain
from cathist.mechanism import (
    ARRAY_NOISE_BINS,
    CatHistConfig,
    _absent_slots,
    _draw_batch,
    _nonzero,
    cat_hist,
    record_chunks,
    synthesize_records,
)
from cathist.numerics import (
    BINOMIAL_MEAN_ENVELOPE,
    inclusion_probability,
    make_rng,
    noisy_threshold,
    sample_laplace,
    sample_shifted_exponential,
)

from conftest import WORKCLASS_COUNTS
import oracles
from oracles import (
    ORACLE_MAX_DOMAIN,
    binomial_walk,
    cat_hist_per_bin,
    cat_hist_per_rep,
    draw_batch_per_rep,
    expected_injected_oracle,
    injected_sd_oracle,
    naive_full_domain_oracle,
    zero_injection_oracle,
)


def config_for(epsilon, rho, domain, seed, **kw):
    return CatHistConfig(PrivacyParams(epsilon, rho), domain, seed, **kw)


class TestDeterminismAndStructure:
    DOMAIN = SizeOnly(size=171_000)

    def test_same_seed_same_release(self):
        h = Histogram([("cat-3", 40.0), ("cat-9", 25.0)])
        a = cat_hist(config_for(1.0, 0.9, self.DOMAIN, seed=77), h)
        b = cat_hist(config_for(1.0, 0.9, self.DOMAIN, seed=77), h)
        assert a == b

    def test_different_seeds_differ(self):
        h = Histogram([("cat-3", 40.0), ("cat-9", 25.0)])
        a = cat_hist(config_for(1.0, 0.9, self.DOMAIN, seed=77), h)
        b = cat_hist(config_for(1.0, 0.9, self.DOMAIN, seed=78), h)
        assert a != b

    def test_preloaded_sampler_changes_nothing(self):
        h = Histogram([("cat-3", 40.0)])
        cfg = config_for(1.0, 0.9, self.DOMAIN, seed=5)
        assert cat_hist(cfg, h) == cat_hist(cfg, h, sampler=load_domain(self.DOMAIN))

    def test_survivors_in_input_order_then_injected(self):
        h = Histogram([("cat-5", 500.0), ("cat-1", 300.0), ("cat-8", 400.0)])
        release = cat_hist(config_for(1.0, 0.5, self.DOMAIN, seed=11), h)
        actives = [b.label for b in release.bins if b.origin is Origin.ACTIVE]
        assert actives == ["cat-5", "cat-1", "cat-8"]
        origins = [b.origin for b in release.bins]
        assert origins == sorted(origins, key=lambda o: o is Origin.INJECTED)

    def test_all_counts_at_or_above_threshold(self):
        t = noisy_threshold(1.0, 0.9, 171_000)
        h = Histogram([("cat-2", 20.0), ("cat-4", 14.0), ("cat-6", 8.0)])
        for seed in range(300):
            release = cat_hist(config_for(1.0, 0.9, self.DOMAIN, seed=seed), h)
            for b in release.bins:
                assert b.count >= t > 0

    def test_no_duplicate_labels_ever(self):
        h = Histogram([(f"cat-{i}", 30.0) for i in range(20)])
        for seed in range(200):
            release = cat_hist(config_for(0.5, 0.5, self.DOMAIN, seed=seed), h)
            labels = release.labels()
            assert len(set(labels)) == len(labels)

    def test_zero_count_bins_are_ignored(self):
        cfg = config_for(1.0, 0.9, self.DOMAIN, seed=13)
        with_zero = cat_hist(cfg, Histogram([("cat-1", 50.0), ("cat-2", 0.0)]))
        without = cat_hist(cfg, Histogram([("cat-1", 50.0)]))
        assert with_zero == without


class TestPostProcessingAudit:
    def test_injected_bins_blind_to_active_counts(self):
        # Same active set, same seed, very different counts: the injected
        # part of the release must be byte-identical.
        domain = SizeOnly(size=171_000)
        cfg = config_for(1.0, 0.1, domain, seed=99)
        releases = [
            cat_hist(cfg, Histogram([("cat-0", 5.0), ("cat-1", 7.0)])),
            cat_hist(cfg, Histogram([("cat-0", 100.0), ("cat-1", 3.0)])),
            cat_hist(cfg, Histogram([("cat-0", 9999.0), ("cat-1", 50000.0)])),
        ]
        injected = [r.injected_bins() for r in releases]
        assert injected[0] == injected[1] == injected[2]

    def test_audit_across_many_seeds(self):
        domain = SizeOnly(size=1_000)
        for seed in range(100):
            cfg = config_for(1.0, 0.5, domain, seed=seed)
            a = cat_hist(cfg, Histogram([("cat-7", 4.0)]))
            b = cat_hist(cfg, Histogram([("cat-7", 4000.0)]))
            assert a.injected_bins() == b.injected_bins()


class TestSurvivalStatistics:
    def test_borderline_bin_survival_frequency(self):
        # True count five units below the threshold: survival probability is
        # the Laplace upper tail (1/2)e^(-5).
        domain = SizeOnly(size=171_000)
        t = noisy_threshold(1.0, 0.9, domain.size)
        h = Histogram([("cat-0", t - 5.0)])
        runs = 200_000
        survived = 0
        for seed in range(runs):
            release = cat_hist(config_for(1.0, 0.9, domain, seed=seed), h)
            survived += any(b.origin is Origin.ACTIVE for b in release.bins)
        expect = 0.5 * math.exp(-5.0)
        sigma = math.sqrt(expect * (1 - expect) / runs)
        assert survived / runs == pytest.approx(expect, abs=4 * sigma)

    def test_large_counts_always_survive(self, wordlist_path):
        domain = WordList(wordlist_path)
        sampler = load_domain(domain)
        h = Histogram([("Male", 10838.0), ("Female", 10952.0)])
        ok = 0
        for seed in range(1_000):
            release = cat_hist(config_for(1.0, 0.9, domain, seed=seed), h, sampler=sampler)
            labels = set(b.label for b in release.active_bins())
            ok += labels == {"Male", "Female"}
        assert ok >= 990

    def test_zero_injection_frequency_matches_rho(self):
        domain = SizeOnly(size=171_000)
        h = Histogram([("cat-0", 50.0)])
        runs = 10_000
        zero = 0
        for seed in range(runs):
            release = cat_hist(config_for(1.0, 0.9, domain, seed=seed), h)
            zero += not release.injected_bins()
        assert zero / runs == pytest.approx(0.9, abs=0.01)

    def test_empty_histogram_high_rho_is_almost_always_empty(self):
        domain = ExplicitList(labels=("u", "v"))
        empty = 0
        for seed in range(1_000):
            release = cat_hist(config_for(1.0, 0.999999, domain, seed=seed), Histogram([]))
            assert all(b.origin is Origin.INJECTED for b in release.bins)
            empty += len(release) == 0
        assert empty >= 999


class TestTrials:
    """The binomial runs over the absent in-domain slots only."""

    def test_saturated_active_domain_never_injects(self):
        domain = ExplicitList(labels=("u", "v"))
        h = Histogram([("u", 100.0), ("v", 90.0)])
        for seed in range(200):
            cfg = config_for(1.0, 0.6, domain, seed=seed)
            assert not cat_hist(cfg, h).injected_bins()


    def test_nearly_covered_listed_domain(self):
        # One absent slot in 20 000: rejection sampling used to give up after
        # RETRY_FACTOR draws (seeds 4 and 101 failed). The absent label is the
        # only one that can be injected.
        labels = tuple(f"w{i}" for i in range(20_000))
        domain = ExplicitList(labels)
        sampler = load_domain(domain)
        h = Histogram([(label, 1.0) for label in labels[:-1]])
        injected = set()
        for seed in range(200):
            cfg = config_for(1.0, 1e-300, domain, seed=seed)
            injected.update(b.label for b in cat_hist(cfg, h, sampler=sampler).injected_bins())
        assert injected == {labels[-1]}


    def test_counts_in_domain_absent_slots(self, monkeypatch):
        # "a" is active and "b" has no count: of the 3 slots "b" and "c" are
        # absent, so the binomial runs over 2 trials: the release's plan,
        # which holds the binomial table, is asked for 2.
        trials = []
        plan = mechanism._plan

        def recording_plan(epsilon, rho, n, absent):
            trials.append(absent)
            return plan(epsilon, rho, n, absent)

        monkeypatch.setattr(mechanism, "_plan", recording_plan)
        cat_hist(config_for(1.0, 0.6, ExplicitList(("a", "b", "c")), seed=0), Histogram([("a", 5.0), ("b", 0.0)]))
        assert trials == [2]


class TestDomainMembership:
    def test_out_of_domain_active_is_an_error(self):
        domain = ExplicitList(labels=("a", "b"))
        h = Histogram([("a", 10.0), ("zzz", 5.0)])
        cfg = config_for(1.0, 0.6, domain, seed=0)
        with pytest.raises(ValidityError, match=r"outside the declared domain: \['zzz'\]; declare a domain that"):
            cat_hist(cfg, h)
        # The references refuse it too, without the package's check.
        with pytest.raises(ValidityError, match=r"outside the declared domain: \['zzz'\]"):
            cat_hist_per_bin(cfg, h, load_domain(domain))
        with pytest.raises(ValidityError, match=r"outside the declared domain: \['zzz'\]"):
            naive_full_domain_oracle(cfg, h)

    def test_sampler_for_wrong_domain_is_rejected(self):
        sampler = load_domain(ExplicitList(labels=("a", "b")))
        cfg = config_for(1.0, 0.6, ExplicitList(labels=("a", "c")), seed=0)
        with pytest.raises(ValueError, match="different domain"):
            cat_hist(cfg, Histogram([("a", 5.0)]), sampler=sampler)


class TestAbsentSlotsMemo:
    """The absent-slot count is kept on the histogram with the sampler that
    checked it; membership is checked again for any other sampler."""

    DOMAIN = SizeOnly(size=10**6)

    @staticmethod
    def spy_non_members(monkeypatch, sampler):
        calls = []
        non_members = sampler.non_members

        def counting(labels):
            calls.append(labels)
            return non_members(labels)

        monkeypatch.setattr(sampler, "non_members", counting)
        return calls

    def test_membership_checked_once_per_histogram_and_sampler(self, monkeypatch):
        sampler = load_domain(self.DOMAIN)
        calls = self.spy_non_members(monkeypatch, sampler)
        h = Histogram([("cat-9", 25.0), ("cat-0", 0.0), ("cat-3", 40.0)])
        for seed in range(3):
            cat_hist(config_for(1.0, 0.01, self.DOMAIN, seed=seed), h, sampler=sampler)
        # The active labels in bin order, not a set.
        assert calls == [("cat-9", "cat-3")]

    def test_sampler_with_an_equal_spec_checks_again(self, monkeypatch):
        first, second = load_domain(self.DOMAIN), load_domain(self.DOMAIN)
        calls = self.spy_non_members(monkeypatch, second)
        h = Histogram([("cat-3", 40.0)])
        cfg = config_for(1.0, 0.01, self.DOMAIN, seed=5)
        release = cat_hist(cfg, h, sampler=first)
        assert cat_hist(cfg, h, sampler=second) == release
        assert cat_hist(cfg, h, sampler=second) == release
        assert len(calls) == 1

    def test_out_of_domain_refused_on_every_call(self, monkeypatch):
        domain = ExplicitList(labels=("a", "b"))
        sampler = load_domain(domain)
        calls = self.spy_non_members(monkeypatch, sampler)
        h = Histogram([("a", 10.0), ("zzz", 5.0)])
        for seed in range(3):
            with pytest.raises(ValidityError, match=r"outside the declared domain: \['zzz'\]"):
                cat_hist(config_for(1.0, 0.6, domain, seed=seed), h, sampler=sampler)
        assert len(calls) == 3

    def test_release_without_injection_builds_no_active_set(self):
        # Membership is checked on the bin-order labels; the active set is
        # built only to exclude it from injected labels.
        sampler = load_domain(self.DOMAIN)
        h = Histogram([("cat-3", 40.0), ("cat-9", 25.0)])
        release = cat_hist(config_for(1.0, 0.999, self.DOMAIN, seed=0), h, sampler=sampler)
        assert not release.injected_bins()
        assert "_active" not in vars(h)
        injecting = cat_hist(config_for(1.0, 1e-100, self.DOMAIN, seed=0), h, sampler=sampler)
        assert injecting.injected_bins() and vars(h)["_active"] == {"cat-3", "cat-9"}

    def test_release_of_a_memoized_histogram_equals_a_fresh_one(self):
        sampler = load_domain(self.DOMAIN)
        h = Histogram([("cat-3", 40.0), ("cat-9", 2.0), ("cat-11", 0.0)])
        injected = 0
        for seed in range(20):
            cfg = config_for(1.0, 0.01, self.DOMAIN, seed=seed)
            release = cat_hist(cfg, h, sampler=sampler)
            assert release == cat_hist(cfg, Histogram(h.items()), sampler=sampler), seed
            injected += len(release.injected_bins())
        assert injected > 0


class TestMatchesPerBinLoop:
    """cat_hist draws each release's weights and its active-bin noise in one
    array call each; the per-call samplers must give the same release, bit
    for bit."""

    SEEDS = range(50)

    def test_word_list_many_active_bins(self, wordlist_path):
        domain = WordList(wordlist_path)
        sampler = load_domain(domain)
        rng = np.random.default_rng(501)
        words = sampler.decode(rng.choice(sampler.size, size=1_500, replace=False))
        h = Histogram(zip(words, rng.integers(0, 40, size=len(words)).tolist()))
        assert len(h.active_domain()) >= 1_000
        for seed in self.SEEDS:
            cfg = config_for(0.5, 0.3, domain, seed=seed)
            assert cat_hist(cfg, h, sampler=sampler) == cat_hist_per_bin(cfg, h, sampler), seed

    def test_word_pairs_many_injected_bins(self, wordlist_path):
        domain = WordPairs(wordlist_path)
        sampler = load_domain(domain)
        h = Histogram([("Male Female", 300.0), ("Female Male", 2.0), ("Male Male", 0.0)])
        injected = []
        for seed in self.SEEDS:
            cfg = config_for(1.0, 1e-200, domain, seed=seed)
            release = cat_hist(cfg, h, sampler=sampler)
            assert release == cat_hist_per_bin(cfg, h, sampler), seed
            injected.append(len(release.injected_bins()))
        assert min(injected) >= 300

    def test_largest_generated_domain_injects(self):
        # At n = 2**63 indices are drawn below the largest bound numpy takes.
        domain = SizeOnly(size=2**63, prefix="x")
        sampler = load_domain(domain)
        h = Histogram([("x-5", 1.0)])
        for seed in range(1, 5):
            cfg = config_for(1.0, 1e-300, domain, seed=seed)
            release = cat_hist(cfg, h, sampler=sampler)
            assert release == cat_hist_per_bin(cfg, h, sampler), seed
            labels = [b.label for b in release.injected_bins()]
            assert len(labels) >= 500 and all(map(sampler.contains, labels)), seed


class TestThreadGenerator:
    """cat_hist re-seeds one generator per thread for each release; every
    release must still equal its replay from a fresh make_rng(seed)."""

    DOMAIN = SizeOnly(size=10_000)
    H = Histogram([("cat-1", 30.0), ("cat-2", 3.0), ("cat-3", 1.0)])

    def config(self, seed):
        # rho = 0.05: about three injected bins a release.
        return config_for(1.0, 0.05, self.DOMAIN, seed=seed)

    def test_equals_replay_after_serving_other_seeds(self):
        sampler = load_domain(self.DOMAIN)
        want = {seed: cat_hist_per_bin(self.config(seed), self.H, sampler) for seed in range(4)}
        assert sum(len(release.injected_bins()) for release in want.values()) > 0
        for seed in (0, 1, 0, 3, 2, 2, 1, 3, 0):
            assert cat_hist(self.config(seed), self.H, sampler=sampler) == want[seed], seed

    def test_equals_replay_from_threads_at_once(self):
        # More threads than cores, switching every microsecond: a generator
        # shared between threads would be re-seeded mid-release.
        sampler = load_domain(self.DOMAIN)
        seeds = list(range(40))
        want = [cat_hist_per_bin(self.config(seed), self.H, sampler) for seed in seeds]
        start = threading.Barrier(4, timeout=30)

        def releases(order):
            start.wait()
            return [(seed, cat_hist(self.config(seed), self.H, sampler=sampler)) for seed in order * 10]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                runs = list(pool.map(releases, (seeds, seeds[::-1], seeds[1::2], seeds[::2]), timeout=60))
        finally:
            sys.setswitchinterval(interval)
        for run in runs:
            for seed, release in run:
                assert release == want[seed], seed

    def test_held_generator_untouched(self):
        sampler = load_domain(self.DOMAIN)
        held, reference = make_rng(5), make_rng(5)
        held.random(2)
        reference.random(2)
        state = held.bit_generator.state
        assert cat_hist(self.config(5), self.H, sampler=sampler) == cat_hist_per_bin(self.config(5), self.H, sampler)
        assert held.bit_generator.state == state
        assert held.random(3).tolist() == reference.random(3).tolist()


def draws_per_rep(rng, epsilon, rho, n, trials, reps, k):
    """_draw_batch's draws with its weight uniforms split per repetition by
    its counts, as draw_batch_per_rep returns them."""
    threshold, counts, weights, blocks = _draw_batch(rng, epsilon, rho, n, trials, reps, k)
    assert len(counts) == reps and sum(counts) == weights.size
    return threshold, np.split(weights, np.cumsum(counts)[:-1]), blocks


def releases_from_draws(config, h, reps, sampler, rng=None, draw=draws_per_rep):
    """The reps releases that _draw_batch's draws make (or those of draw,
    such as draw_batch_per_rep), built with the per-call samplers:
    sample_laplace reads each repetition's active-bin uniforms, and
    sample_shifted_exponential its weight uniforms, from a stand-in
    generator that hands them out in turn. Each repetition's labels then
    come in turn from the stream that follows every uniform. The draws come
    from rng, make_rng(config.seed) by default."""
    rng = make_rng(config.seed) if rng is None else rng
    epsilon = config.privacy.epsilon
    trials = _absent_slots(config.domain, h, sampler)
    labels, counts = h._positive
    threshold, weights_per_rep, blocks = draw(
        rng, epsilon, config.privacy.rho, sampler.size, trials, reps, len(labels)
    )
    rows = np.vstack(list(blocks)).tolist()
    releases = []
    for row, weights in zip(rows, weights_per_rep):
        replay = SimpleNamespace(random=iter(row).__next__)
        noisy = [sample_laplace(replay, count, 1.0 / epsilon) for count in counts.tolist()]
        bins = [NoisyBin(label, c, Origin.ACTIVE) for label, c in zip(labels, noisy) if c >= threshold and c > 0]
        replay = SimpleNamespace(random=iter(weights.tolist()).__next__)
        injected = sampler.sample_distinct(rng, weights.size, exclude=h.active_domain()) if weights.size else ()
        bins += [NoisyBin(label, sample_shifted_exponential(replay, epsilon, threshold), Origin.INJECTED)
                 for label in injected]
        releases.append(NoisyHistogram(bins))
    return releases


class TestBatch:
    """A release is _draw_batch's one repetition; a sweep cell reads its
    draws for all of its repetitions, from one seed and one stream. Each
    repetition must be the per-bin release that the shared generator gives
    in turn, and cat_hist's release the per-bin one."""

    # The census workclass column against a 1 000-label domain holding it.
    CENSUS = Histogram(WORKCLASS_COUNTS.items())
    CENSUS_DOMAIN = ExplicitList(list(WORKCLASS_COUNTS) + [f"pad-{i}" for i in range(991)])

    @pytest.mark.parametrize("reps", [1, 7, 100])
    def test_census_matches_per_rep_loop(self, reps):
        sampler = load_domain(self.CENSUS_DOMAIN)
        injected = 0
        for seed in range(4):
            cfg = config_for(1.0, 0.5, self.CENSUS_DOMAIN, seed=seed)
            releases = releases_from_draws(cfg, self.CENSUS, reps, sampler)
            assert releases == cat_hist_per_rep(cfg, self.CENSUS, sampler, reps), seed
            # The stream opens with the first repetition's injected count, so
            # that is cat_hist's; at reps = 1 all of it is.
            first = cat_hist(cfg, self.CENSUS, sampler=sampler)
            assert len(releases[0].injected_bins()) == len(first.injected_bins())
            if reps == 1:
                assert releases[0] == first
            injected += sum(len(release.injected_bins()) for release in releases)
        if reps > 1:
            assert injected > 0

    @pytest.mark.parametrize("reps", [1, 7, 100])
    def test_word_pairs_match_per_rep_loop(self, reps, wordlist_path):
        domain = WordPairs(wordlist_path)
        sampler = load_domain(domain)
        h = Histogram([("Male Female", 300.0), ("Female Male", 2.0), ("Male Male", 0.0)])
        for seed in range(2):
            cfg = config_for(1.0, 1e-200, domain, seed=seed)
            releases = releases_from_draws(cfg, h, reps, sampler)
            assert releases == cat_hist_per_rep(cfg, h, sampler, reps), seed
            assert min(len(release.injected_bins()) for release in releases) >= 300
            if reps == 1:
                assert releases[0] == cat_hist(cfg, h, sampler=sampler)

    @pytest.mark.parametrize("bins, block_draws", [
        (ARRAY_NOISE_BINS - 1, 3 * (ARRAY_NOISE_BINS - 1)),
        (ARRAY_NOISE_BINS, 3 * ARRAY_NOISE_BINS),
        (1_200, 3_600),
        (1_200, 1_000),
    ])
    def test_wide_column_over_several_blocks_matches_per_rep_loop(
        self, bins, block_draws, monkeypatch, wordlist_path
    ):
        # cat_hist noises fewer than ARRAY_NOISE_BINS active bins bin by bin,
        # more as one array. Blocks of three rows spread ten repetitions over
        # four blocks; a row longer than BLOCK_DRAWS is a block of its own.
        domain = WordList(wordlist_path)
        sampler = load_domain(domain)
        rng = np.random.default_rng(bins)
        words = sampler.decode(rng.choice(sampler.size, size=bins, replace=False))
        h = Histogram(zip(words, rng.integers(1, 40, size=bins).tolist()))
        monkeypatch.setattr("cathist.mechanism.BLOCK_DRAWS", block_draws)
        surviving = injected = 0
        for seed in range(3):
            cfg = config_for(0.5, 0.3, domain, seed=seed)
            assert cat_hist(cfg, h, sampler=sampler) == cat_hist_per_bin(cfg, h, sampler), seed
            releases = releases_from_draws(cfg, h, 10, sampler)
            assert releases == cat_hist_per_rep(cfg, h, sampler, 10), seed
            surviving += sum(len(release.active_bins()) for release in releases)
            injected += sum(len(release.injected_bins()) for release in releases)
        assert 0 < surviving < 30 * bins and injected > 0

    @pytest.mark.parametrize("bins", [ARRAY_NOISE_BINS - 1, ARRAY_NOISE_BINS])
    def test_overflowing_counts_refused_on_both_noise_paths(self, bins):
        # At epsilon = 1e-308 the threshold is finite but a Laplace draw can
        # overflow a count to inf. Either noise path refuses exactly the
        # releases whose replayed noise overflows (the domain has no absent
        # slot, so the stream holds the bins' uniforms only), and the array
        # path overflows under np.errstate, with no RuntimeWarning.
        domain = ExplicitList([f"cat-{i}" for i in range(bins)])
        h = Histogram((f"cat-{i}", 5.0) for i in range(bins))
        scale = 1.0 / 1e-308
        refused = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for seed in range(5):
                u = make_rng(seed).random(bins).tolist()
                config = config_for(1e-308, 0.01, domain, seed=seed)
                if any(v > 0.5 and math.isinf(5.0 + scale * -math.log1p(-2.0 * (v - 0.5))) for v in u):
                    refused += 1
                    with pytest.raises(ValidityError, match="must be finite"):
                        cat_hist(config, h)
                else:
                    cat_hist(config, h)
        assert refused > 0

    def test_overflowing_injected_weight_refused(self):
        # The domain above has no absent slot, so it never injects. Here
        # threshold - log1p(-u) / epsilon overflows to inf for some injected
        # weight at each seed, under np.errstate.
        h = Histogram([("cat-0", 5.0)])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for seed in range(3):
                with pytest.raises(ValidityError, match="must be finite"):
                    cat_hist(config_for(1e-308, 1e-300, SizeOnly(1000), seed=seed), h)

    def test_zero_uniforms_redrawn_in_row_major_order(self):
        # A 0.0 would make an infinite Laplace or weight; it is replaced by
        # the stream's next draws, as sample_laplace and
        # sample_shifted_exponential redraw it.
        u = np.array([[0.5, 0.0, 0.25], [0.0, 0.75, 0.0]])
        a, b, c = make_rng(9).random(3).tolist()
        assert _nonzero(make_rng(9), u).tolist() == [[0.5, a, 0.25], [b, 0.75, c]]

    def test_shared_streams_calibration(self):
        # Criteria 1 and 2 on the injected counts of one 10^4-repetition
        # _draw_batch at n = 1e8, with the n - 3 absent slots as trials: the
        # fraction of repetitions with nothing injected is rho**((n - 3)/n),
        # and the mean injected count is (n - 3) * (1 - rho**(1/n)) within
        # 3 sigma.
        epsilon, rho, n, runs = 1.0, 0.5, 10**8, 10_000
        domain = SizeOnly(size=n)
        h = Histogram([("cat-0", 50.0), ("cat-1", 500.0), ("cat-2", 5000.0)])
        trials = n - len(h.active_domain())
        cfg = config_for(epsilon, rho, domain, seed=20251018)
        _, injected, _, _ = _draw_batch(make_rng(cfg.seed), epsilon, rho, n, trials, runs, len(h))
        zero_fraction = injected.count(0) / runs
        assert zero_fraction == pytest.approx(zero_injection_oracle(rho, n, trials), abs=0.015)
        se = injected_sd_oracle(epsilon, rho, n, trials) / math.sqrt(runs)
        assert abs(sum(injected) / runs - expected_injected_oracle(epsilon, rho, n, trials)) <= 3 * se


class ListStream:
    """A generator stand-in that hands out the doubles of an array in turn,
    from its place at."""

    def __init__(self, doubles):
        self.doubles, self.at = doubles, 0

    def random(self, size=None):
        count = 1 if size is None else int(np.prod(size))
        if self.at + count > self.doubles.size:
            raise IndexError("the stream ran out")
        u = self.doubles[self.at:self.at + count].copy()
        self.at += count
        return u.item() if size is None else u.reshape(size)


class TestDrawsMatchPerRepLoop:
    """_draw_batch draws the counts of every repetition from one array call,
    read by one searchsorted in the plan's table, and then all their weights
    from one more. Its weights, its active-bin uniforms and the draws after
    it must be those of the per-repetition loop."""

    @staticmethod
    def assert_same(stream, epsilon, rho, n, trials, reps, k=3):
        rng, reference = stream(), stream()
        threshold, weights, blocks = draws_per_rep(rng, epsilon, rho, n, trials, reps, k)
        u = np.concatenate(list(blocks))
        want_threshold, want_weights, want_u = draw_batch_per_rep(reference, epsilon, rho, n, trials, reps, k)
        assert threshold == want_threshold
        assert [w.tolist() for w in weights] == [w.tolist() for w in want_weights]
        assert u.tolist() == want_u.tolist()
        assert rng.random(5).tolist() == reference.random(5).tolist()
        return weights

    @pytest.mark.parametrize("reps", [1, 2, 37, 100])
    @pytest.mark.parametrize("epsilon, rho, n", [
        (1.0, 0.5, 1_000), (0.1, 0.1, 171_000), (0.01, 0.9, 10**12), (1.0, 1e-300, 10**8), (5.0, 1e-5, 2**53),
    ])
    def test_matches_per_rep_loop(self, reps, epsilon, rho, n):
        for seed in range(3):
            self.assert_same(lambda: make_rng(seed), epsilon, rho, n, n - 9, reps)

    @pytest.mark.parametrize("mean", [990.0, 999.9])
    def test_mean_near_the_envelope(self, mean):
        # trials may exceed n here, which a release never asks for, to bring
        # the mean count up to the envelope.
        epsilon, rho, n = 1.0, 1e-300, 10**6
        trials = int(mean / inclusion_probability(epsilon, noisy_threshold(epsilon, rho, n)))
        weights = self.assert_same(lambda: make_rng(2), epsilon, rho, n, trials, 37)
        assert sum(w.size for w in weights) > 30 * mean

    def test_mean_past_the_envelope_is_refused(self):
        epsilon, rho, n = 1.0, 1e-300, 10**6
        trials = int(1.001 * BINOMIAL_MEAN_ENVELOPE / inclusion_probability(epsilon, noisy_threshold(epsilon, rho, n)))
        for draw in (_draw_batch, draw_batch_per_rep):
            with pytest.raises(ValidityError, match="envelope"):
                draw(make_rng(0), epsilon, rho, n, trials, 37, 3)

    @pytest.mark.parametrize("reps", [1, 37])
    def test_no_absent_slot_draws_no_count(self, reps):
        weights = self.assert_same(lambda: make_rng(1), 1.0, 0.5, 1_000, 0, reps)
        assert not any(w.size for w in weights)

    def test_underflowing_inclusion_probability_draws_no_count(self, monkeypatch):
        # p = (1/2)exp(-epsilon * threshold) is 0.0 past exp's range: every
        # count is 0, with no uniform drawn for it.
        def underflowing(epsilon, threshold):
            return 0.5 * math.exp(-800.0)

        monkeypatch.setattr(mechanism, "inclusion_probability", underflowing)
        monkeypatch.setattr(oracles, "inclusion_probability", underflowing)
        # A plan of its own, so that no cached plan holds the true p, and
        # none with the patched p outlives the test.
        monkeypatch.setattr(mechanism, "_plan", functools.lru_cache(mechanism._plan.__wrapped__))
        weights = self.assert_same(lambda: make_rng(1), 1.0, 0.5, 1_000, 991, 37)
        assert not any(w.size for w in weights)

    @pytest.mark.parametrize("rho, value, where", [
        (0.01, 0.0, "first weights"), (0.01, 0.0, "later weights"), (0.01, 0.0, "later count"),
        (1e-5, 1 - 2**-53, "first count"), (1e-5, 1 - 2**-53, "later count"),
    ])
    def test_planted_uniform_drawn_as_per_rep_loop(self, rho, value, where):
        # A 0.0 among the weights is redrawn; one read as a count is kept,
        # as sample_binomial keeps it. At rho = 1e-5 the binomial table's
        # last entry is below the largest uniform, which draws the walk's
        # stopping count. Repetition r's count is drawn at r, and the weights
        # from reps on.
        epsilon, n, reps = 1.0, 1_000, 37
        doubles = make_rng(4).random(5_000)
        _, weights, _ = draw_batch_per_rep(ListStream(doubles), epsilon, rho, n, n - 9, reps, 3)
        weights_at = reps + np.cumsum([0] + [w.size for w in weights])  # where each repetition's weights start
        later = next(rep for rep in range(1, reps) if weights[rep].size)
        assert weights[0].size
        at = {"first count": 0, "first weights": reps, "later weights": weights_at[later], "later count": later}[where]
        doubles[at] = value
        self.assert_same(lambda: ListStream(doubles), epsilon, rho, n, n - 9, reps)

    @pytest.mark.parametrize("reps", [1, 2, 37])
    @pytest.mark.parametrize("entry", [0, 1, -1, "walk end"])
    def test_a_count_uniform_equal_to_a_table_entry(self, reps, entry):
        # A uniform equal to cdf[i] counts the i + 1 entries at or below it.
        # The walk's sum where it stops is no entry: a uniform equal to it,
        # or to the last entry, draws the stopping count, len(cdf).
        epsilon, rho, n = 1.0, 0.01, 1_000
        cdf = mechanism._plan(epsilon, rho, n, n - 9).cdf
        p = inclusion_probability(epsilon, noisy_threshold(epsilon, rho, n))
        *sums, end = binomial_walk(n - 9, p)
        assert tuple(sums) == cdf
        doubles = make_rng(6).random(5_000)
        doubles[reps - 1] = end if entry == "walk end" else cdf[entry]  # the last repetition's count
        weights = self.assert_same(lambda: ListStream(doubles), epsilon, rho, n, n - 9, reps)
        assert weights[-1].size == {0: 1, 1: 2, -1: len(cdf), "walk end": len(cdf)}[entry]

    def test_counts_near_the_table_end(self):
        # Uniforms near 1 give counts far above the mean.
        doubles = make_rng(5).random(50_000) ** 0.001
        weights = self.assert_same(lambda: ListStream(doubles), 1.0, 0.01, 1_000, 991, 100)
        assert sum(w.size for w in weights) > 100 * 4.6 + 4 * math.sqrt(100 * 4.6)


class PlantedStream(ListStream):
    """A ListStream that also draws integers, from a side generator of its
    own. One integers call of size k there gives the integers of k scalar
    calls, so the package's labels and the rejection reference's agree."""

    def __init__(self, doubles):
        super().__init__(doubles)
        self.side = np.random.default_rng(0)

    def integers(self, high, size=None):
        return self.side.integers(high, size=size)


class TestRelease:
    """cat_hist draws its release from one cached plan per (epsilon, rho, n,
    trials): its count, then its weights, then its k active uniforms as one
    random(k) call, kept as lists below ARRAY_NOISE_BINS and as arrays from
    there. Each release must be the per-bin reference's, and leave the
    thread's generator where the reference leaves its own."""

    DOMAIN = SizeOnly(size=10**6)

    @staticmethod
    def column(k):
        return Histogram((f"cat-{i}", float(5 + 7 * i % 40)) for i in range(k))

    @staticmethod
    def release_and_next(config, h, sampler):
        release = cat_hist(config, h, sampler=sampler)
        return release, mechanism._THREAD.rng.random(4).tolist()

    @staticmethod
    def reference_and_next(config, h, sampler, monkeypatch):
        made = []

        def recording_make_rng(seed, *key):
            made.append(make_rng(seed, *key))
            return made[-1]

        with monkeypatch.context() as patch:
            patch.setattr(oracles, "make_rng", recording_make_rng)
            release = cat_hist_per_bin(config, h, sampler)
        return release, made[0].random(4).tolist()

    # Injected bins: none at rho = 0.999 (at seeds 0 to 2, as the test
    # checks), a few at e^-5, and more than ARRAY_CHECK_COUNTS at e^-150, so
    # the release's counts are checked both in Python and as one array.
    @pytest.mark.parametrize("k", [0, 1, ARRAY_NOISE_BINS - 1, ARRAY_NOISE_BINS, 200])
    @pytest.mark.parametrize("rho, injected", [
        (0.999, (0, 0)), (math.exp(-5.0), (1, ARRAY_CHECK_COUNTS - 1)), (math.exp(-150.0), (ARRAY_CHECK_COUNTS, 10**3)),
    ])
    def test_equals_per_bin_release_and_its_next_draws(self, k, rho, injected, monkeypatch):
        sampler = load_domain(self.DOMAIN)
        h = self.column(k)
        for seed in range(3):
            cfg = config_for(0.5, rho, self.DOMAIN, seed=seed)
            got, got_next = self.release_and_next(cfg, h, sampler)
            want, want_next = self.reference_and_next(cfg, h, sampler, monkeypatch)
            assert got == want, seed
            assert got_next == want_next, seed
            assert injected[0] <= len(got.injected_bins()) <= injected[1], seed

    @pytest.mark.parametrize("k", [1, ARRAY_NOISE_BINS - 1])
    def test_no_absent_slot_draws_no_count(self, k, monkeypatch):
        # Every domain slot is active: the plan holds no table, and the
        # release draws its k active uniforms only.
        domain = ExplicitList([f"cat-{i}" for i in range(k)])
        sampler = load_domain(domain)
        h = self.column(k)
        cfg = config_for(0.5, 0.6, domain, seed=3)
        want, want_next = self.reference_and_next(cfg, h, sampler, monkeypatch)
        assert self.release_and_next(cfg, h, sampler) == (want, want_next)
        stream = PlantedStream(make_rng(3).random(100))
        monkeypatch.setattr(mechanism, "_thread_rng", lambda seed: stream)
        assert cat_hist(cfg, h, sampler=sampler) == want
        assert stream.at == k

    def test_underflowing_inclusion_probability_draws_no_count(self, monkeypatch):
        # With p = 0 every count is 0, with no uniform drawn for it: the
        # release reads its k active uniforms only, and injects nothing at
        # a rho that would inject about 50 bins.
        monkeypatch.setattr(mechanism, "inclusion_probability", lambda epsilon, threshold: 0.5 * math.exp(-800.0))
        monkeypatch.setattr(mechanism, "_plan", functools.lru_cache(mechanism._plan.__wrapped__))
        stream = PlantedStream(make_rng(3).random(100))
        monkeypatch.setattr(mechanism, "_thread_rng", lambda seed: stream)
        h = self.column(5)
        release = cat_hist(config_for(0.5, math.exp(-50.0), self.DOMAIN, seed=3), h)
        assert stream.at == 5 and not release.injected_bins()

    @pytest.mark.parametrize("config, match", [
        (config_for(1.0, 0.4, ExplicitList(("cat-0",)), seed=0), r"tau undefined: rho\^\(1/n\) < 1/2"),
        # A release's mean count is at most -ln(rho) < 745; a lowered
        # envelope refuses this one's mean of about 5.
        (config_for(1.0, math.exp(-5.0), SizeOnly(10**6), seed=0),
         r"expected bin count out of envelope: n\*p = 4\.99\d* > 1e\+00"),
    ])
    def test_refusal_makes_no_draw_and_is_not_kept(self, config, match, monkeypatch):
        # Fresh caches, so that no cached table hides the lowered envelope
        # and none outlives the test.
        monkeypatch.setattr("cathist.numerics.BINOMIAL_MEAN_ENVELOPE", 1.0)
        monkeypatch.setattr(mechanism, "_binomial_cdf", functools.lru_cache(mechanism._binomial_cdf.__wrapped__))
        monkeypatch.setattr(mechanism, "_plan", functools.lru_cache(mechanism._plan.__wrapped__))
        stream = PlantedStream(make_rng(3).random(100))
        monkeypatch.setattr(mechanism, "_thread_rng", lambda seed: stream)
        for _ in range(2):
            with pytest.raises(ValidityError, match=match):
                cat_hist(config, self.column(1))
        assert stream.at == 0 and mechanism._plan.cache_info().currsize == 0

    @pytest.mark.parametrize("k, where", [
        (ARRAY_NOISE_BINS - 1, "active"), (ARRAY_NOISE_BINS, "active"), (200, "active"),
        (ARRAY_NOISE_BINS - 1, "weights"), (ARRAY_NOISE_BINS, "weights"),
    ])
    def test_planted_zero_redrawn_as_the_per_rep_loop_redraws_it(self, k, where, monkeypatch):
        # A 0.0 is replaced by the stream's next draw, in order, on the list
        # path and the array path alike: the release is the one that
        # draw_batch_per_rep's draws make, and the stream is left where that
        # leaves it. Of the stream, the count comes first, then the m
        # weights, then the k active uniforms.
        sampler = load_domain(self.DOMAIN)
        h = self.column(k)
        cfg = config_for(0.5, math.exp(-150.0), self.DOMAIN, seed=6)
        doubles = make_rng(6).random(5_000)
        _, weights, _ = draw_batch_per_rep(ListStream(doubles), 0.5, cfg.privacy.rho, sampler.size, sampler.size - k, 1, k)
        m = weights[0].size
        assert m > 0
        for at in {"active": (1 + m, 1 + m + k // 2, m + k), "weights": (1, m // 2, m)}[where]:
            planted = doubles.copy()
            planted[at] = 0.0
            reference = PlantedStream(planted)
            want = releases_from_draws(cfg, h, 1, sampler, rng=reference, draw=draw_batch_per_rep)[0]
            stream = PlantedStream(planted)
            monkeypatch.setattr(mechanism, "_thread_rng", lambda seed: stream)
            assert cat_hist(cfg, h, sampler=sampler) == want, at
            assert stream.at == reference.at and stream.random(3).tolist() == reference.random(3).tolist()

    @pytest.mark.parametrize("k", [3, ARRAY_NOISE_BINS])
    def test_overflowing_count_named_first(self, k):
        # At epsilon = 1e-308 a Laplace draw above 1/2 by more than about
        # 0.32 overflows a count to inf. The refusal names the first such
        # bin, on either noise path, whether the release injects or not.
        for domain, rho in ((ExplicitList([f"cat-{i}" for i in range(k)]), 0.6**k), (SizeOnly(1000), 1e-300)):
            h = self.column(k)
            sampler = load_domain(domain)
            refused = 0
            for seed in range(12):
                cfg = config_for(1e-308, rho, domain, seed=seed)
                _, weights, u = draw_batch_per_rep(make_rng(seed), 1e-308, rho, sampler.size, sampler.size - k, 1, k)
                noisy = [oracles.laplace_count(c, v, 1e308) for c, v in zip(h.counts.tolist(), u[0].tolist())]
                first = next((i for i, c in enumerate(noisy) if c == math.inf), None)
                if first is None:
                    continue
                refused += 1
                with pytest.raises(ValidityError, match=rf"^noisy count for 'cat-{first}' must be finite and > 0, got inf$"):
                    cat_hist(cfg, h, sampler=sampler)
            assert refused > 0

    def test_overflowing_weight_refused(self):
        # threshold - log1p(-u) / epsilon overflows for a weight above
        # about 0.3 at epsilon = 1e-308; no active count does here, as the
        # one bin's count is far below the threshold.
        h = Histogram([("cat-0", 5.0)])
        with pytest.raises(ValidityError, match=r"^noisy count for 'cat-\d+' must be finite and > 0, got inf$"):
            cat_hist(config_for(1e-308, 1e-300, SizeOnly(1000), seed=0), h)


class TestNaiveOracle:
    def test_rejects_large_domains(self):
        cfg = config_for(1.0, 0.9, SizeOnly(size=ORACLE_MAX_DOMAIN + 1), seed=0)
        with pytest.raises(ValidityError, match="brute-force limit"):
            naive_full_domain_oracle(cfg, Histogram([]))

    def test_deterministic(self):
        cfg = config_for(1.0, 0.5, SizeOnly(size=50), seed=3)
        h = Histogram([("cat-1", 9.0)])
        assert naive_full_domain_oracle(cfg, h) == naive_full_domain_oracle(cfg, h)

    def test_empty_histogram_mean_survivors(self):
        # With no active bins every domain slot is a zero-count bin; the
        # number clearing the threshold is Binomial(10, p).
        domain = SizeOnly(size=10)
        t = noisy_threshold(1.0, 0.5, 10)
        p = 0.5 * math.exp(-t)
        runs = 20_000
        total = 0
        for seed in range(runs):
            release = naive_full_domain_oracle(config_for(1.0, 0.5, domain, seed=seed), Histogram([]))
            assert all(b.origin is Origin.INJECTED for b in release.bins)
            total += len(release)
        sigma = math.sqrt(10 * p * (1 - p) / runs)
        assert total / runs == pytest.approx(10 * p, abs=4 * sigma)

    def test_zero_count_category_inclusion_frequency(self):
        domain = SizeOnly(size=100)
        t = noisy_threshold(1.0, 0.5, 100)
        p = 0.5 * math.exp(-t)
        h = Histogram([("cat-7", 50.0)])
        runs = 20_000
        hits = 0
        for seed in range(runs):
            release = naive_full_domain_oracle(config_for(1.0, 0.5, domain, seed=seed), h)
            hits += "cat-42" in release.labels()
        sigma = math.sqrt(p * (1 - p) / runs)
        assert hits / runs == pytest.approx(p, abs=4 * sigma)

    def test_output_contract_matches_cat_hist(self):
        cfg = config_for(1.0, 0.5, SizeOnly(size=30), seed=8)
        h = Histogram([("cat-2", 40.0), ("cat-5", 35.0)])
        release = naive_full_domain_oracle(cfg, h)
        actives = [b.label for b in release.active_bins()]
        assert actives == ["cat-2", "cat-5"]
        for b in release.bins:
            assert b.count >= noisy_threshold(1.0, 0.5, 30)


class TestRecordIndices:
    """synth --records writes the bins record_chunks draws; together they
    must be the indices Generator.choice draws from the release's shares."""

    @pytest.mark.parametrize(
        "counts, m",
        [
            ([1.0] * 1_000, 20_000),
            # 10^4 tiny bins share a few guide buckets, before or after the
            # heavy one: many uniforms step past the bucket start.
            ([1e6] + [1.0] * 10_000, 20_000),
            ([1.0] * 10_000 + [1e6], 20_000),
            ([3.7], 1_000),
            ([2.0, 5.0], 0),
        ],
        ids=["flat", "heavy-first", "heavy-last", "one-bin", "no-records"],
    )
    def test_equal_to_generator_choice(self, counts, m):
        nh = NoisyHistogram(NoisyBin(f"b{i}", count, Origin.ACTIVE) for i, count in enumerate(counts))
        shares = np.array(counts) / sum(counts)
        for seed in range(4):
            rng = make_rng(seed, 2)
            got = np.concatenate([np.empty(0, np.intp), *record_chunks(rng, nh, m)])
            want = make_rng(seed, 2).choice(len(counts), size=m, p=shares)
            assert got.dtype == want.dtype and np.array_equal(got, want), seed
            assert synthesize_records(make_rng(seed, 2), nh, m) == [f"b{i}" for i in want.tolist()]


class TestRecordChunks:
    """Records are drawn in chunks of RECORDS_PER_CHUNK; the chunks together
    must be the one Generator.choice draw, whatever m is against the chunk."""

    CHUNK = 64
    # 2 000 tiny bins under one heavy bin share guide buckets, so some
    # uniforms in each chunk take the searchsorted path.
    COUNTS = [1.0] * 2_000 + [6e4]

    @pytest.mark.parametrize("m", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7])
    def test_equal_to_generator_choice_across_chunk_bounds(self, monkeypatch, m):
        monkeypatch.setattr(mechanism, "RECORDS_PER_CHUNK", self.CHUNK)
        nh = NoisyHistogram(NoisyBin(f"b{i}", count, Origin.ACTIVE) for i, count in enumerate(self.COUNTS))
        shares = np.array(self.COUNTS) / sum(self.COUNTS)
        for seed in range(3):
            want_rng = make_rng(seed, 2)
            want = want_rng.choice(len(self.COUNTS), size=m, p=shares)
            rng = make_rng(seed, 2)
            chunks = list(record_chunks(rng, nh, m))
            sizes = [chunk.size for chunk in chunks]
            assert sizes == [self.CHUNK] * (m // self.CHUNK) + ([m % self.CHUNK] if m % self.CHUNK else [])
            assert rng.bit_generator.state == want_rng.bit_generator.state
            got = np.concatenate([np.empty(0, np.intp), *chunks])
            assert got.dtype == want.dtype and np.array_equal(got, want), seed
            assert synthesize_records(make_rng(seed, 2), nh, m) == [f"b{i}" for i in want.tolist()]

    @pytest.mark.parametrize(
        "bins, m, error, match",
        [
            ([NoisyBin("a", 1.0, Origin.ACTIVE)], -1, ValueError, "m must be >= 0"),
            ([], 5, CatHistError, "nothing to sample"),
        ],
        ids=["negative-m", "empty-release"],
    )
    def test_errors_raise_when_called_before_any_draw(self, bins, m, error, match):
        rng = make_rng(5, 2)
        state = rng.bit_generator.state
        with pytest.raises(error, match=match):
            record_chunks(rng, NoisyHistogram(bins), m)  # not iterated
        with pytest.raises(error, match=match):
            synthesize_records(rng, NoisyHistogram(bins), m)
        assert rng.bit_generator.state == state


class TestSynthesizeRecords:
    def test_single_support(self):
        nh = NoisyHistogram([NoisyBin("a", 5.0, Origin.ACTIVE)])
        assert synthesize_records(make_rng(0), nh, 3) == ["a", "a", "a"]

    def test_symmetric_support(self):
        nh = NoisyHistogram(
            [NoisyBin("a", 1.0, Origin.ACTIVE), NoisyBin("b", 1.0, Origin.INJECTED)]
        )
        records = synthesize_records(make_rng(1), nh, 100_000)
        freq = records.count("a") / len(records)
        assert freq == pytest.approx(0.5, abs=0.01)

    def test_three_to_one(self):
        nh = NoisyHistogram(
            [NoisyBin("a", 3.0, Origin.ACTIVE), NoisyBin("b", 1.0, Origin.ACTIVE)]
        )
        records = synthesize_records(make_rng(2), nh, 100_000)
        assert records.count("a") / len(records) == pytest.approx(0.75, abs=0.01)

    def test_empty_is_an_error(self):
        with pytest.raises(CatHistError, match="nothing to sample"):
            synthesize_records(make_rng(3), NoisyHistogram([]), 5)

    def test_overflowing_total_is_a_validity_error(self):
        nh = NoisyHistogram([NoisyBin("a", 1.7e308, Origin.ACTIVE), NoisyBin("b", 1.7e308, Origin.INJECTED)])
        with pytest.raises(ValidityError, match="total is not finite"):
            synthesize_records(make_rng(4), nh, 5)
