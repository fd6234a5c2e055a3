import math

import pytest

from cathist.core import (
    ExplicitList,
    Histogram,
    NoisyBin,
    NoisyHistogram,
    Origin,
    PrivacyParams,
    SizeOnly,
    ValidityError,
    normalize,
)


class TestHistogram:
    def test_preserves_first_appearance_order(self):
        h = Histogram([("b", 2.0), ("a", 1.0), ("c", 0.0)])
        assert h.labels() == ("b", "a", "c")

    def test_from_counts(self):
        h = Histogram.from_counts({"x": 3, "y": 1})
        assert h.count("x") == 3.0
        assert h.count("y") == 1.0
        assert h.total == 4.0

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValidityError):
            Histogram([("a", 1.0), ("a", 2.0)])

    def test_rejects_negative_count(self):
        with pytest.raises(ValidityError):
            Histogram([("a", -0.5)])

    def test_rejects_non_finite_count(self):
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValidityError):
                Histogram([("a", bad)])

    def test_rejects_empty_label(self):
        with pytest.raises(ValidityError):
            Histogram([("", 1.0)])

    def test_zero_count_bins_are_kept_but_inactive(self):
        h = Histogram([("a", 0.0), ("b", 5.0)])
        assert len(h) == 2
        assert h.active_domain() == {"b"}

    def test_active_domain_is_one_shared_frozenset(self):
        h = Histogram([("a", 0.0), ("b", 5.0), ("c", 1.0)])
        assert isinstance(h.active_domain(), frozenset)
        assert h.active_domain() is h.active_domain()
        assert h == Histogram([("a", 0.0), ("b", 5.0), ("c", 1.0)])

    def test_missing_label_counts_zero(self):
        h = Histogram([("a", 1.0)])
        assert h.count("nope") == 0.0


class TestNormalize:
    def test_sums_to_one(self):
        h = Histogram([("a", 3.0), ("b", 1.0), ("c", 4.0)])
        n = normalize(h)
        assert abs(sum(n.values()) - 1.0) <= 1e-12
        assert n["a"] == pytest.approx(3.0 / 8.0, abs=1e-15)

    def test_zero_total_is_an_error(self):
        h = Histogram([("a", 0.0), ("b", 0.0)])
        with pytest.raises(ValidityError, match="empty distribution"):
            normalize(h)

    def test_empty_histogram_is_an_error(self):
        with pytest.raises(ValidityError, match="empty distribution"):
            normalize(Histogram([]))

    def test_overflowing_total_is_an_error(self):
        # Each count is finite, their sum is not: every share would be 0.
        with pytest.raises(ValidityError, match="total is not finite: inf"):
            normalize(Histogram([("a", 1.7e308), ("b", 1.7e308)]))

    def test_noisy_histogram_normalizes_too(self):
        nh = NoisyHistogram(
            [
                NoisyBin("a", 2.0, Origin.ACTIVE),
                NoisyBin("b", 2.0, Origin.INJECTED),
            ]
        )
        n = normalize(nh)
        assert n["a"] == pytest.approx(0.5)


class TestNoisyHistogram:
    def test_rejects_nonpositive_count(self):
        with pytest.raises(ValidityError):
            NoisyHistogram([NoisyBin("a", 0.0, Origin.ACTIVE)])
        with pytest.raises(ValidityError):
            NoisyHistogram([NoisyBin("a", -1.0, Origin.INJECTED)])

    def test_rejects_duplicates(self):
        bins = [
            NoisyBin("a", 1.0, Origin.ACTIVE),
            NoisyBin("a", 2.0, Origin.INJECTED),
        ]
        with pytest.raises(ValidityError):
            NoisyHistogram(bins)

    def test_origin_partition(self):
        nh = NoisyHistogram(
            [
                NoisyBin("a", 1.5, Origin.ACTIVE),
                NoisyBin("b", 0.5, Origin.INJECTED),
                NoisyBin("c", 2.5, Origin.ACTIVE),
            ]
        )
        assert [b.label for b in nh.active_bins()] == ["a", "c"]
        assert [b.label for b in nh.injected_bins()] == ["b"]

    def test_counts_coerced_to_float(self):
        nh = NoisyHistogram([NoisyBin("a", 1, Origin.ACTIVE)])
        assert isinstance(nh.bins[0].count, float)


class TestPrivacyParams:
    def test_valid(self):
        p = PrivacyParams(epsilon=0.5, rho=0.9)
        assert p.epsilon == 0.5

    @pytest.mark.parametrize("eps", [0.0, -1.0, math.nan, math.inf])
    def test_bad_epsilon(self, eps):
        with pytest.raises(ValidityError):
            PrivacyParams(epsilon=eps, rho=0.5)

    @pytest.mark.parametrize("rho", [0.0, 1.0, -0.2, 1.5, math.nan])
    def test_bad_rho(self, rho):
        with pytest.raises(ValidityError):
            PrivacyParams(epsilon=1.0, rho=rho)


class TestDomainSpecs:
    def test_explicit_list_rejects_duplicates(self):
        with pytest.raises(ValidityError):
            ExplicitList(labels=("a", "a"))

    def test_explicit_list_rejects_empty(self):
        with pytest.raises(ValidityError):
            ExplicitList(labels=())

    def test_size_only_requires_positive_size(self):
        with pytest.raises(ValidityError):
            SizeOnly(size=0)
        with pytest.raises(ValidityError):
            SizeOnly(size=-3)

    def test_size_only_prefix_must_be_nonempty(self):
        with pytest.raises(ValidityError):
            SizeOnly(size=10, prefix="")
