import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cathist
from cathist.core import (
    ARRAY_CHECK_COUNTS,
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
        h = Histogram({"x": 3, "y": 1}.items())
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

    def test_columns_and_views_round_trip_with_zero_bins(self):
        pairs = (("a", 0.0), ("b", 2.5), ("c", 0.0), ("d", 1.0))
        h = Histogram(pairs)
        assert h.labels() == ("a", "b", "c", "d")
        assert h.counts.tolist() == [0.0, 2.5, 0.0, 1.0] and h.counts.dtype == np.float64
        assert not h.counts.flags.writeable
        assert h.bins == pairs and all(type(count) is float for _, count in h.bins)
        assert Histogram(h.bins) == h and Histogram(dict(pairs).items()) == h
        assert h != Histogram(pairs[:3]) and h != Histogram(pairs[:3] + (("d", 1.5),))
        assert [h.count(label, default=9.0) for label, _ in pairs] == [0.0, 2.5, 0.0, 1.0]
        assert h.count("e", default=9.0) == 9.0
        assert h.active_domain() == {"b", "d"} and h.total == 3.5

    @pytest.mark.parametrize(
        "bad, message",
        [
            (("", 1.0), "category label must be non-empty"),
            ((7, 1.0), "category label must be str, got int"),
            ((["x"], 1.0), "category label must be str, got list"),
            (("x", -0.5), "count for 'x' must be finite and >= 0, got -0.5"),
            (("x", math.nan), "count for 'x' must be finite and >= 0, got nan"),
            (("x", math.inf), "count for 'x' must be finite and >= 0, got inf"),
            (("b7", 1.0), "duplicate category 'b7'"),
        ],
        ids=["empty", "int-label", "unhashable-label", "negative", "nan", "inf", "duplicate"],
    )
    def test_first_bad_bin_of_many_is_named(self, bad, message):
        # The whole column is checked at once; the first bad bin among many
        # valid ones is still named as a check of that bin alone names it,
        # also when a later bin is bad too.
        good = [(f"b{i}", float(i)) for i in range(1_000)]
        later = ("b3", -1.0)
        for bins in (good + [bad], good[:10] + [bad] + good[10:] + [later]):
            with pytest.raises(ValidityError) as caught:
                Histogram(bins)
            assert str(caught.value) == message


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

    @pytest.mark.parametrize(
        "bad, message",
        [
            (NoisyBin("", 1.0, Origin.ACTIVE), "category label must be non-empty"),
            (NoisyBin(7, 1.0, Origin.INJECTED), "category label must be str, got int"),
            (NoisyBin("x", 0.0, Origin.ACTIVE), "noisy count for 'x' must be finite and > 0, got 0.0"),
            (NoisyBin("x", math.nan, Origin.ACTIVE), "noisy count for 'x' must be finite and > 0, got nan"),
            (NoisyBin("x", math.inf, Origin.INJECTED), "noisy count for 'x' must be finite and > 0, got inf"),
            (NoisyBin("x", 1.0, "active"), "origin for 'x' must be an Origin"),
            (NoisyBin("b7", 1.0, Origin.INJECTED), "duplicate category 'b7'"),
        ],
        ids=["empty", "int-label", "zero", "nan", "inf", "origin", "duplicate"],
    )
    def test_first_bad_bin_of_many_is_named(self, bad, message):
        good = [NoisyBin(f"b{i}", i + 1.0, Origin.ACTIVE) for i in range(1_000)]
        later = NoisyBin("b3", -1.0, Origin.ACTIVE)
        for bins in (good + [bad], good[:10] + [bad] + good[10:] + [later]):
            with pytest.raises(ValidityError) as caught:
                NoisyHistogram(bins)
            assert str(caught.value) == message

    def test_columns_and_views(self):
        bins = (
            NoisyBin("a", 1.5, Origin.ACTIVE),
            NoisyBin("b", 0.5, Origin.INJECTED),
            NoisyBin("c", 2.5, Origin.ACTIVE),
        )
        nh = NoisyHistogram(bins)
        assert nh.labels() == ("a", "b", "c") and nh.counts.tolist() == [1.5, 0.5, 2.5]
        assert nh.injected == (False, True, False) and not nh.counts.flags.writeable
        assert nh.bins == bins and NoisyHistogram(nh.bins) == nh
        assert nh != NoisyHistogram([bins[0], NoisyBin("b", 0.5, Origin.ACTIVE), bins[2]])
        assert list(nh.items()) == [("a", 1.5), ("b", 0.5), ("c", 2.5)] and nh.total == 4.5

    def test_empty_release_is_built_like_any_other(self):
        empty = NoisyHistogram._release((), np.empty(0), active=0)
        assert empty == NoisyHistogram() and empty.counts.dtype == np.float64

    @pytest.mark.parametrize("size", [3, ARRAY_CHECK_COUNTS - 1, ARRAY_CHECK_COUNTS, 500])
    @pytest.mark.parametrize("bad", [0.0, -1.0, -math.inf, math.inf, math.nan])
    def test_release_names_its_first_bad_count(self, size, bad):
        # Checked in Python below ARRAY_CHECK_COUNTS and as one array from
        # there; either way the refusal names the first bad bin.
        labels = tuple(f"b{i}" for i in range(size))
        counts = np.arange(1.0, size + 1)
        assert NoisyHistogram._release(labels, counts.copy(), active=1).counts.tolist() == counts.tolist()
        counts[size // 2] = counts[-1] = bad
        with pytest.raises(ValidityError, match=f"^noisy count for 'b{size // 2}' must be finite and > 0, got {bad}$"):
            NoisyHistogram._release(labels, counts, active=1)


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

    def test_size_only_is_at_most_two_to_the_63(self):
        # Generator.integers draws an index below a bound of at most 2**63.
        assert SizeOnly(size=2**63).size == 2**63
        with pytest.raises(ValidityError, match=r"at most 2\*\*63 = 9223372036854775808, got 9223372036854775809"):
            SizeOnly(size=2**63 + 1)
        with pytest.raises(ValidityError, match="at most 2"):
            SizeOnly(size=10**20)

    def test_size_only_prefix_must_be_nonempty(self):
        with pytest.raises(ValidityError):
            SizeOnly(size=10, prefix="")


class TestPackageRoot:
    def test_import_loads_neither_sweep_nor_cli(self):
        code = "import sys, cathist; print(*(m for m in sys.modules if m.startswith('cathist')))"
        src = str(Path(cathist.__file__).parents[1])
        done = subprocess.run([sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r}); {code}"],
                              capture_output=True, text=True, check=True, timeout=60)
        loaded = done.stdout.split()
        assert "cathist.core" in loaded and "cathist.sweep" not in loaded and "cathist.cli" not in loaded, loaded

    def test_exports_resolve(self):
        # bench/setup_probe.py reads these four at the package root.
        assert {"WordList", "WordPairs", "SizeOnly", "load_domain"} <= set(cathist.__all__)
        assert all(hasattr(cathist, name) for name in cathist.__all__)

    def test_readme_library_example_runs(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        library = readme.split("\n## Library\n", 1)[1]
        example = re.search(r"```python\n(.*?)```", library, re.S).group(1)
        scope: dict = {}
        exec(compile(example, "README.md", "exec"), scope)
        release = scope["release"]
        assert len(release) >= 2 and len(scope["records"]) == 1000
        assert set(scope["records"]) <= set(release.labels())
