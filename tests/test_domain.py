import numpy as np
import pytest

import cathist.domain as domain_mod
from cathist.core import ExplicitList, SizeOnly, ValidityError, WordList, WordPairs
from cathist.domain import load_domain, load_words
from cathist.numerics import make_rng

from conftest import WORDLIST_SIZE
from oracles import load_words_per_line, sample_distinct_by_rejection, size_only_index_by_parsing


class TestExplicitSampler:
    def setup_method(self):
        self.sampler = load_domain(ExplicitList(labels=tuple("abcdefghij")))

    def test_size(self):
        assert self.sampler.size == 10

    def test_encode_decode_bijection(self):
        for i in range(10):
            assert self.sampler.encode(self.sampler.decode(i)) == i

    def test_contains(self):
        assert self.sampler.contains("a")
        assert not self.sampler.contains("z")

    def test_unknown_label_errors(self):
        with pytest.raises(ValidityError):
            self.sampler.encode("z")

    def test_sampling_is_roughly_uniform(self):
        rng = make_rng(201)
        counts = {label: 0 for label in "abcdefghij"}
        for _ in range(100_000):
            counts[self.sampler.sample_distinct(rng, 1)[0]] += 1
        for label, c in counts.items():
            assert c / 100_000 == pytest.approx(0.1, abs=0.01), label

    def test_exclusion_is_respected(self):
        rng = make_rng(202)
        exclude = {"a", "b", "c"}
        for _ in range(2_000):
            drawn = self.sampler.sample_distinct(rng, 3, exclude)
            assert len(set(drawn)) == 3
            assert not (set(drawn) & exclude)

    def test_draw_everything_not_excluded(self):
        rng = make_rng(203)
        drawn = self.sampler.sample_distinct(rng, 7, {"a", "b", "c"})
        assert sorted(drawn) == list("defghij")

    def test_requesting_too_many_is_exhaustion(self):
        rng = make_rng(204)
        with pytest.raises(ValidityError, match="domain exhausted"):
            self.sampler.sample_distinct(rng, 8, {"a", "b", "c"})

    def test_exclusion_of_foreign_labels_does_not_count(self):
        rng = make_rng(205)
        drawn = self.sampler.sample_distinct(rng, 10, {"not-here", "nor-this"})
        assert sorted(drawn) == list("abcdefghij")

    def test_retry_cap_trips_under_heavy_collision(self, monkeypatch):
        monkeypatch.setattr(domain_mod, "RETRY_FACTOR", 1)
        sampler = load_domain(ExplicitList(labels=tuple(f"x{i}" for i in range(50))))
        with pytest.raises(ValidityError, match="rejection attempts"):
            sampler.sample_distinct(make_rng(206), 50)

    def test_k_zero(self):
        assert self.sampler.sample_distinct(make_rng(207), 0) == []

    @pytest.mark.parametrize("excluded, foreign", [(0, 1), (3, 1), (58, 1), (99, 1), (5, 990)])
    def test_rejection_kept_while_one_slot_in_a_hundred_is_absent(self, excluded, foreign):
        # Down to one absent slot in DENSE_RATIO, draws are the rejection
        # draws exactly. Excluded labels that are not in the domain leave its
        # slots absent.
        for spec in (ExplicitList(labels=tuple(f"x{i}" for i in range(100))), SizeOnly(size=100, prefix="x")):
            sampler = load_domain(spec)
            exclude = {sampler.decode(i) for i in range(excluded)} | {f"y{i}" for i in range(foreign)}
            for seed in range(20):
                k = 1 + seed % (100 - excluded)
                drawn = sampler.sample_distinct(make_rng(208, seed), k, exclude)
                assert drawn == sample_distinct_by_rejection(sampler, make_rng(208, seed), k, exclude)

    def test_nearly_covered_domain_draws_uniformly_from_absent_labels(self):
        labels = tuple(f"x{i}" for i in range(500))
        sampler = load_domain(ExplicitList(labels=labels))
        exclude = set(labels[4:])
        rng = make_rng(209)
        counts = dict.fromkeys(labels[:4], 0)
        for _ in range(10_000):
            counts[sampler.sample_distinct(rng, 1, exclude)[0]] += 1
        for label, c in counts.items():
            assert c / 10_000 == pytest.approx(0.25, abs=0.02), label
        drawn = sampler.sample_distinct(rng, 4, exclude)
        assert sorted(drawn) == list(labels[:4])
        with pytest.raises(ValidityError, match="requested 5 distinct categories .* with 496 excluded"):
            sampler.sample_distinct(rng, 5, exclude)

    @pytest.mark.parametrize("kind", ["generated", "word-pairs"])
    def test_nearly_covered_implicit_domain_draws_as_its_label_list(self, kind, tmp_path, monkeypatch):
        # With the cap cut to one attempt per label, rejection would give up;
        # the absent labels are drawn directly, exactly as from the explicit
        # list of the same labels in index order.
        monkeypatch.setattr(domain_mod, "RETRY_FACTOR", 1)
        if kind == "generated":
            sampler = load_domain(SizeOnly(size=500, prefix="x"))
        else:
            path = tmp_path / "w.txt"
            path.write_text("".join(f"w{i}\n" for i in range(22)), encoding="utf-8")
            sampler = load_domain(WordPairs(path))
        labels = tuple(map(sampler.decode, range(sampler.size)))
        listed = load_domain(ExplicitList(labels=labels))
        exclude = frozenset(labels[4:]) | {"foreign"}
        for seed in range(50):
            k = 1 + seed % 4
            drawn = sampler.sample_distinct(make_rng(210, seed), k, exclude)
            assert drawn == listed.sample_distinct(make_rng(210, seed), k, exclude)
            assert len(set(drawn)) == k and set(drawn) <= set(labels[:4])
        with pytest.raises(ValidityError, match=f"requested 5 distinct categories .* with {len(labels) - 4} excluded"):
            sampler.sample_distinct(make_rng(211), 5, exclude)


class TestWordListSampler:
    def test_loads_trims_and_dedupes(self, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("  alpha  \nbeta\n\nalpha\ngamma\n   \n", encoding="utf-8")
        words = load_words(path)
        assert words == ("alpha", "beta", "gamma")

    def test_matches_per_line_loop(self, tmp_path):
        # CRLF, a lone CR, blank and whitespace-only lines, duplicates,
        # non-ASCII, a form feed and a NEL inside words, an inner space and
        # no final newline: str.splitlines would split at the form feed and
        # the NEL.
        text = (
            "alpha\r\nbeta\rgamma\n\n   \n\t\r\nalpha\n  beta  \ncafé\n\u00e9t\u00e9\n"
            "form\x0cfeed\nnext\x85line\nsep\u2028arator\ntwo words\n\x0c\nlast"
        )
        path = tmp_path / "w.txt"
        path.write_bytes(text.encode("utf-8"))
        words = load_words(path)
        assert words == load_words_per_line(path)
        assert words == (
            "alpha", "beta", "gamma", "café", "été", "form\x0cfeed", "next\x85line",
            "sep\u2028arator", "two words", "last",
        )

    def test_invalid_utf8_raises_decode_error(self, tmp_path):
        path = tmp_path / "w.txt"
        path.write_bytes(b"alpha\nbe\xfft\n")
        with pytest.raises(UnicodeDecodeError):
            load_words(path)

    def test_label_index_built_only_for_encode(self, small_wordlist_path):
        sampler = load_domain(WordList(small_wordlist_path))
        assert sampler.contains("Male") and not sampler.contains("nope")
        assert sampler.non_members({"Male", "nope"}) == {"nope"}
        sampler.sample_distinct(make_rng(211), 3, {"Male"})
        assert "_index" not in vars(sampler)
        assert sampler.encode(sampler.decode(7)) == 7
        assert "_index" in vars(sampler)

    def test_empty_file_is_an_error(self, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("\n  \n", encoding="utf-8")
        with pytest.raises(ValidityError, match="no words"):
            load_words(path)

    def test_full_wordlist_size(self, wordlist_path):
        sampler = load_domain(WordList(wordlist_path))
        assert sampler.size == WORDLIST_SIZE
        assert sampler.contains("Male")
        assert sampler.contains("Female")

    def test_encode_decode_round_trip(self, small_wordlist_path):
        sampler = load_domain(WordList(small_wordlist_path))
        for i in range(sampler.size):
            assert sampler.encode(sampler.decode(i)) == i


class TestWordPairSampler:
    def test_size_is_square(self, small_wordlist_path):
        sampler = load_domain(WordPairs(small_wordlist_path))
        assert sampler.size == 100 * 100

    def test_full_wordlist_pair_size(self, wordlist_path):
        sampler = load_domain(WordPairs(wordlist_path))
        assert sampler.size == WORDLIST_SIZE**2

    def test_round_trip_on_random_indices(self, wordlist_path):
        sampler = load_domain(WordPairs(wordlist_path))
        rng = np.random.default_rng(208)
        for index in rng.integers(sampler.size, size=10_000):
            index = int(index)
            label = sampler.decode(index)
            first, space, second = label.partition(" ")
            assert space == " " and first and second
            assert sampler.encode(label) == index

    def test_single_words_are_not_pairs(self, small_wordlist_path):
        sampler = load_domain(WordPairs(small_wordlist_path))
        with pytest.raises(ValidityError, match="not a word pair"):
            sampler.encode("Male")
        with pytest.raises(ValidityError):
            sampler.encode("Male Female extra")

    def test_unknown_word_in_pair(self, small_wordlist_path):
        sampler = load_domain(WordPairs(small_wordlist_path))
        with pytest.raises(ValidityError, match="not in the word-pair domain"):
            sampler.encode("Male zzzzz")

    def test_sampling_draws_pairs(self, small_wordlist_path):
        sampler = load_domain(WordPairs(small_wordlist_path))
        rng = make_rng(209)
        for label in sampler.sample_distinct(rng, 25):
            assert sampler.contains(label)
            assert label.count(" ") == 1


class TestSizeOnlySampler:
    def test_decode_format(self):
        sampler = load_domain(SizeOnly(size=1_000))
        assert sampler.decode(0) == "cat-0"
        assert sampler.decode(999) == "cat-999"

    def test_custom_prefix(self):
        sampler = load_domain(SizeOnly(size=5, prefix="tok"))
        assert sampler.decode(3) == "tok-3"
        assert sampler.encode("tok-3") == 3

    def test_encode_rejects_non_canonical(self):
        sampler = load_domain(SizeOnly(size=1_000))
        for bad in ("cat-007", "cat-", "cat", "dog-1", "cat-1000", "cat--1", "cat-1.5"):
            with pytest.raises(ValidityError):
                sampler.encode(bad)

    def test_huge_domain_sampling(self):
        sampler = load_domain(SizeOnly(size=10**12))
        rng = make_rng(210)
        labels = sampler.sample_distinct(rng, 100)
        assert len(set(labels)) == 100
        for label in labels:
            assert sampler.contains(label)

    def test_prefix_containing_hyphen_round_trips(self):
        sampler = load_domain(SizeOnly(size=10, prefix="a-b"))
        assert sampler.encode(sampler.decode(7)) == 7

    @pytest.mark.parametrize("prefix", ["cat", "a-b"])
    def test_membership_check_matches_parsing(self, prefix):
        # contains checks the digits without parsing them; it must accept
        # exactly the labels that parse to an index below size.
        size = 120
        sampler = load_domain(SizeOnly(size=size, prefix=prefix))
        # "\u0663" (Arabic-Indic three) and "\u00b2" (superscript two) pass
        # str.isdigit but are no index.
        tails = ["0", "7", "01", "00", "119", "120", "999", "1000", "\u0663", "\u00b2"]
        tails += ["-1", "", "+5", " 5", "5 ", "1_0"]
        labels = [f"{prefix}-{tail}" for tail in tails]
        labels += [prefix, f"{prefix}--1", f"x{prefix}-5", "cat-5", "a-5", "b-5", "-5", "5"]
        members = 0
        for label in labels:
            index = size_only_index_by_parsing(prefix, size, label)
            assert sampler.contains(label) == (index is not None), label
            assert sampler.non_members({label}) == (set() if index is not None else {label}), label
            if index is None:
                with pytest.raises(ValidityError):
                    sampler.encode(label)
            else:
                members += 1
                assert sampler.encode(label) == index and sampler.decode(index) == label
        assert members == 3 + (prefix == "cat")
