import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cathist.domain as domain_mod
from cathist.core import ExplicitList, Histogram, PrivacyParams, SizeOnly, ValidityError, WordList, WordPairs
from cathist.domain import load_domain
from cathist.mechanism import CatHistConfig, cat_hist
from cathist.numerics import make_rng

from conftest import WORDLIST_SIZE
from oracles import load_words_per_line, sample_distinct_by_rejection, size_only_index_by_parsing, word_pairs_by_format

# Seeded, few and small examples, so tier-1 stays deterministic and quick.
PROPERTY = settings(derandomize=True, max_examples=50, deadline=None)

# Letters, a digit, a hyphen, non-ASCII and astral characters, and the
# blanks and breaks a wordlist reader trims, keeps or splits at. A fixed
# alphabet spares hypothesis building its Unicode tables on a fresh checkout.
ALPHABET = "ab0-é€\U0001d11e \t\r\x0c\x85\u2028"
LABELS = st.text(ALPHABET, min_size=1, max_size=6)
# The lines of a wordlist.
WORDS = st.lists(LABELS.filter(str.strip), min_size=1, max_size=15)


def assert_decode_is_a_bijection_onto_members(sampler):
    """decode(arange(size)) gives size distinct labels, each in the domain."""
    labels = sampler.decode(np.arange(sampler.size))
    assert len(set(labels)) == len(labels) == sampler.size
    assert all(map(sampler.contains, labels))
    assert sampler.non_members(set(labels)) == set()


def index_arrays(size):
    """Empty, first, last, repeated and random index arrays over [0, size)."""
    random = np.random.default_rng(208).integers(size, size=10_000)
    return [np.arange(0), np.array([0]), np.array([size - 1]), np.array([size - 1, 0, size - 1, 0]), random]


def words_of(path):
    """The words of a wordlist file, in index order."""
    sampler = load_domain(WordList(path))
    return tuple(sampler.decode(np.arange(sampler.size)))


def write_words(tmp_path_factory, words):
    path = tmp_path_factory.getbasetemp() / "property-words.txt"
    path.write_text("\n".join(words), encoding="utf-8")
    return path


class TestExplicitSampler:
    def setup_method(self):
        self.sampler = load_domain(ExplicitList(labels=tuple("abcdefghij")))

    def test_size(self):
        assert self.sampler.size == 10

    @PROPERTY
    @given(st.lists(LABELS, min_size=1, max_size=40, unique=True))
    def test_decode_is_a_bijection_onto_members(self, labels):
        sampler = load_domain(ExplicitList(labels))
        assert sampler.decode(np.arange(sampler.size)) == labels
        assert_decode_is_a_bijection_onto_members(sampler)

    def test_contains(self):
        assert self.sampler.contains("a")
        assert not self.sampler.contains("z")

    def test_unknown_label_errors(self):
        assert self.sampler.non_members({"a", "z"}) == {"z"}
        config = CatHistConfig(PrivacyParams(1.0, 0.5), self.sampler.spec, seed=1)
        with pytest.raises(ValidityError, match="outside the declared domain"):
            cat_hist(config, Histogram([("a", 3.0), ("z", 1.0)]), sampler=self.sampler)

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
        # One attempt per label: the cap is reached after exactly 50 draws.
        monkeypatch.setattr(domain_mod, "RETRY_FACTOR", 1)
        sampler = load_domain(ExplicitList(labels=tuple(f"x{i}" for i in range(50))))
        rng, replay = make_rng(206), make_rng(206)
        with pytest.raises(ValidityError, match=r"^domain exhausted: 50 rejection attempts for 50 categories$"):
            sampler.sample_distinct(rng, 50)
        for _ in range(50):
            replay.integers(50)
        assert rng.bit_generator.state == replay.bit_generator.state

    def test_k_zero(self):
        assert self.sampler.sample_distinct(make_rng(207), 0) == []

    @pytest.mark.parametrize("excluded, foreign", [(0, 1), (3, 1), (58, 1), (99, 1), (5, 990)])
    def test_rejection_kept_while_one_slot_in_a_hundred_is_absent(self, excluded, foreign):
        # Down to one absent slot in DENSE_RATIO, draws are the rejection
        # draws exactly. Excluded labels that are not in the domain leave its
        # slots absent.
        for spec in (ExplicitList(labels=tuple(f"x{i}" for i in range(100))), SizeOnly(size=100, prefix="x")):
            sampler = load_domain(spec)
            exclude = set(sampler.decode(np.arange(excluded))) | {f"y{i}" for i in range(foreign)}
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
        labels = tuple(sampler.decode(np.arange(sampler.size)))
        listed = load_domain(ExplicitList(labels=labels))
        exclude = frozenset(labels[4:]) | {"foreign"}
        for seed in range(50):
            k = 1 + seed % 4
            drawn = sampler.sample_distinct(make_rng(210, seed), k, exclude)
            assert drawn == listed.sample_distinct(make_rng(210, seed), k, exclude)
            assert len(set(drawn)) == k and set(drawn) <= set(labels[:4])
        with pytest.raises(ValidityError, match=f"requested 5 distinct categories .* with {len(labels) - 4} excluded"):
            sampler.sample_distinct(make_rng(211), 5, exclude)


class TestRoundsEqualOneAtATime:
    """sample_distinct draws its candidates in rounds of the draws still
    needed; labels and the generator state afterwards must equal those of one
    scalar draw per candidate, across the bounds of numpy's integer paths."""

    @staticmethod
    def assert_same_stream(sampler, ks, exclude, seed):
        rng, reference = make_rng(212, seed), make_rng(212, seed)
        for k in ks:
            drawn = sampler.sample_distinct(rng, k, exclude)
            assert drawn == sample_distinct_by_rejection(sampler, reference, k, exclude), k
            assert rng.bit_generator.state == reference.bit_generator.state, k

    @pytest.mark.parametrize("size", [10**3, 2**32 - 1, 2**32, 2**32 + 1, 10**12, 2**63])
    def test_generated(self, size):
        sampler = load_domain(SizeOnly(size=size))
        exclude = set(sampler.decode(np.array([0, 1, 2, 3, 4, size - 1]))) | {"foreign"}
        self.assert_same_stream(sampler, range(1, 301), exclude, size % 1000)

    @pytest.mark.parametrize("kind", [WordList, WordPairs])
    def test_words(self, kind, wordlist_path):
        sampler = load_domain(kind(wordlist_path))
        exclude = set(sampler.decode(np.arange(0, sampler.size, sampler.size // 50)))
        self.assert_same_stream(sampler, range(1, 301), exclude, 1)

    def test_word_pairs_under_heavy_collisions(self, tmp_path):
        # 11 absent pairs of 16: rounds repeat pairs drawn earlier in the same
        # round and draw excluded ones.
        path = tmp_path / "w.txt"
        path.write_text("ant\nbee\ncat\ndog\n", encoding="utf-8")
        sampler = load_domain(WordPairs(path))
        exclude = {"ant ant", "ant dog", "bee cat", "cat bee", "dog dog"}
        for seed in range(3):
            self.assert_same_stream(sampler, range(1, 12), exclude, seed)

    def test_list_with_a_third_excluded(self):
        # 200 absent labels: rounds reject excluded labels and repeat labels
        # drawn earlier in the same round.
        sampler = load_domain(ExplicitList(labels=tuple(f"x{i}" for i in range(300))))
        exclude = {f"x{i}" for i in range(0, 300, 3)}
        for seed in range(3):
            self.assert_same_stream(sampler, range(1, 201), exclude, seed)


class TestWordListSampler:
    def test_loads_trims_and_dedupes(self, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("  alpha  \nbeta\n\nalpha\ngamma\n   \n", encoding="utf-8")
        assert words_of(path) == ("alpha", "beta", "gamma")

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
        words = words_of(path)
        assert words == load_words_per_line(path)
        assert words == (
            "alpha", "beta", "gamma", "café", "été", "form\x0cfeed", "next\x85line",
            "sep\u2028arator", "two words", "last",
        )

    def test_invalid_utf8_raises_decode_error(self, tmp_path):
        path = tmp_path / "w.txt"
        path.write_bytes(b"alpha\nbe\xfft\n")
        for kind in (WordList, WordPairs):
            with pytest.raises(UnicodeDecodeError):
                load_domain(kind(path))

    def test_empty_file_is_an_error(self, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("\n  \n", encoding="utf-8")
        for kind in (WordList, WordPairs):
            with pytest.raises(ValidityError, match="no words"):
                load_domain(kind(path))

    def test_full_wordlist_size(self, wordlist_path):
        sampler = load_domain(WordList(wordlist_path))
        assert sampler.size == WORDLIST_SIZE
        assert sampler.contains("Male")
        assert sampler.contains("Female")

    def test_word_with_a_space_is_kept(self, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("a\na b\nb c\nc\n", encoding="utf-8")
        sampler = load_domain(WordList(path))
        assert words_of(path) == ("a", "a b", "b c", "c")
        assert sampler.contains("a b") and not sampler.contains("b")
        assert sampler.non_members({"a b", "b"}) == {"b"}

    @PROPERTY
    @given(WORDS)
    def test_decode_is_a_bijection_onto_members(self, tmp_path_factory, words):
        path = write_words(tmp_path_factory, words)
        sampler = load_domain(WordList(path))
        assert words_of(path) == load_words_per_line(path)
        assert_decode_is_a_bijection_onto_members(sampler)


class TestWordPairSampler:
    def test_size_is_square(self, small_wordlist_path):
        sampler = load_domain(WordPairs(small_wordlist_path))
        assert sampler.size == 100 * 100

    def test_full_wordlist_pair_size(self, wordlist_path):
        sampler = load_domain(WordPairs(wordlist_path))
        assert sampler.size == WORDLIST_SIZE**2

    def test_round_trip_on_random_indices(self, wordlist_path):
        sampler = load_domain(WordPairs(wordlist_path))
        words = load_words_per_line(wordlist_path)
        for indices in index_arrays(sampler.size):
            labels = sampler.decode(indices)
            assert labels == word_pairs_by_format(words, indices)
            assert all(map(sampler.contains, labels))

    def test_offsets_found_across_search_blocks(self, tmp_path, monkeypatch):
        # Blocks of 5 bytes cut words and their multi-byte characters apart.
        monkeypatch.setattr(domain_mod, "NEWLINE_BLOCK", 5)
        words = ("a", "é€", "\U0001d11e" * 3, "bb", "0-é", "x")
        path = tmp_path / "w.txt"
        path.write_text("\n".join(words), encoding="utf-8")
        sampler = load_domain(WordPairs(path))
        indices = np.arange(sampler.size)
        assert sampler.decode(indices) == word_pairs_by_format(words, indices)

    def test_single_words_are_not_pairs(self, small_wordlist_path):
        sampler = load_domain(WordPairs(small_wordlist_path))
        labels = {"Male", "Male ", " Male", "Male  Female", "Male Female extra", " ", ""}
        for label in labels:
            assert not sampler.contains(label), label
        assert sampler.non_members(labels | {"Male Female"}) == labels

    def test_unknown_word_in_pair(self, small_wordlist_path):
        sampler = load_domain(WordPairs(small_wordlist_path))
        assert not sampler.contains("Male zzzzz") and not sampler.contains("zzzzz Male")
        assert sampler.contains("Male Female")

    def test_word_with_a_space_is_refused(self, tmp_path):
        # Over "a", "a b", "b c", "c" the pairs ("a b", "c") and ("a", "b c")
        # would both be "a b c", and "a b c" would not split back at its space.
        path = tmp_path / "w.txt"
        path.write_text("a\na b\nb c\nc\n", encoding="utf-8")
        with pytest.raises(ValidityError, match=r"holds 'a b', a word with a space"):
            load_domain(WordPairs(path))

    @PROPERTY
    @given(WORDS)
    def test_decode_is_a_bijection_onto_members(self, tmp_path_factory, words):
        path = write_words(tmp_path_factory, words)
        loaded = load_words_per_line(path)
        spaced = [word for word in loaded if " " in word]
        if spaced:
            with pytest.raises(ValidityError, match=re.escape(repr(spaced[0]))):
                load_domain(WordPairs(path))
            return
        sampler = load_domain(WordPairs(path))
        assert sampler.size == len(loaded) ** 2
        assert_decode_is_a_bijection_onto_members(sampler)
        # A bijection could still swap a pair's words or reorder the labels.
        for indices in [np.arange(sampler.size), *index_arrays(sampler.size)]:
            assert sampler.decode(indices) == word_pairs_by_format(loaded, indices)

    def test_sampling_draws_pairs(self, small_wordlist_path):
        sampler = load_domain(WordPairs(small_wordlist_path))
        rng = make_rng(209)
        for label in sampler.sample_distinct(rng, 25):
            assert sampler.contains(label)
            assert label.count(" ") == 1


class TestSizeOnlySampler:
    def test_decode_format(self):
        sampler = load_domain(SizeOnly(size=1_000))
        assert sampler.decode(np.array([0, 999])) == ["cat-0", "cat-999"]

    def test_custom_prefix(self):
        sampler = load_domain(SizeOnly(size=5, prefix="tok"))
        assert sampler.decode(np.array([3])) == ["tok-3"]
        assert sampler.contains("tok-3") and not sampler.contains("cat-3")

    def test_contains_rejects_non_canonical(self):
        sampler = load_domain(SizeOnly(size=1_000))
        bad = {"cat-007", "cat-", "cat", "dog-1", "cat-1000", "cat--1", "cat-1.5"}
        for label in bad:
            assert not sampler.contains(label), label
        assert sampler.non_members(bad) == bad

    @PROPERTY
    @given(st.integers(1, 300), LABELS)
    def test_decode_is_a_bijection_onto_members(self, size, prefix):
        sampler = load_domain(SizeOnly(size=size, prefix=prefix))
        assert_decode_is_a_bijection_onto_members(sampler)
        assert not sampler.contains(f"{prefix}-{size}")

    def test_huge_domain_sampling(self):
        sampler = load_domain(SizeOnly(size=10**12))
        rng = make_rng(210)
        labels = sampler.sample_distinct(rng, 100)
        assert len(set(labels)) == 100
        for label in labels:
            assert sampler.contains(label)

    def test_prefix_containing_hyphen_round_trips(self):
        sampler = load_domain(SizeOnly(size=10, prefix="a-b"))
        assert sampler.decode(np.array([7])) == ["a-b-7"]
        assert sampler.contains("a-b-7") and not sampler.contains("a-7")

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
            if index is not None:
                members += 1
                assert sampler.decode(np.array([index])) == [label]
        assert members == 3 + (prefix == "cat")
