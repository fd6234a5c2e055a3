"""Uniform sampling of distinct categories from large implicit domains.

A domain is never materialized. Each sampler kind has an exact size, one
indexer, decode, which maps an array of indices in [0, size) to their labels
(a bijection onto the domain), and one membership test, contains. Drawing a
uniform category is drawing a uniform index. Distinctness and exclusion are
handled by rejection, which stays cheap while the number of requested
categories is far below the domain size. Candidates are drawn in rounds of
the draws still needed, one array call per round, on the same stream and
with the same labels as drawing them one at a time. Each round's indices are
decoded to labels in one decode call, and its repeated, excluded and already
chosen labels are dropped with dict and set operations, not one label at a
time. A domain with almost all of its slots excluded draws from its absent
labels instead.

A wordlist is loaded as arrays, with no Python object per word: one UTF-8
buffer of its distinct words, each followed by "\n", their start offsets in
it, and a sorted array of the words' 64-bit hashes with the word each hash
belongs to. A word-pair domain indexes the same arrays. decode copies each
label's bytes with one array gather and splits the labels out of one decoded
string. non_members, the check a release runs on its active labels, hashes
the labels in bulk and looks them up in the sorted hashes. A hash only finds
candidates: every answer rests on comparing the label's bytes with the
word's, so duplicates and hash collisions leave every answer exact. The
one-label contains answers from a dict of the words, decoded on its first
call; no release path calls it.
"""

from __future__ import annotations

import codecs
from collections.abc import Collection
from functools import cached_property
from itertools import compress, filterfalse
from pathlib import Path

import numpy as np

from .core import DomainSpec, ExplicitList, SizeOnly, ValidityError, WordList, WordPairs
from .numerics import Rng

# Rejection attempts allowed per requested category before giving up.
RETRY_FACTOR = 10_000

# A domain with fewer than one absent slot in DENSE_RATIO samples its absent
# labels directly. Above that, a label takes under DENSE_RATIO draws on
# average and the chance of hitting RETRY_FACTOR is below (1 - 1/100)**10_000,
# about 2e-44; below it, rejection slows down and eventually fails.
DENSE_RATIO = 100

# A word is read 8 bytes at a time, as little-endian uint64 values with the
# bytes past the word's "\n" zeroed. Its hash is h = (h + value) *
# HASH_MULTIPLIER mod 2**64 over those values, from h = 0. Any multiplier
# gives exact answers; an odd one maps a word of up to 7 bytes to a hash no
# other such word has, and its mixed bits keep longer words apart too.
HASH_MULTIPLIER = 0x9E3779B97F4A7C15
# Bytes searched for "\n", or lines hashed or decoded, at once: temporaries
# the size of a whole wordlist would leave holes of that size in the heap.
BLOCK = 1 << 14
# _LOW_BYTES[n] keeps the first n bytes of a little-endian uint64.
_LOW_BYTES = np.array([(1 << 8 * n) - 1 for n in range(9)], np.uint64)

# Bytes other than "\n" that str.strip removes from an ASCII line.
_ASCII_BLANKS = tuple(bytes([c]) for c in b"\t\x0b\x0c\r\x1c\x1d\x1e\x1f ")


class DomainSampler:
    """Base interface: exact size, an indexer onto the labels, membership."""

    spec: DomainSpec
    size: int

    def decode(self, indices: np.ndarray) -> list[str]:
        """The labels of an integer array of indices in [0, size), in its order."""
        raise NotImplementedError

    def contains(self, label: str) -> bool:
        """Whether label is in the domain."""
        raise NotImplementedError

    def non_members(self, labels: Collection[str]) -> set[str]:
        """The labels that are not in the domain, of any sized collection of
        distinct labels: a release hands its active labels in bin order."""
        return {label for label in labels if not self.contains(label)}

    def sample_distinct(self, rng: Rng, k: int, exclude: frozenset[str] | set[str] = frozenset()) -> list[str]:
        """Draw k distinct uniform categories, none of them in exclude."""
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        if k == 0:
            return []
        # Rejection takes size / absent draws per label, so with fewer than one
        # absent slot in DENSE_RATIO its RETRY_FACTOR cap comes within reach.
        # The domain is then barely larger than exclude, so listing it costs
        # about what building exclude did.
        if DENSE_RATIO * (self.size - len(exclude)) < self.size:
            excluded_members = len(exclude) - len(self.non_members(exclude))
            if DENSE_RATIO * (self.size - excluded_members) < self.size:
                self._require_room(k, excluded_members)
                absent = list(filterfalse(exclude.__contains__, self.decode(np.arange(self.size))))
                return [absent[i] for i in rng.choice(len(absent), size=k, replace=False).tolist()]
        # At most len(exclude) slots are excluded, so only then can k exhaust the domain.
        if k > self.size - len(exclude):
            self._require_room(k, len(exclude) - len(self.non_members(exclude)))
        # Each draw picks at most one label, so a round of the draws still
        # needed is exactly the next draws of a one-at-a-time loop, and one
        # array call gives the same indices as that many scalar calls. A
        # round adds the first draw of each label that is neither excluded
        # nor chosen already, in draw order; merging into chosen leaves the
        # labels chosen earlier where they are.
        chosen: dict[str, None] = {}
        drawn = 0
        while len(chosen) < k:
            want = min(k - len(chosen), RETRY_FACTOR * k - drawn)
            if want == 0:
                raise ValidityError(f"domain exhausted: {drawn} rejection attempts for {k} categories")
            drawn += want
            fresh = dict.fromkeys(self.decode(rng.integers(self.size, size=want)))
            for label in fresh.keys() & exclude:  # iterates the smaller side
                del fresh[label]
            if chosen:
                chosen |= fresh
            else:
                chosen = fresh
        return list(chosen)

    def _require_room(self, k: int, excluded_members: int) -> None:
        if k > self.size - excluded_members:
            raise ValidityError(
                f"domain exhausted: requested {k} distinct categories from a domain of "
                f"size {self.size} with {excluded_members} excluded"
            )


class _LabelSampler(DomainSampler):
    """An explicit label list: the labels in order and as a set."""

    def __init__(self, spec: ExplicitList) -> None:
        self.spec = spec
        self._labels = spec.labels
        self._members = frozenset(spec.labels)
        self.size = len(spec.labels)

    def decode(self, indices: np.ndarray) -> list[str]:
        return list(map(self._labels.__getitem__, indices.tolist()))

    def contains(self, label: str) -> bool:
        return label in self._members

    def non_members(self, labels: Collection[str]) -> set[str]:
        return set(filterfalse(self._members.__contains__, labels))


class _Lines:
    """"\n"-terminated byte strings in one buffer.

    Line i with its "\n" is buffer[starts[i]:starts[i + 1]]. data holds the
    buffer's bytes and then 7 zero bytes, so that eights, the 8 bytes from
    each offset as a little-endian uint64, can be read up to its end.
    """

    def __init__(self, data: bytes) -> None:
        self.data = data + bytes(7)
        self.buffer = np.frombuffer(self.data, np.uint8, len(data))
        self.eights = np.ndarray(len(data), "<u8", self.data, 0, (1,))
        self.size = data.count(b"\n")
        self.starts = np.zeros(self.size + 1, np.int32 if len(data) < 2**31 else np.int64)
        found = 0
        for first in range(0, len(data), BLOCK):
            ends = np.flatnonzero(self.buffer[first:first + BLOCK] == ord("\n"))
            self.starts[found + 1:found + 1 + ends.size] = ends + (first + 1)
            found += ends.size

    def hash(self) -> np.ndarray:
        """Each line's hash (see HASH_MULTIPLIER), BLOCK lines at a time."""
        # uint64 array arithmetic wraps around silently; scalar arithmetic would warn.
        multiplier = np.uint64(HASH_MULTIPLIER)
        hashes = np.zeros(self.size, np.uint64)
        for first in range(0, self.size, BLOCK):
            bounds = self.starts[first:first + BLOCK + 1]
            left, at, length = np.arange(first, first + bounds.size - 1), bounds[:-1], np.diff(bounds)
            while left.size:  # the next 8 bytes of the lines not yet read to their end
                hashes[left] = (hashes[left] + (self.eights[at] & _LOW_BYTES.take(length, mode="clip"))) * multiplier
                longer = np.flatnonzero(length > 8)
                left, at, length = left[longer], at[longer] + 8, length[longer] - 8
        return hashes

    def gather(self, lines: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The bytes of the lines at an index array, one after another, and
        the offset just past each line's "\n" there."""
        at = self.starts[lines]
        return _ranges(self.buffer, at, self.starts[lines + 1] - at)

    def decode(self, lines: np.ndarray) -> list[str]:
        return self.gather(lines)[0].tobytes().decode("utf-8").split("\n")[:-1]

    def same(self, lines: np.ndarray, other: _Lines, others: np.ndarray) -> np.ndarray:
        """Whether line lines[i] has the bytes of other's line others[i].

        Each line is compared, 8 bytes at a time, with as many bytes of the
        other line as it has. That is exact: lines of two lengths differ at
        the shorter one's "\n", as a line holds "\n" only at its end. So the
        lines stay equal only up to the other line's end, and no 8-byte read
        starts past it.
        """
        same = np.ones(lines.size, bool)
        left, at, other_at = np.arange(lines.size), self.starts[lines], other.starts[others]
        length = self.starts[lines + 1] - at
        while left.size:  # the next 8 bytes of the lines equal so far and not yet read to their end
            same[left] = (self.eights[at] ^ other.eights[other_at]) & _LOW_BYTES.take(length, mode="clip") == 0
            longer = np.flatnonzero(same[left] & (length > 8))
            left, at, other_at, length = left[longer], at[longer] + 8, other_at[longer] + 8, length[longer] - 8
        return same


class _Words(DomainSampler):
    """A wordlist's distinct words in first-occurrence order, as lines.

    hashes holds the words' hashes in ascending order, and hashes[k] is word
    order[k]'s. A word-pair domain indexes its words with one of these.
    """

    def __init__(self, spec: WordList) -> None:
        data = _read_lines(spec.path)
        if not data:
            raise ValidityError(f"wordlist {spec.path} contains no words")
        self.spec = spec
        self.lines = _Lines(data)
        self.hashes, order = _sorted_hashes(self.lines)
        if (self.hashes[1:] == self.hashes[:-1]).any():  # a word repeats, or two words share a hash
            self.lines = _first_copies(self.lines)
            self.hashes, order = _sorted_hashes(self.lines)
        self.size = self.lines.size
        self.order = order.astype(self.lines.starts.dtype)

    def decode(self, indices: np.ndarray) -> list[str]:
        return self.lines.decode(indices)

    @cached_property
    def _members(self) -> dict[str, None]:
        members: dict[str, None] = {}
        for first in range(0, self.size, BLOCK):
            members.update(dict.fromkeys(self.decode(np.arange(first, min(first + BLOCK, self.size)))))
        return members

    def contains(self, label: str) -> bool:
        return label in self._members

    def non_members(self, labels: Collection[str]) -> set[str]:
        joined = "\n".join(labels)
        outside: set[str] = set()
        if joined.count("\n") >= len(labels):  # a label holds "\n", which no word does
            outside = {label for label in labels if "\n" in label}
            labels = [label for label in labels if "\n" not in label]
            if not labels:
                return outside
            joined = "\n".join(labels)
        # A lone surrogate encodes to bytes that valid UTF-8 never holds, so
        # such a label matches no word.
        queries = _Lines((joined + "\n").encode("utf-8", "surrogatepass"))
        hashes = queries.hash()
        # Sorted, the queries walk the sorted hashes in order; the results
        # then go back to label order.
        by_hash = np.argsort(hashes)
        found, hits = np.empty_like(by_hash), np.empty_like(by_hash)
        found[by_hash] = self.hashes.searchsorted(hashes[by_hash])
        hits[by_hash] = self.hashes.searchsorted(hashes[by_hash], "right")
        hits -= found
        # Each label against every word of its hash.
        label_of = np.repeat(np.arange(hits.size), hits)
        word_of = _ranges(self.order, found, hits)[0]
        member = np.zeros(queries.size, bool)
        member[label_of[queries.same(label_of, self.lines, word_of)]] = True
        if not member.all():
            outside.update(compress(labels, (~member).tolist()))
        return outside


class _WordPairSampler(DomainSampler):
    """Ordered pairs "first second" over one wordlist; size is the square.

    No word holds "\n" (the list is split at it) or " " (refused), so a label
    splits back into its pair at its one space.
    """

    def __init__(self, spec: WordPairs, words: _Words) -> None:
        space = words.lines.data.find(b" ")
        if space >= 0:
            spaced = words.decode(words.lines.starts.searchsorted([space], "right") - 1)[0]
            raise ValidityError(
                f"wordlist {spec.path} holds {spaced!r}, a word with a space: word pairs must split at their space"
            )
        self.spec = spec
        self._words = words
        self._m = words.size
        self.size = self._m * self._m

    def decode(self, indices: np.ndarray) -> list[str]:
        # One gather copies the runs of each label's two words, each with its
        # "\n", to where the runs before it end; the first word's "\n" then
        # becomes the space.
        words = np.empty((indices.size, 2), indices.dtype)
        np.divmod(indices, self._m, out=(words[:, 0], words[:, 1]))
        joined, end = self._words.lines.gather(words.ravel())
        joined[end[0::2] - 1] = ord(" ")
        return joined.tobytes().decode("utf-8").split("\n")[:-1]

    def contains(self, label: str) -> bool:
        first, _, second = label.partition(" ")
        return self._words.contains(first) and self._words.contains(second)

    def non_members(self, labels: Collection[str]) -> set[str]:
        # A label with no space has "" for its second word, and one with two
        # has a second word with a space: neither is a word.
        halves = {label: label.partition(" ")[::2] for label in labels}
        outside = self._words.non_members({half for pair in halves.values() for half in pair})
        return {label for label, (first, second) in halves.items() if first in outside or second in outside}


class _SizeOnlySampler(DomainSampler):
    def __init__(self, spec: SizeOnly) -> None:
        self.spec = spec
        self.size = spec.size
        self._head = spec.prefix + "-"
        self._bound = (len(str(spec.size)), str(spec.size))

    def decode(self, indices: np.ndarray) -> list[str]:
        head = self._head
        return [f"{head}{index}" for index in indices.tolist()]

    def contains(self, label: str) -> bool:
        # "<prefix>-" and an index below size in ASCII digits, with no leading
        # zero but in "0": such strings compare as their numbers by length,
        # then as strings.
        index = label[len(self._head):]
        return (
            label.startswith(self._head) and index.isascii() and index.isdigit()
            and (index[0] != "0" or index == "0") and (len(index), index) < self._bound
        )


def _read_lines(path: Path) -> bytes:
    """A UTF-8 wordlist's lines, trimmed, blanks dropped, as UTF-8 with each
    line followed by "\n". Duplicates are kept. A leading byte-order mark is
    dropped."""
    data = path.read_bytes().removeprefix(codecs.BOM_UTF8)
    # An ASCII file that has nothing to trim and no blank line is its own
    # result; each check is one scan of the bytes.
    if data.isascii() and data[:1] not in (b"", b"\n") and b"\n\n" not in data \
            and not any(map(data.__contains__, _ASCII_BLANKS)):
        return data if data.endswith(b"\n") else data + b"\n"
    # Newlines are universal, as when the file is read as text, so "\r\n"
    # and "\r" end lines; split on "\n" only (str.splitlines would also split
    # on "\x0c", "\x85" and "\u2028").
    text = data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    return "".join(f"{word}\n" for word in map(str.strip, text.split("\n")) if word).encode("utf-8")


def _ranges(buffer: np.ndarray, at: np.ndarray, length: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """buffer's runs [at[i], at[i] + length[i]) one after another, and where
    each run ends in the result."""
    end = np.cumsum(length)
    gather = np.repeat(at + length - end, length)
    gather += np.arange(gather.size)
    return buffer[gather], end


def _sorted_hashes(lines: _Lines) -> tuple[np.ndarray, np.ndarray]:
    """The lines' hashes in ascending order, and the line of each."""
    hashes = lines.hash()
    order = np.argsort(hashes)
    return hashes[order], order


def _first_copies(words: _Lines) -> _Lines:
    """words without the later copies of any word, compared as bytes, so
    distinct words that share a hash both stay."""
    return _Lines(b"\n".join(dict.fromkeys(bytes(words.buffer).split(b"\n")[:-1])) + b"\n")


def load_domain(spec: DomainSpec) -> DomainSampler:
    """Materialize a sampler for a domain description (reads wordlist files)."""
    if isinstance(spec, ExplicitList):
        return _LabelSampler(spec)
    if isinstance(spec, WordList):
        return _Words(spec)
    if isinstance(spec, WordPairs):
        return _WordPairSampler(spec, _Words(WordList(spec.path)))
    if isinstance(spec, SizeOnly):
        return _SizeOnlySampler(spec)
    raise TypeError(f"unknown domain spec: {spec!r}")
