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

The same lines, hashes and byte comparisons count the lines of a column
file (ingest.read_histogram): _DistinctLines reduces each block to a run of
its distinct lines, each with its hash, the place of its first copy and its
count, and merges the runs into one table now and then by one sort of their
hashes. A line of at most 8 bytes is kept as its hash alone: under the odd
HASH_MULTIPLIER that hash is one to one, and its bytes come back from it.
A wordlist whose words repeat or share a hash is deduplicated through the
same table.
"""

from __future__ import annotations

import codecs
import re
from collections import Counter
from collections.abc import Collection, Iterator
from functools import cached_property
from itertools import compress, filterfalse
from pathlib import Path
from typing import NamedTuple

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
# other such word has, and its mixed bits keep longer words apart too. So a
# line of at most 8 * (HASH_MULTIPLIER % 2) bytes with its "\n" is told
# apart by its hash and keeps no bytes of its own (see _Run); under an even
# multiplier every line keeps its bytes.
HASH_MULTIPLIER = 0x9E3779B97F4A7C15
# Bytes searched for "\n", or lines hashed or decoded, at once: temporaries
# the size of a whole wordlist would leave holes of that size in the heap.
BLOCK = 1 << 14
# Bytes of a block whose lines' mean length picks how the block is grouped,
# and bytes of lines counted at once in the dict (see _DistinctLines).
_SAMPLE = 1 << 12
_TALLY_BYTES = 1 << 16
# _LOW_BYTES[n] keeps the first n bytes of a little-endian uint64.
_LOW_BYTES = np.array([(1 << 8 * n) - 1 for n in range(9)], np.uint64)

# Characters other than "\n" that str.strip removes from an ASCII line.
_ASCII_BLANKS = "\t\x0b\x0c\r\x1c\x1d\x1e\x1f "


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

    Line i with its "\n" is buffer[starts[i]:starts[i + 1]]. The buffer is
    followed by at least 7 more bytes, so that eights, the 8 bytes from each
    offset as a little-endian uint64, can be read up to its end.
    """

    def __init__(self, padded: np.ndarray, starts: np.ndarray) -> None:
        """The lines of the uint8 array padded[:starts[-1]]."""
        self.starts = starts
        self.size = starts.size - 1
        self.buffer = padded[:starts[-1]]
        self.eights = np.ndarray(self.buffer.size, "<u8", padded, 0, (1,))

    @classmethod
    def of(cls, data: bytes) -> _Lines:
        """The lines of data, which is empty or ends with "\n"."""
        return cls.within(data + bytes(7), len(data))

    @classmethod
    def within(cls, data: bytes | bytearray, end: int) -> _Lines:
        """The lines of data[:end], which is empty or ends with "\n", in
        data itself: data holds at least 7 more bytes."""
        padded = np.frombuffer(data, np.uint8)
        starts = np.zeros(data.count(b"\n", 0, end) + 1, np.int32 if end < 2**31 else np.int64)
        found = 0
        for first in range(0, end, BLOCK):
            ends = np.flatnonzero(padded[first:min(first + BLOCK, end)] == ord("\n"))
            starts[found + 1:found + 1 + ends.size] = ends + (first + 1)
            found += ends.size
        return cls(padded, starts)

    def hash(self) -> np.ndarray:
        """Each line's hash (see HASH_MULTIPLIER), BLOCK lines at a time."""
        # uint64 array arithmetic wraps around silently; scalar arithmetic would warn.
        multiplier = np.uint64(HASH_MULTIPLIER)
        powers = np.ones(1, np.uint64)  # powers[k] is multiplier ** k
        hashes = np.empty(self.size, np.uint64)
        for first in range(0, self.size, BLOCK):
            bounds = self.starts[first:first + BLOCK + 1]
            at, length = bounds[:-1], np.diff(bounds)
            block = hashes[first:first + at.size]
            np.multiply(self.eights[at] & _LOW_BYTES.take(length, mode="clip"), multiplier, out=block)
            longer = np.flatnonzero(length > 8)
            for words, lines in _by_words(length[longer]):
                # The definition's loop over the line's words, unrolled: word k
                # of w adds its value times the multiplier to the power w - k.
                lines = longer[lines]
                if powers.size <= words:
                    powers = np.multiply.accumulate(np.append(np.uint64(1), np.full(words, multiplier)))
                values = self.eights[at[lines, None] + 8 * np.arange(words)]
                values[:, -1] &= _LOW_BYTES.take(length[lines] - 8 * (words - 1))
                values *= powers[words:0:-1]
                block[lines] = values.sum(axis=1, dtype=np.uint64)
        return hashes

    def gather(self, lines: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The bytes of the lines at an index array, one after another, and
        the offset just past each line's "\n" there."""
        at = self.starts[lines]
        spans, end = _spans(at, self.starts[lines + 1] - at)
        return self.buffer[spans], end

    def same(self, lines: np.ndarray, other: _Lines, others: np.ndarray) -> np.ndarray:
        """Whether line lines[i] has the bytes of other's line others[i], of
        lines of equal lengths, compared 8 bytes at a time."""
        at, other_at = self.starts[lines], other.starts[others]
        length = self.starts[lines + 1] - at
        same = np.empty(lines.size, bool)
        for words, pairs in _by_words(length):
            into = 8 * np.arange(words)
            differ = self.eights[at[pairs, None] + into] ^ other.eights[other_at[pairs, None] + into]
            differ[:, -1] &= _LOW_BYTES.take(length[pairs] - 8 * (words - 1))
            same[pairs] = ~differ.any(axis=1)
        return same


class _HashIndex:
    """Where to look for lines by hash: hashes holds the hashes of some
    distinct lines in ascending order, and hashes[k] is line order[k]'s."""

    def __init__(self, hashes: np.ndarray, order: np.ndarray) -> None:
        self.hashes = hashes
        self.order = order
        self.shared = bool((hashes[1:] == hashes[:-1]).any())  # whether two lines share a hash

    def holds(self, held: _Lines, lines: _Lines, queries: np.ndarray, hashes: np.ndarray) -> np.ndarray:
        """Whether held has a line with the bytes of each of lines' lines
        queries.

        hashes are the queries' own. A hash only finds candidates: each
        answer rests on comparing bytes, so hash collisions leave it exact.
        Queries in ascending hash walk the sorted hashes in order.
        """
        at = self.hashes.searchsorted(hashes)
        hits = (self.hashes.searchsorted(hashes, "right") - at if self.shared  # a query may have several candidates
                else self.hashes.take(at, mode="clip") == hashes)  # or one: the line at its place, if that has its hash
        # Each query against every line of its hash.
        query_of = np.repeat(np.arange(hits.size), hits)
        match = _same_of_equal_hash(lines, queries[query_of], held, self.order[_spans(at, hits)[0]])
        return np.bincount(query_of[match], minlength=queries.size) > 0


class _Run(NamedTuple):
    """Distinct lines in ascending hash: the hash of each, the place of its
    first copy among the lines added, its count, and whether it keeps its
    bytes; lines holds the bytes of those that do, in the same order. A line
    of at most 8 bytes keeps none under an odd multiplier (see
    HASH_MULTIPLIER): its hash gives them back."""

    hashes: np.ndarray
    firsts: np.ndarray
    counts: np.ndarray
    kept: np.ndarray
    lines: bytes

    def in_order(self, order: np.ndarray) -> bytes:
        """The bytes of the lines at an index array, one after another, each
        with its "\n". A line that keeps no bytes is its hash times the
        multiplier's inverse mod 2**64, read as 8 little-endian bytes and cut
        after its "\n", the last nonzero one."""
        kept = self.kept[order]
        values = self.hashes[order[~kept]] * np.uint64(pow(HASH_MULTIPLIER, -1, 1 << 64) if HASH_MULTIPLIER % 2 else 0)
        length = np.empty(order.size, np.int64)
        length[~kept] = _LOW_BYTES.searchsorted(values)
        within = (_LOW_BYTES[length[~kept]] & np.uint64(0x0101010101010101)).astype("<u8").view(bool)
        held, ends = _Lines.of(self.lines).gather(np.flatnonzero(self.kept).searchsorted(order[kept]))
        length[kept] = np.diff(ends, prepend=0)
        # Each kept line goes in after the bytes of the short lines before it
        # in order: its end there, less the bytes of the kept lines up to it.
        before = np.repeat(np.cumsum(length)[kept] - ends, length[kept])
        return np.insert(values.astype("<u8").view(np.uint8)[within], before, held).tobytes()


class _DistinctLines:
    """The distinct lines of the blocks added, with their counts.

    Each block is reduced to a run of its distinct lines (see _run). The
    runs wait until there are more of their lines than in the table, which
    then takes them in (see merge); the table's memory grows with the
    distinct lines, not the rows. finish merges the last runs and puts the
    lines in first-appearance order.

    Lines of at most 8 bytes are grouped with no byte compared. Longer lines
    need their bytes compared, which a dict of the lines' bytes does at a
    fraction of the cost of numpy reading them 8 bytes at a time. So a block
    whose first _SAMPLE bytes hold lines of more than 8 bytes on average is
    counted in a dict, which joins as a run before the next block grouped by
    hash and at the end.
    """

    def __init__(self) -> None:
        self._runs: list[_Run] = []  # the table, then the runs not merged into it yet
        self._tally: Counter[str] = Counter()  # the lines counted in a dict since the last run
        self.read = 0  # the lines added

    def __len__(self) -> int:
        """At least the number of distinct lines added, and after merge the
        number in the table and the dict: a line in both counts twice."""
        return sum(run.hashes.size for run in self._runs) + len(self._tally)

    def add(self, data: bytes | bytearray, end: int) -> None:
        """Count in the lines of data[:end], which is empty or ends with
        "\n"; data holds at least 7 more bytes. UnicodeDecodeError if lines
        counted in the dict are not UTF-8.
        """
        if _hashed(data, end):
            self.flush()
            block = _Lines.within(data, end)
            self.read += block.size
            return self._join(block)
        # A dict of str keys looks them up faster than one of bytes, and
        # _TALLY_BYTES of lines at a time keep their strings in cache.
        at = 0
        while at < end:
            stop = data.rfind(b"\n", at, min(at + _TALLY_BYTES, end)) + 1 or data.index(b"\n", at, end) + 1
            lines = data[at:stop - 1].decode("utf-8").split("\n")  # up to the last "\n"
            self._tally.update(lines)
            self.read += len(lines)
            at = stop

    def flush(self) -> None:
        """Take in the lines counted in the dict, in their order: they are
        the first copies among the last lines added."""
        if self._tally:
            block = _Lines.of(("\n".join(self._tally) + "\n").encode("utf-8"))
            self._join(block, np.fromiter(self._tally.values(), np.int64, len(self._tally)))
            self._tally.clear()

    def merge(self) -> int:
        """Take the runs into the table, as one run of the table's and the
        runs' lines, whose first copies come in that order; return len(self),
        now exact but for the dict."""
        if len(self._runs) > 1:
            hashes, firsts, counts, kept = (np.concatenate(column) for column in zip(*(run[:4] for run in self._runs)))
            pool = _Lines.of(b"".join(run.lines for run in self._runs))
            self._runs.clear()  # the runs are held only in the columns and pool while they merge
            self._runs.append(_run(hashes, firsts, counts, pool, kept))
        return len(self)

    def finish(self) -> tuple[bytes, np.ndarray, _HashIndex]:
        """The distinct lines in first-appearance order, how often each
        appeared, and their index by hash."""
        self.flush()
        self.merge()
        table, = self._runs
        order = np.argsort(table.firsts)
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        return table.in_order(order), table.counts[order], _HashIndex(table.hashes, rank)

    def decoded(self) -> tuple[list[str], np.ndarray]:
        """The distinct lines, decoded and without their "\n", and how often
        each appeared. UnicodeDecodeError if they are not UTF-8."""
        if not self._runs:  # every line was counted in the dict
            return list(self._tally), np.fromiter(self._tally.values(), np.int64, len(self._tally))
        lines, counts, _ = self.finish()
        return lines.decode("utf-8").split("\n")[:-1], counts

    def _join(self, block: _Lines, counts: np.ndarray | None = None) -> None:
        """Add the run of block, the last lines added, each once or with these counts."""
        self._runs.append(_run(block.hash(), np.arange(self.read - block.size, self.read), counts, block))
        if sum(run.hashes.size for run in self._runs[1:]) > self._runs[0].hashes.size:
            self.merge()


def _run(hashes: np.ndarray, firsts: np.ndarray, counts: np.ndarray | None, lines: _Lines,
         kept: np.ndarray | None = None) -> _Run:
    """The run of the distinct ones of some lines, each with its hash, the
    place of its first copy and its count (or one). kept marks the lines
    that keep their bytes, which lines holds in order; without kept, lines
    holds every line.

    Lines of unequal hashes differ. Of equal hashes, two lines that keep no
    bytes (see HASH_MULTIPLIER) are equal, one that keeps them differs from
    one that does not, and two that keep them are compared byte for byte.
    One ndarray.sort of uint64 keys groups the lines: a key is the line's
    hash with its low bits replaced by the line's index, so the lines of
    equal high hash bits come together in index order and the first of
    equal lines is the earliest. Each line of a group is compared with the
    group's first; the lines that differ are grouped again, on their own,
    until none is left.
    """
    line = np.flatnonzero(kept).searchsorted if kept is not None else lambda at: at  # where lines holds each one
    kept = np.diff(lines.starts) > 8 * (HASH_MULTIPLIER % 2) if kept is None else kept
    heads, totals, left = [], [], None  # left: the lines still to group, or None for all
    while left is None or left.size:
        keys = hashes if left is None else hashes[left]  # the first round gathers nothing
        low = (np.uint64(1) << np.uint64(keys.size.bit_length())) - np.uint64(1)
        keys = keys & ~low
        keys |= np.arange(keys.size, dtype=np.uint64)
        keys.sort()
        at = (keys & low).view(np.intp) if left is None else left[(keys & low).view(np.intp)]
        keys >>= np.uint64(keys.size.bit_length())
        head = np.append(True, keys[1:] != keys[:-1])
        del keys  # so that ours takes its memory, with no new pages to fault in
        group = np.flatnonzero(head)
        size = np.diff(group, append=at.size)
        # A line can differ from its group's first only in a group with two
        # hashes or with a line that keeps its bytes.
        ours = hashes[at]
        odd = kept[at] | np.append(False, (ours[1:] != ours[:-1]) > head[1:])
        odd = np.unique(group.searchsorted(np.flatnonzero(odd), "right") - 1)
        check = _spans(group[odd], size[odd])[0]  # the places in at of their lines
        leader = at[np.repeat(group[odd], size[odd])]
        equal = (ours[check] == hashes[leader]) & (kept[at[check]] == kept[leader])
        del ours
        pairs = np.flatnonzero(equal & kept[at[check]])
        equal[pairs] = _same_of_equal_hash(lines, line(at[check[pairs]]), lines, line(leader[pairs]))
        differ = check[~equal]
        heads.append(at[group])
        left = np.sort(at[differ])
        totals.append(size if counts is None else np.add.reduceat(counts[at], group))
        np.subtract.at(totals[-1], group.searchsorted(differ, "right") - 1, 1 if counts is None else counts[at[differ]])
    at, counts = np.concatenate(heads), np.concatenate(totals)
    if len(heads) > 1:  # two distinct lines share their high hash bits
        by_hash = np.argsort(hashes[at], kind="stable")
        at, counts = at[by_hash], counts[by_hash]
    return _Run(hashes[at], firsts[at], counts, kept[at], lines.gather(line(at[kept[at]]))[0].tobytes())


def _hashed(data: bytes | bytearray, end: int) -> bool:
    """Whether _DistinctLines groups the lines of data[:end] by hash: the
    whole lines of its first _SAMPLE bytes are at most 8 bytes long on
    average."""
    sample = data.rfind(b"\n", 0, min(end, _SAMPLE)) + 1
    return 0 < sample <= 8 * data.count(b"\n", 0, sample)


def _same_of_equal_hash(lines: _Lines, at: np.ndarray, other: _Lines, other_at: np.ndarray) -> np.ndarray:
    """Whether line at[i] has the bytes of other's line other_at[i], of lines
    with equal hashes: two lines of equal hash and length that keep no bytes
    (see HASH_MULTIPLIER) are equal, and longer lines are compared byte for
    byte."""
    length = lines.starts[at + 1] - lines.starts[at]
    equal = length == other.starts[other_at + 1] - other.starts[other_at]
    compare = np.flatnonzero(equal & (length > 8 * (HASH_MULTIPLIER % 2)))
    equal[compare] = lines.same(at[compare], other, other_at[compare])
    return equal


class _Words(DomainSampler):
    """A wordlist's distinct words in first-occurrence order, as lines, and
    an index of them by hash. A word-pair domain indexes its words with one
    of these.
    """

    def __init__(self, spec: WordList) -> None:
        data = _read_lines(spec.path)
        if not data:
            raise ValidityError(f"wordlist {spec.path} contains no words")
        self.spec = spec
        self.lines = _Lines.of(data)
        hashes = self.lines.hash()
        order = np.argsort(hashes)
        hashes = hashes[order]
        self.index = _HashIndex(hashes, order.astype(self.lines.starts.dtype))
        if self.index.shared:  # a word repeats, or two words share a hash
            distinct = _DistinctLines()
            distinct.add(data + bytes(7), len(data))
            data, _, self.index = distinct.finish()
            self.lines = _Lines.of(data)
        self.size = self.lines.size

    def decode(self, indices: np.ndarray) -> list[str]:
        return self.lines.gather(indices)[0].tobytes().decode("utf-8").split("\n")[:-1]

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
        queries = _Lines.of((joined + "\n").encode("utf-8", "surrogatepass"))
        hashes = queries.hash()
        # Sorted, the queries walk the sorted hashes in order; the results
        # then go back to label order.
        by_hash = np.argsort(hashes)
        member = np.empty(queries.size, bool)
        member[by_hash] = self.index.holds(self.lines, queries, by_hash, hashes[by_hash])
        if not member.all():
            outside.update(compress(labels, (~member).tolist()))
        return outside


class _WordPairSampler(DomainSampler):
    """Ordered pairs "first second" over one wordlist; size is the square.

    No word holds "\n" (the list is split at it) or " " (refused), so a label
    splits back into its pair at its one space.
    """

    def __init__(self, spec: WordPairs, words: _Words) -> None:
        space = re.search(b" ", words.lines.buffer)  # in place: no array the size of the wordlist
        if space:
            spaced = words.decode(words.lines.starts.searchsorted([space.start()], "right") - 1)[0]
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
            and not any(map(data.__contains__, _ASCII_BLANKS.encode())):
        return data if data.endswith(b"\n") else data + b"\n"
    # Newlines are universal, as when the file is read as text, so "\r\n"
    # and "\r" end lines; split on "\n" only (str.splitlines would also split
    # on "\x0c", "\x85" and "\u2028").
    text = data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    return "".join(f"{word}\n" for word in map(str.strip, text.split("\n")) if word).encode("utf-8")


def _spans(at: np.ndarray, length: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The integers [at[i], at[i] + length[i]) one after another, and where
    each run of them ends there."""
    end = np.cumsum(length)
    spans = np.repeat(at + length - end, length)
    spans += np.arange(spans.size)
    return spans, end


def _by_words(length: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """The lines of these lengths grouped by their number of 8-byte words:
    each number, with the indices of its lines."""
    words = (length + 7) // 8
    if words.size and words.min() == words.max():
        yield int(words[0]), np.arange(words.size)
        return
    order = np.argsort(words, kind="stable")
    for lines in np.split(order, np.flatnonzero(np.diff(words[order])) + 1):
        if lines.size:
            yield int(words[lines[0]]), lines


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
