"""Uniform sampling of distinct categories from large implicit domains.

A domain is never materialized. Each sampler pairs an exact size with an
integer indexer (a bijection between [0, size) and labels), so drawing a
uniform category is drawing a uniform index. Distinctness and exclusion are
handled by rejection, which stays cheap while the number of requested
categories is far below the domain size. Candidates are drawn in rounds of
the draws still needed, one array call per round, on the same stream and
with the same labels as drawing them one at a time. Each round's indices are
decoded to labels in one step per sampler kind, and its repeated, excluded
and already chosen labels are dropped with dict and set operations, not one
label at a time. A domain with almost all of its slots excluded draws from
its absent labels instead.
"""

from __future__ import annotations

import functools
from itertools import filterfalse
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


class DomainSampler:
    """Base interface: exact size, decode/encode bijection, membership."""

    spec: DomainSpec
    size: int

    def decode(self, index: int) -> str:
        raise NotImplementedError

    def _decode_all(self, indices: np.ndarray) -> list[str]:
        """The labels of an integer array of indices, in its order."""
        raise NotImplementedError

    def encode(self, label: str) -> int:
        """Index of label, raising ValidityError when it is not in the domain."""
        raise NotImplementedError

    def contains(self, label: str) -> bool:
        try:
            self.encode(label)
        except ValidityError:
            return False
        return True

    def non_members(self, labels: frozenset[str] | set[str]) -> set[str]:
        """The labels that are not in the domain."""
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
                absent = list(filterfalse(exclude.__contains__, self._decode_all(np.arange(self.size))))
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
            fresh = dict.fromkeys(self._decode_all(rng.integers(self.size, size=want)))
            for label in exclude.intersection(fresh):
                del fresh[label]
            chosen |= fresh
        return list(chosen)

    def _require_room(self, k: int, excluded_members: int) -> None:
        if k > self.size - excluded_members:
            raise ValidityError(
                f"domain exhausted: requested {k} distinct categories from a domain of "
                f"size {self.size} with {excluded_members} excluded"
            )


class _LabelSampler(DomainSampler):
    """An explicit label list or a wordlist: the labels in order and as a set.

    The label -> index dict only encode needs is built on its first call.
    """

    def __init__(
        self, spec: ExplicitList | WordList, labels: tuple[str, ...], members: frozenset[str] | dict[str, None]
    ) -> None:
        self.spec = spec
        self._labels = labels
        self._members = members
        self.size = len(labels)

    @functools.cached_property
    def _index(self) -> dict[str, int]:
        return dict(zip(self._labels, range(self.size)))

    def decode(self, index: int) -> str:
        return self._labels[index]

    def _decode_all(self, indices: np.ndarray) -> list[str]:
        return list(map(self._labels.__getitem__, indices.tolist()))

    def encode(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise ValidityError(f"category {label!r} is not in the domain") from None

    def contains(self, label: str) -> bool:
        return label in self._members

    def non_members(self, labels: frozenset[str] | set[str]) -> set[str]:
        return labels.difference(self._members)


class _WordPairSampler(DomainSampler):
    """Ordered pairs "first second" over one wordlist; size is the square."""

    def __init__(self, spec: WordPairs, words: tuple[str, ...]) -> None:
        self.spec = spec
        self._words = words
        self._index = dict(zip(words, range(len(words))))
        self._m = len(words)
        self.size = self._m * self._m

    def decode(self, index: int) -> str:
        first, second = divmod(index, self._m)
        return f"{self._words[first]} {self._words[second]}"

    def _decode_all(self, indices: np.ndarray) -> list[str]:
        firsts, seconds = np.divmod(indices, self._m)
        words = self._words
        return [f"{words[first]} {words[second]}" for first, second in zip(firsts.tolist(), seconds.tolist())]

    def encode(self, label: str) -> int:
        parts = label.split(" ")
        if len(parts) != 2 or not all(parts):
            raise ValidityError(f"category {label!r} is not a word pair")
        try:
            return self._index[parts[0]] * self._m + self._index[parts[1]]
        except KeyError:
            raise ValidityError(f"category {label!r} is not in the word-pair domain") from None


class _SizeOnlySampler(DomainSampler):
    def __init__(self, spec: SizeOnly) -> None:
        self.spec = spec
        self.size = spec.size
        self._head = spec.prefix + "-"
        self._bound = (len(str(spec.size)), str(spec.size))

    def decode(self, index: int) -> str:
        return f"{self._head}{index}"

    def _decode_all(self, indices: np.ndarray) -> list[str]:
        head = self._head
        return [f"{head}{index}" for index in indices.tolist()]

    def encode(self, label: str) -> int:
        if not self.contains(label):
            raise ValidityError(f"category {label!r} is not in the generated domain")
        return int(label[len(self._head):])

    def contains(self, label: str) -> bool:
        # "<prefix>-" and an index below size in ASCII digits, with no leading
        # zero but in "0": such strings compare as their numbers by length,
        # then as strings.
        index = label[len(self._head):]
        return (
            label.startswith(self._head) and index.isascii() and index.isdigit()
            and (index[0] != "0" or index == "0") and (len(index), index) < self._bound
        )


def _read_words(path: Path) -> dict[str, None]:
    with open(path, encoding="utf-8") as fh:
        # Newlines are universal, so "\r\n" and "\r" arrive as "\n"; split on
        # "\n" only, as iterating the file does (str.splitlines would also
        # split on "\x0c", "\x85" and "\u2028").
        words = dict.fromkeys(filter(None, map(str.strip, fh.read().split("\n"))))
    if not words:
        raise ValidityError(f"wordlist {path} contains no words")
    return words


def load_words(path: Path) -> tuple[str, ...]:
    """Read a UTF-8 wordlist, one word per line, trimmed, blanks ignored,
    duplicates removed keeping first occurrence."""
    return tuple(_read_words(path))


def load_domain(spec: DomainSpec) -> DomainSampler:
    """Materialize a sampler for a domain description (reads wordlist files)."""
    if isinstance(spec, ExplicitList):
        return _LabelSampler(spec, spec.labels, frozenset(spec.labels))
    if isinstance(spec, WordList):
        words = _read_words(spec.path)
        return _LabelSampler(spec, tuple(words), words)
    if isinstance(spec, WordPairs):
        return _WordPairSampler(spec, load_words(spec.path))
    if isinstance(spec, SizeOnly):
        return _SizeOnlySampler(spec)
    raise TypeError(f"unknown domain spec: {spec!r}")
