"""Core value types: histograms, privacy parameters, domain descriptions.

Categories are plain strings compared byte-for-byte; "Male" and "male" are
distinct. All types here are immutable and validate their invariants on
construction.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from itertools import compress, repeat
from operator import attrgetter, is_, itemgetter
from pathlib import Path
from typing import Iterable, Iterator, Sequence, Union

import numpy as np


class CatHistError(Exception):
    """Base class for errors raised by this package."""


class ValidityError(CatHistError):
    """A parameter combination or domain constraint does not hold."""


class IngestError(CatHistError):
    """Input data could not be parsed into a histogram."""


def _check_label(label: object) -> str:
    if not isinstance(label, str):
        raise ValidityError(f"category label must be str, got {type(label).__name__}")
    if label == "":
        raise ValidityError("category label must be non-empty")
    return label


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _checked(labels: tuple, counts: Sequence[float], positive: bool, origins: tuple = ()) -> np.ndarray:
    """The check of both histogram types, bin by bin: labels are distinct
    non-empty strs, counts finite and >= 0 (> 0 if positive), and origins, if
    given, Origins. An error names the first bad bin. Returns counts as a
    read-only float64 array."""
    name, bound = ("noisy count", "> 0") if positive else ("count", ">= 0")
    seen = set()
    for label, count, origin in zip(labels, counts, origins or repeat(Origin.ACTIVE)):
        _check_label(label)
        if not (math.isfinite(count) and (count > 0 if positive else count >= 0)):
            raise ValidityError(f"{name} for {label!r} must be finite and {bound}, got {count}")
        if not isinstance(origin, Origin):
            raise ValidityError(f"origin for {label!r} must be an Origin")
        if label in seen:
            raise ValidityError(f"duplicate category {label!r}")
        seen.add(label)
    return _frozen(np.array(counts, dtype=float))


class _Columns:
    """Bins stored as columns: the labels in bin order and a read-only
    float64 counts array. bins is a view of them, built on first use."""

    _labels: tuple[str, ...]
    counts: np.ndarray
    _bins: tuple | None = None

    def labels(self) -> tuple[str, ...]:
        return self._labels

    @property
    def bins(self) -> tuple:
        if self._bins is None:
            self._bins = self._view()
        return self._bins

    def items(self) -> Iterator[tuple[str, float]]:
        return zip(self._labels, self.counts.tolist())

    def count(self, label: str, default: float = 0.0) -> float:
        i = self._index.get(label)
        return default if i is None else self.counts.item(i)

    @functools.cached_property
    def _index(self) -> dict[str, int]:
        return dict(zip(self._labels, range(len(self._labels))))

    @property
    def total(self) -> float:
        return sum(self.counts.tolist())  # in bin order, as numpy's pairwise sum is not

    def __len__(self) -> int:
        return len(self._labels)

    def __eq__(self, other: object) -> bool:
        same = type(other) is type(self) and self._labels == other._labels
        return same and np.array_equal(self.counts, other.counts)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self.bins)!r})"


class Histogram(_Columns):
    """Ordered mapping from category label to a non-negative real count.

    Bin order is preserved exactly as given; duplicate labels are rejected.
    A zero-count bin is allowed but is not part of the active domain. bins
    and items() give (label, count) pairs.
    """

    # mechanism._absent_slots' count of absent domain slots, with the sampler
    # it was checked against: (sampler, trials).
    _absent: tuple[object, int] | None = None

    def __init__(self, bins: Iterable[tuple[str, float]] = ()) -> None:
        pairs = tuple(bins)
        self._labels = tuple(map(itemgetter(0), pairs))
        self.counts = _checked(self._labels, list(map(float, map(itemgetter(1), pairs))), positive=False)

    @classmethod
    def _of(cls, labels: tuple[str, ...], counts: np.ndarray) -> "Histogram":
        """The histogram of columns known to be valid, unchecked."""
        h = cls.__new__(cls)
        h._labels, h.counts = labels, _frozen(counts)
        return h

    def _view(self) -> tuple[tuple[str, float], ...]:
        return tuple(self.items())

    def active_domain(self) -> frozenset[str]:
        """Categories with strictly positive count.

        Built on the first call and shared by every later one: a release, its
        summary and its fidelity score all read the same set.
        """
        return self._active

    @functools.cached_property
    def _active(self) -> frozenset[str]:
        return frozenset(self._positive[0])

    @functools.cached_property
    def _positive(self) -> tuple[tuple[str, ...], np.ndarray]:
        """The labels and counts of the bins with count > 0, in bin order."""
        at = np.flatnonzero(self.counts > 0)
        if at.size == len(self):
            return self._labels, self.counts
        return tuple(map(self._labels.__getitem__, at.tolist())), _frozen(self.counts[at])


class Origin(enum.Enum):
    """Whether a released bin came from the input data or from domain noise."""

    ACTIVE = "active"
    INJECTED = "injected"


@dataclass(frozen=True, init=False, slots=True)
class NoisyBin:
    label: str
    count: float
    origin: Origin

    # The generated __init__ plus a __post_init__ taking count to float, in
    # one call and with slots: a view of many bins builds many.
    def __init__(self, label: str, count: float, origin: Origin) -> None:
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "count", float(count))
        object.__setattr__(self, "origin", origin)


# A release of fewer counts than this checks them in Python, a larger one as
# one array: numpy's calls cost more than a few counts, less than many.
ARRAY_CHECK_COUNTS = 64


class NoisyHistogram(_Columns):
    """A privatized release: surviving active bins followed by injected bins.

    Every count is strictly positive; every bin either survived the threshold
    or was injected above it. Besides the columns it holds injected, one bool
    per bin; bins gives NoisyBins.
    """

    injected: tuple[bool, ...]

    def __init__(self, bins: Iterable[NoisyBin] = ()) -> None:
        self._bins = tuple(bins)
        self._labels = tuple(map(attrgetter("label"), self._bins))
        origins = tuple(map(attrgetter("origin"), self._bins))
        self.counts = _checked(self._labels, tuple(map(attrgetter("count"), self._bins)), True, origins)
        self.injected = tuple(map(is_, origins, repeat(Origin.INJECTED)))

    @classmethod
    def _release(cls, labels: tuple[str, ...], counts: np.ndarray, active: int) -> "NoisyHistogram":
        """The release of these bins, the first `active` of them active, with
        counts a float64 array it takes over. The mechanism makes labels
        distinct and non-empty; a count can overflow."""
        if counts.size < ARRAY_CHECK_COUNTS:
            values = counts.tolist()
            valid = all(map(math.isfinite, values)) and min(values, default=1.0) > 0
        else:
            valid = 0 < counts.min() and counts.max() < math.inf  # a nan fails the first
        if not valid:
            _checked(labels, counts.tolist(), positive=True)  # raises
        h = cls.__new__(cls)
        h._labels, h.counts = labels, _frozen(counts)
        h.injected = (False,) * active + (True,) * (len(labels) - active)
        return h

    def __eq__(self, other: object) -> bool:
        return super().__eq__(other) and self.injected == other.injected

    def _view(self) -> tuple[NoisyBin, ...]:
        origins = map((Origin.ACTIVE, Origin.INJECTED).__getitem__, self.injected)
        return tuple(map(NoisyBin, self._labels, self.counts.tolist(), origins))

    def active_bins(self) -> tuple[NoisyBin, ...]:
        return self._bins_where(False)

    def injected_bins(self) -> tuple[NoisyBin, ...]:
        return self._bins_where(True)

    def _bins_where(self, injected: bool) -> tuple[NoisyBin, ...]:
        if injected not in self.injected:  # and build no view
            return ()
        return tuple(compress(self.bins, map(is_, self.injected, repeat(injected))))


def shares(h: Histogram | NoisyHistogram) -> np.ndarray:
    """Each bin's share of the total, in bin order (see normalize)."""
    total = h.total
    if total <= 0:
        raise ValidityError("empty distribution: nothing to normalize")
    if not math.isfinite(total):
        raise ValidityError(f"distribution total is not finite: {total}")
    return h.counts / total


def normalize(h: Histogram | NoisyHistogram) -> dict[str, float]:
    """Return the histogram as a probability distribution over its own support.

    Raises ValidityError on an empty distribution (no bins or zero total) and
    on a total that overflows, which would make every share 0.
    """
    return dict(zip(h.labels(), shares(h).tolist()))


@dataclass(frozen=True)
class PrivacyParams:
    """Privacy budget epsilon and target zero-injection probability rho.

    The pair is only usable against a domain of size n when rho**(1/n) >= 1/2;
    that gate is checked where the threshold is computed, since n is not known
    here.
    """

    epsilon: float
    rho: float

    def __post_init__(self) -> None:
        if not (isinstance(self.epsilon, (int, float)) and math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValidityError(f"epsilon must be finite and > 0, got {self.epsilon}")
        if not (isinstance(self.rho, (int, float)) and 0 < self.rho < 1):
            raise ValidityError(f"rho must be in (0, 1), got {self.rho}")


@dataclass(frozen=True)
class ExplicitList:
    """Domain given as an explicit tuple of category labels."""

    labels: tuple[str, ...]

    def __init__(self, labels: Iterable[str]) -> None:
        normalized = tuple(labels)
        seen = set()
        for label in normalized:
            _check_label(label)
            if label in seen:
                raise ValidityError(f"duplicate domain category {label!r}")
            seen.add(label)
        if not normalized:
            raise ValidityError("explicit domain must not be empty")
        object.__setattr__(self, "labels", normalized)


@dataclass(frozen=True)
class WordList:
    """Domain of single words read from a UTF-8 file, one word per line."""

    path: Path

    def __init__(self, path: str | Path) -> None:
        object.__setattr__(self, "path", Path(path))


@dataclass(frozen=True)
class WordPairs:
    """Domain of ordered word pairs ("word word") over a wordlist file.

    Size is the square of the wordlist size. No word may hold a space.
    """

    path: Path

    def __init__(self, path: str | Path) -> None:
        object.__setattr__(self, "path", Path(path))


@dataclass(frozen=True)
class SizeOnly:
    """Abstract domain of a given size with generated labels "<prefix>-<i>".

    Lets experiments declare a domain cardinality without a real vocabulary.
    The size is at most 2**63, the largest range numpy's Generator.integers
    draws an index from.
    """

    size: int
    prefix: str = "cat"

    def __post_init__(self) -> None:
        if not (isinstance(self.size, int) and self.size >= 1):
            raise ValidityError(f"domain size must be an integer >= 1, got {self.size!r}")
        if self.size > 2**63:
            raise ValidityError(f"domain size must be at most 2**63 = {2**63}, got {self.size}")
        _check_label(self.prefix)


DomainSpec = Union[ExplicitList, WordList, WordPairs, SizeOnly]
