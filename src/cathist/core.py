"""Core value types: histograms, privacy parameters, domain descriptions.

Categories are plain strings compared byte-for-byte; "Male" and "male" are
distinct. All types here are immutable and validate their invariants on
construction.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Union


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


@dataclass(frozen=True)
class Histogram:
    """Ordered mapping from category label to a non-negative real count.

    Bin order is preserved exactly as given; duplicate labels are rejected.
    A zero-count bin is allowed but is not part of the active domain.
    """

    bins: tuple[tuple[str, float], ...]

    def __init__(self, bins: Iterable[tuple[str, float]] = ()) -> None:
        normalized = []
        seen = set()
        for label, count in bins:
            _check_label(label)
            count = float(count)
            if not math.isfinite(count) or count < 0:
                raise ValidityError(f"count for {label!r} must be finite and >= 0, got {count}")
            if label in seen:
                raise ValidityError(f"duplicate category {label!r}")
            seen.add(label)
            normalized.append((label, count))
        object.__setattr__(self, "bins", tuple(normalized))

    @classmethod
    def from_counts(cls, counts: Iterable[tuple[str, float]] | dict[str, float]) -> "Histogram":
        items = counts.items() if isinstance(counts, dict) else counts
        return cls(items)

    def items(self) -> Iterator[tuple[str, float]]:
        return iter(self.bins)

    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.bins)

    def count(self, label: str, default: float = 0.0) -> float:
        for lab, cnt in self.bins:
            if lab == label:
                return cnt
        return default

    @property
    def total(self) -> float:
        return sum(count for _, count in self.bins)

    def active_domain(self) -> frozenset[str]:
        """Categories with strictly positive count.

        Built on the first call and shared by every later one: a release, its
        summary and its fidelity score all read the same set.
        """
        return self._active

    @functools.cached_property
    def _active(self) -> frozenset[str]:
        return frozenset(label for label, count in self.bins if count > 0)

    def __len__(self) -> int:
        return len(self.bins)


class Origin(enum.Enum):
    """Whether a released bin came from the input data or from domain noise."""

    ACTIVE = "active"
    INJECTED = "injected"


@dataclass(frozen=True)
class NoisyBin:
    label: str
    count: float
    origin: Origin

    def __post_init__(self) -> None:
        object.__setattr__(self, "count", float(self.count))


@dataclass(frozen=True)
class NoisyHistogram:
    """A privatized release: surviving active bins followed by injected bins.

    Every count is strictly positive; every bin either survived the threshold
    or was injected above it.
    """

    bins: tuple[NoisyBin, ...]

    def __init__(self, bins: Iterable[NoisyBin] = ()) -> None:
        normalized = []
        seen = set()
        for b in bins:
            _check_label(b.label)
            if not math.isfinite(b.count) or b.count <= 0:
                raise ValidityError(f"noisy count for {b.label!r} must be finite and > 0, got {b.count}")
            if not isinstance(b.origin, Origin):
                raise ValidityError(f"origin for {b.label!r} must be an Origin")
            if b.label in seen:
                raise ValidityError(f"duplicate category {b.label!r}")
            seen.add(b.label)
            normalized.append(b)
        object.__setattr__(self, "bins", tuple(normalized))

    def items(self) -> Iterator[tuple[str, float]]:
        return ((b.label, b.count) for b in self.bins)

    def labels(self) -> tuple[str, ...]:
        return tuple(b.label for b in self.bins)

    def active_bins(self) -> tuple[NoisyBin, ...]:
        return tuple(b for b in self.bins if b.origin is Origin.ACTIVE)

    def injected_bins(self) -> tuple[NoisyBin, ...]:
        return tuple(b for b in self.bins if b.origin is Origin.INJECTED)

    @property
    def total(self) -> float:
        return sum(b.count for b in self.bins)

    def __len__(self) -> int:
        return len(self.bins)


def normalize(h: Histogram | NoisyHistogram) -> dict[str, float]:
    """Return the histogram as a probability distribution over its own support.

    Raises ValidityError on an empty distribution (no bins or zero total) and
    on a total that overflows, which would make every share 0.
    """
    items = list(h.items())
    total = sum(count for _, count in items)
    if total <= 0:
        raise ValidityError("empty distribution: nothing to normalize")
    if not math.isfinite(total):
        raise ValidityError(f"distribution total is not finite: {total}")
    return {label: count / total for label, count in items}


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

    Size is the square of the wordlist size.
    """

    path: Path

    def __init__(self, path: str | Path) -> None:
        object.__setattr__(self, "path", Path(path))


@dataclass(frozen=True)
class SizeOnly:
    """Abstract domain of a given size with generated labels "<prefix>-<i>".

    Lets experiments declare a domain cardinality without a real vocabulary.
    """

    size: int
    prefix: str = "cat"

    def __post_init__(self) -> None:
        if not (isinstance(self.size, int) and self.size >= 1):
            raise ValidityError(f"domain size must be an integer >= 1, got {self.size!r}")
        _check_label(self.prefix)


DomainSpec = Union[ExplicitList, WordList, WordPairs, SizeOnly]
