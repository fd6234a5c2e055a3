"""Shared fixtures: a census-style demo CSV and a large word list.

The CSV reproduces the public marginal counts of three categorical columns of
the classic 32561-row census extract, with cells carrying the original
leading-space quirk so ingestion has something real to trim.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

SEX_COUNTS = {
    "Male": 21790,
    "Female": 10771,
}

WORKCLASS_COUNTS = {
    "Private": 22696,
    "Self-emp-not-inc": 2541,
    "Local-gov": 2093,
    "?": 1836,
    "State-gov": 1298,
    "Self-emp-inc": 1116,
    "Federal-gov": 960,
    "Without-pay": 14,
    "Never-worked": 7,
}

MARITAL_COUNTS = {
    "Married-civ-spouse": 14976,
    "Never-married": 10683,
    "Divorced": 4443,
    "Separated": 1025,
    "Widowed": 993,
    "Married-spouse-absent": 418,
    "Married-AF-spouse": 23,
}

TOTAL_ROWS = 32561

WORDLIST_SIZE = 171_000


def _column(counts: dict[str, int], seed: int) -> list[str]:
    values: list[str] = []
    for label, k in counts.items():
        values.extend([label] * k)
    assert len(values) == TOTAL_ROWS
    rng = np.random.default_rng(seed)
    rng.shuffle(values)
    return values


CENSUS_COLUMNS = {
    "sex": (SEX_COUNTS, 11),
    "workclass": (WORKCLASS_COUNTS, 12),
    "marital-status": (MARITAL_COUNTS, 13),
}


def write_census(path, relabel=None) -> str:
    """Write the census CSV to path. relabel maps a column name to new names
    for some of its labels; a renamed label keeps its count and its rows."""
    relabel = relabel or {}
    columns = []
    for name, (counts, seed) in CENSUS_COLUMNS.items():
        names = relabel.get(name, {})
        columns.append(_column({names.get(label, label): k for label, k in counts.items()}, seed))
    lines = [",".join(CENSUS_COLUMNS), *map(", ".join, zip(*columns))]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


@pytest.fixture(scope="session")
def census_csv(tmp_path_factory) -> str:
    return write_census(tmp_path_factory.mktemp("data") / "census.csv")


def make_words(size: int) -> list[str]:
    """Deterministic distinct lowercase words, preceded by two real labels."""
    words = ["Male", "Female"]
    consonants = "bcdfghjklmnpqrstvwxz"
    vowels = "aeiou"
    syllables = [c + v for c in consonants for v in vowels]
    stream = ("".join(t) for t in itertools.product(syllables, repeat=3))
    words.extend(itertools.islice(stream, size - 2))
    assert len(set(words)) == size
    return words


@pytest.fixture(scope="session")
def wordlist_path(tmp_path_factory) -> str:
    path = tmp_path_factory.mktemp("data") / "words.txt"
    path.write_text("\n".join(make_words(WORDLIST_SIZE)) + "\n", encoding="utf-8")
    return str(path)


@pytest.fixture(scope="session")
def small_wordlist_path(tmp_path_factory) -> str:
    path = tmp_path_factory.mktemp("data") / "words-small.txt"
    path.write_text("\n".join(make_words(100)) + "\n", encoding="utf-8")
    return str(path)
