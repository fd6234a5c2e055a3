"""Reading raw categorical columns and serializing histograms.

Raw data comes in as one delimited column (file or stdin); histograms go out
as CSV (header ``category,count,origin``) or JSON (``bins`` array plus a
``meta`` block). Numeric serialization uses full round-trip precision so that
write -> read reproduces counts exactly.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import stat
import sys
import warnings
from collections import Counter
from dataclasses import dataclass
from itertools import chain, repeat, takewhile, tee
from operator import itemgetter
from pathlib import Path
from typing import IO, Any, Iterable, Iterator

import numpy as np

from .core import Histogram, IngestError, NoisyBin, NoisyHistogram, Origin, ValidityError

CSV_HEADER = ("category", "count", "origin")

# Characters read per block when checking a CSV source for NUL and bad bytes.
_BLOCK_CHARS = 1 << 16
# The line count pays off only when whole lines repeat. It gives up, for the
# row reader, as soon as more than this share of the lines read are distinct
# (a row id beside the column makes every line distinct): it would then parse
# almost as many lines and hold every distinct line on top of every cell.
_MAX_DISTINCT_SHARE = 0.5
# ... counted only past this many distinct lines, since a column's first lines
# are mostly first appearances even where the whole column repeats a lot.
_MIN_DISTINCT_LINES = 1 << 15


@dataclass(frozen=True)
class ColumnSelector:
    """Which column of which delimited source to read.

    source "-" means stdin. column is a header name or a 0-based index;
    selecting by name requires a header row.
    """

    source: str | Path
    column: str | int
    has_header: bool = True
    delimiter: str = ","

    def __post_init__(self) -> None:
        if isinstance(self.column, str) and not self.has_header:
            raise ValueError("selecting a column by name requires a header row")
        if len(self.delimiter) != 1:
            raise ValueError(f"delimiter must be a single character, got {self.delimiter!r}")


@contextlib.contextmanager
def _open_source(source: str | Path) -> Iterator[IO[str]]:
    """The source ("-" for stdin) as UTF-8 text, invalid bytes kept as escapes.

    _csv_reader rejects the escapes with their line number.
    """
    if source != "-":
        with open(source, encoding="utf-8", errors="surrogateescape", newline="") as fh:
            yield fh
    elif not hasattr(sys.stdin, "buffer"):  # a text stream with no bytes under it
        yield sys.stdin
    else:
        fh = io.TextIOWrapper(sys.stdin.buffer, encoding="utf-8", errors="surrogateescape", newline="")
        try:
            yield fh
        finally:
            fh.detach()  # leaves sys.stdin open


def read_histogram(selector: ColumnSelector, drop_values: frozenset[str] = frozenset()) -> Histogram:
    """Count the selected column into a histogram.

    Cells are trimmed; empty cells are skipped (one warning reports how
    many); values in drop_values are skipped silently. Bin order is first
    appearance.

    A regular file is counted by distinct line when every line is one whole
    record and whole lines repeat (see _count_lines); any other input, and
    any input the line count gives up on, is read row by row. Both give the
    same histogram and the same errors.
    """
    with _open_source(selector.source) as fh:
        regular = selector.source != "-" and stat.S_ISREG(os.fstat(fh.fileno()).st_mode)
        merged = _count_lines(fh, selector, drop_values) if regular else None
        if merged is None:
            if regular:
                fh.seek(0)
            merged = _merge(_count_rows(fh, selector), drop_values)
    counts, skipped_empty = merged
    if skipped_empty:
        warnings.warn(f"{selector.source}: skipped {skipped_empty} empty cells", stacklevel=2)
    # Labels are distinct non-empty cells and counts whole numbers >= 1.
    return Histogram._of(tuple(counts), np.fromiter(counts.values(), float, len(counts)))


def _merge(cells: Iterable[tuple[str, int]], drop_values: frozenset[str]) -> tuple[dict[str, int], int]:
    """Counts per trimmed cell, without drop_values, and the empty cells skipped.

    cells are (raw cell, count) pairs, each raw cell or line once, in
    first-appearance order. The first raw variant of a trimmed cell is its
    first appearance, so order is kept.
    """
    counts: dict[str, int] = {}
    skipped_empty = 0
    for raw_cell, n in cells:
        cell = raw_cell.strip()
        if cell == "":
            skipped_empty += n
        elif cell not in drop_values:
            counts[cell] = counts.get(cell, 0) + n
    return counts, skipped_empty


def _count_rows(fh: IO[str], selector: ColumnSelector) -> Iterable[tuple[str, int]]:
    """(raw cell, count) pairs from every parsed row."""
    with _csv_reader(fh, selector.source, selector.delimiter) as reader:
        index = _resolve_column(reader, selector)
        # Raw cells are counted in C. The second tee branch trails the first
        # by one row, so it still holds the row that was too short.
        rows, trailing = tee(filter(None, reader))
        try:
            raw = Counter(map(itemgetter(0), zip(map(itemgetter(index), rows), trailing)))
        except IndexError:
            raise IngestError(
                f"{selector.source}: line {reader.line_num}: expected at least "
                f"{index + 1} fields, got {len(next(trailing))}"
            ) from None
    return raw.items()


def _count_lines(
    fh: IO[str], selector: ColumnSelector, drop_values: frozenset[str]
) -> tuple[dict[str, int], int] | None:
    """_merge over each distinct line, counted whole and parsed once.

    That is valid while every line is one whole record: with no quote, no
    NUL and no invalid byte, csv.reader ends a record at every line end.
    Returns None, for the caller to read row by row and word any error with
    its line number, on any such character, a header problem, a short row
    or a csv.Error; and also once too many of the lines read are distinct
    (see _MAX_DISTINCT_SHARE).
    """
    header = fh.readline() if selector.has_header else ""
    if _unsafe(header):
        return None
    try:
        index = _resolve_column(csv.reader([header], delimiter=selector.delimiter), selector)
    except (IngestError, csv.Error):
        return None
    lines: Counter[str] = Counter()
    read = 0
    while block := fh.readlines(_BLOCK_CHARS):
        if _unsafe("".join(block)):
            return None
        lines.update(block)
        read += len(block)
        if len(lines) > max(_MIN_DISTINCT_LINES, _MAX_DISTINCT_SHARE * read):
            return None
    for blank in ("\n", "\r\n", "\r"):  # the only lines that parse to no fields
        lines.pop(blank, None)
    rows = csv.reader(lines, delimiter=selector.delimiter)
    try:
        return _merge(zip(map(itemgetter(index), rows), lines.values()), drop_values)
    except (IndexError, csv.Error):
        return None


def _unsafe(text: str) -> bool:
    """Whether text holds a character that can make a line other than one record."""
    return '"' in text or _line_fault(text) is not None


class _BadLine(Exception):
    """The next line cannot be CSV input; the message says why."""


def _line_fault(text: str) -> str | None:
    """Why text holds no valid CSV line, or None.

    The csv module accepts NUL from Python 3.11 on, and _open_source decodes
    invalid UTF-8 bytes to escapes instead of raising.
    """
    if "\x00" in text:
        return "line contains NUL"
    if not text.isascii():
        try:
            text.encode("utf-8")
        except UnicodeEncodeError as exc:  # an escape: U+DC80..U+DCFF holds the byte
            return f"invalid UTF-8 byte 0x{ord(text[exc.start]) & 0xFF:02x}"
    return None


@contextlib.contextmanager
def _csv_reader(fh: IO[str], source: str | Path, delimiter: str = ",") -> Iterator[Any]:
    """A csv.reader over fh; a malformed line read inside the block is IngestError.

    csv.Error (an oversized field, a bad quote), a NUL and an invalid UTF-8
    byte anywhere in a line all give "<source>: malformed CSV at line N", N
    counted as the reader's line_num. NUL and bad bytes are looked for one
    block of lines at a time, which keeps the check off the per-row path.
    """

    def blocks() -> Iterator[list[str]]:
        while block := fh.readlines(_BLOCK_CHARS):
            if _line_fault("".join(block)):
                # Stop before the first bad line; the reader asks for it next.
                good = list(takewhile(lambda line: _line_fault(line) is None, block))
                yield good
                raise _BadLine(_line_fault(block[len(good)]))
            yield block

    reader = csv.reader(chain.from_iterable(blocks()), delimiter=delimiter)
    try:
        yield reader
    except _BadLine as bad:
        raise IngestError(f"{source}: malformed CSV at line {reader.line_num + 1}: {bad}") from None
    except csv.Error as exc:
        raise IngestError(f"{source}: malformed CSV at line {reader.line_num}: {exc}") from exc


def _resolve_column(rows: Iterator[list[str]], selector: ColumnSelector) -> int:
    if not selector.has_header:
        index = selector.column
        assert isinstance(index, int)
        if index < 0:
            raise IngestError(f"column index must be >= 0, got {index}")
        return index
    try:
        header = next(rows)
    except StopIteration:
        raise IngestError(f"{selector.source}: empty input, no header row") from None
    names = [name.strip() for name in header]
    if isinstance(selector.column, int):
        if not 0 <= selector.column < len(names):
            raise IngestError(
                f"{selector.source}: column index {selector.column} out of range; "
                f"available columns: {names}"
            )
        return selector.column
    try:
        return names.index(selector.column)
    except ValueError:
        raise IngestError(
            f"{selector.source}: no column named {selector.column!r}; available columns: {names}"
        ) from None


def _format_count(count: float) -> str:
    return repr(float(count))


def _infer_format(path: str | Path, fmt: str | None) -> str:
    if fmt is not None:
        if fmt not in ("csv", "json"):
            raise ValueError(f"format must be 'csv' or 'json', got {fmt!r}")
        return fmt
    return "json" if str(path).endswith(".json") else "csv"


def write_histogram(
    h: Histogram | NoisyHistogram,
    path: str | Path,
    fmt: str | None = None,
    meta: dict[str, Any] | None = None,
) -> None:
    """Serialize a histogram; format inferred from the path suffix unless given.

    meta (epsilon, rho, n, tau, seed for noisy releases) is recorded in JSON
    output only; CSV carries just the bins.
    """
    fmt = _infer_format(path, fmt)
    out = sys.stdout if path == "-" else open(path, "w", encoding="utf-8", newline="")
    try:
        if fmt == "csv":
            writer = csv.writer(out, lineterminator="\n")
            writer.writerow(CSV_HEADER)
            for label, count, origin in _rows(h):
                writer.writerow((label, _format_count(count), origin))
        else:
            payload: dict[str, Any] = {
                "bins": [
                    {"label": label, "count": float(count), "origin": origin or None}
                    for label, count, origin in _rows(h)
                ],
                "meta": meta or {},
            }
            json.dump(payload, out, ensure_ascii=False, indent=2)
            out.write("\n")
    finally:
        if out is not sys.stdout:
            out.close()


def _rows(h: Histogram | NoisyHistogram) -> Iterable[tuple[str, float, str]]:
    if isinstance(h, NoisyHistogram):
        origins = map((Origin.ACTIVE.value, Origin.INJECTED.value).__getitem__, h.injected)
        return zip(h.labels(), h.counts.tolist(), origins)
    return zip(h.labels(), h.counts.tolist(), repeat(""))


def load_histogram(path: str | Path, fmt: str | None = None) -> Histogram | NoisyHistogram:
    """Read a histogram written by write_histogram.

    Returns a NoisyHistogram when origins are present, a plain Histogram
    otherwise. An empty release has no bin to carry an origin, so it
    reloads as an empty Histogram.
    """
    fmt = _infer_format(path, fmt)
    if fmt == "json":
        with open(path, encoding="utf-8") as fh:
            try:
                payload = json.load(fh)
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise IngestError(f"{path}: invalid JSON: {exc}") from exc
        bins = payload.get("bins") if isinstance(payload, dict) else None
        if not isinstance(bins, list):
            raise IngestError(f"{path}: expected a JSON object with a 'bins' array")
        triples = []
        for i, b in enumerate(bins):
            try:
                label, count, origin = b["label"], b["count"], b.get("origin")
                if type(count) not in (int, float):  # float() takes true and strings
                    raise ValueError(f"count must be a number, got {count!r}")
                if not (origin is None or isinstance(origin, str)):
                    raise ValueError(f"origin must be a string or null, got {origin!r}")
                triples.append((label, float(count), origin or ""))
            except (TypeError, KeyError, ValueError, OverflowError) as exc:
                raise IngestError(f"{path}: bad bin at index {i}: {exc}") from exc
        return _assemble(path, triples)

    with open(path, encoding="utf-8", errors="surrogateescape", newline="") as fh, _csv_reader(fh, path) as reader:
        try:
            header = next(reader)
        except StopIteration:
            raise IngestError(f"{path}: empty histogram file") from None
        if tuple(header) != CSV_HEADER:
            raise IngestError(f"{path}: expected header {','.join(CSV_HEADER)}, got {header}")
        triples = []
        for row in reader:
            if not row:
                continue
            if len(row) != 3:
                raise IngestError(f"{path}: line {reader.line_num}: expected 3 fields, got {len(row)}")
            try:
                count = float(row[1])
            except ValueError:
                raise IngestError(f"{path}: line {reader.line_num}: bad count {row[1]!r}") from None
            triples.append((row[0], count, row[2]))
    return _assemble(path, triples)


def _assemble(path: str | Path, triples: list[tuple[str, float, str]]) -> Histogram | NoisyHistogram:
    origins = {origin for _, _, origin in triples}
    try:
        if origins <= {""}:
            return Histogram((label, count) for label, count, _ in triples)
        if "" in origins:
            raise IngestError(f"{path}: mixed blank and non-blank origins")
        return NoisyHistogram(NoisyBin(label, count, Origin(origin)) for label, count, origin in triples)
    except (ValueError, ValidityError) as exc:
        raise IngestError(f"{path}: {exc}") from None
