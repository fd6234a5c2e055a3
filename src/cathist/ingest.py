"""Reading raw categorical columns and serializing histograms.

Raw data comes in as one delimited column (file or stdin); histograms go out
as CSV (header ``category,count,origin``) or JSON (``bins`` array plus a
``meta`` block). Numeric serialization uses full round-trip precision so that
write -> read reproduces counts exactly.

A regular file is counted by distinct line, as bytes: it is read in blocks
of whole lines into one buffer, and a table of distinct lines
(domain._DistinctLines) counts each block's lines whole, comparing them byte
for byte. When the column is the first and no line holds the delimiter or a
CR, each distinct line is one cell and no csv parse runs; a delimiter or a
CR sends the distinct lines through csv.reader once each. A quote, NUL,
invalid UTF-8, a lone CR inside a line, an oversized field, a short row, a
header problem or mostly distinct lines send the file to the row reader, as
does any source that is not a regular file.
"""

from __future__ import annotations

import codecs
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
from json.encoder import encode_basestring
from operator import itemgetter
from pathlib import Path
from typing import IO, Any, BinaryIO, Collection, Iterable, Iterator

import numpy as np

from .core import Histogram, IngestError, NoisyHistogram, Origin, ValidityError, _checked
from .domain import _TALLY_BYTES, _DistinctLines, _hashed

CSV_HEADER = ("category", "count", "origin")
_ORIGINS = {origin.value for origin in Origin}

# Bytes read per block by the line count once it groups lines by hash: about
# 2**16 lines of a wordlist column's 7 or 8 bytes, whose per-line arrays stay
# a few MB. The count's memory grows with the distinct lines, not the rows.
_BLOCK_BYTES = 1 << 19
# Characters read per block by the row reader when checking a CSV source for
# NUL and bad bytes.
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

    _csv_reader rejects the escapes with their line number. A leading UTF-8
    byte-order mark, which spreadsheet exports write, is skipped, also after
    seek(0); one anywhere else stays in the text.
    """
    if source != "-":
        with open(source, encoding="utf-8-sig", errors="surrogateescape", newline="") as fh:
            yield fh
    elif not hasattr(sys.stdin, "buffer"):  # a text stream with no bytes under it
        yield sys.stdin
    else:
        fh = io.TextIOWrapper(sys.stdin.buffer, encoding="utf-8-sig", errors="surrogateescape", newline="")
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
        merged = _count_lines(fh.buffer, selector, drop_values) if regular else None
        if merged is None:
            if regular:
                fh.seek(0)
            raw = _count_rows(fh, selector)
            merged = _merge(raw.keys(), raw.values(), drop_values)
    counts, skipped_empty = merged
    if skipped_empty:
        warnings.warn(f"{selector.source}: skipped {skipped_empty} empty cells", stacklevel=2)
    # Labels are distinct non-empty cells and counts whole numbers >= 1.
    return Histogram._of(tuple(counts), np.fromiter(counts.values(), float, len(counts)))


def _merge(
    raw_cells: Collection[str], counts: Collection[int], drop_values: frozenset[str]
) -> tuple[dict[str, int], int]:
    """Counts per trimmed cell, without drop_values, and the empty cells skipped.

    raw_cells are raw cells or lines, each once, in first-appearance order,
    and counts their counts. The first raw variant of a trimmed cell is its
    first appearance, so order is kept.
    """
    counted = dict(zip(map(str.strip, raw_cells), counts))  # built in C
    if len(counted) < len(raw_cells):
        # Two raw cells trim to one cell: add up their counts.
        counted = {}
        for cell, n in zip(map(str.strip, raw_cells), counts):
            counted[cell] = counted.get(cell, 0) + n
    skipped_empty = counted.pop("", 0)
    for value in drop_values:
        counted.pop(value, None)
    return counted, skipped_empty


def _count_rows(fh: IO[str], selector: ColumnSelector) -> Counter[str]:
    """The count of each raw cell over every parsed row."""
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
    return raw


def _count_lines(
    fh: BinaryIO, selector: ColumnSelector, drop_values: frozenset[str]
) -> tuple[dict[str, int], int] | None:
    """_merge over each distinct line, counted whole and parsed at most once.

    The bytes are read in blocks of whole lines (see _line_blocks), and one
    table keeps the distinct lines read so far with their counts, compared
    byte for byte (domain._DistinctLines). That is valid while every line is
    one whole record: with no quote, no NUL and no invalid UTF-8, csv.reader
    ends a record at every line end. When the column is the first and no
    line holds the delimiter or a CR, each line is one field, so the
    distinct lines go to _merge with no csv parse.
    Returns None, for the caller to read row by row and word any error with
    its line number, on any such character, a header problem, a short row
    or a csv.Error (a lone CR inside a line is one); and also once too many
    of the lines read are distinct (see _MAX_DISTINCT_SHARE).
    """
    if fh.read(len(codecs.BOM_UTF8)) != codecs.BOM_UTF8:
        fh.seek(0)
    header = fh.readline() if selector.has_header else b""
    cr = header.find(b"\r")
    if cr >= 0 and header[cr + 1:cr + 2] != b"\n":  # a lone CR ends the header, as for the row reader
        fh.seek(cr + 1 - len(header), os.SEEK_CUR)
        header = header[:cr + 1]
    if _unsafe(header, len(header)):
        return None
    try:
        index = _resolve_column(csv.reader([header.decode("utf-8")], delimiter=selector.delimiter), selector)
    except (UnicodeDecodeError, IngestError, csv.Error):
        return None
    distinct = _distinct_lines(fh)
    if distinct is None:
        return None
    lines, counts = distinct
    joined = "".join(lines)  # one search each for the delimiter and a CR
    one_field = index == 0 and selector.delimiter not in joined and "\r" not in joined
    for blank in ("", "\r"):  # the only lines that parse to no fields
        if blank in lines:
            at = lines.index(blank)
            del lines[at], counts[at]
    # csv.reader refuses a field past its limit; so does the row reader.
    if one_field and max(map(len, lines), default=0) <= csv.field_size_limit():
        return _merge(lines, counts, drop_values)
    try:
        cells = list(map(itemgetter(index), csv.reader(lines, delimiter=selector.delimiter)))
    except (IndexError, csv.Error):
        return None
    return _merge(cells, counts, drop_values)


def _distinct_lines(fh: BinaryIO) -> tuple[list[str], list[int]] | None:
    """The rest of fh's distinct lines, without their "\n", in first-appearance
    order, and the count of each; None on a quote, a NUL, invalid UTF-8 or
    too many distinct lines."""
    distinct = _DistinctLines()
    read = 0
    try:
        for block, end in _line_blocks(fh):
            if _unsafe(block, end):
                return None
            read += distinct.add(block, end)
            if len(distinct) > max(_MIN_DISTINCT_LINES, _MAX_DISTINCT_SHARE * read):
                return None
        return distinct.decoded()
    except UnicodeDecodeError:
        return None


def _line_blocks(fh: BinaryIO) -> Iterator[tuple[bytearray, int]]:
    """The rest of fh in blocks of whole lines, each line ended by "\n": a
    block is buffer[:end], and buffer holds at least 7 bytes more.

    Each block is read into the same buffer, so it holds until the next is
    read, after the unfinished last line of the read before. The buffer
    starts at _TALLY_BYTES, the bytes a dict counts at once (or at
    _BLOCK_BYTES if that is less), and grows to _BLOCK_BYTES after a block
    grouped by hash, whose cost is mostly per block. A line longer than the
    buffer doubles it. The file's last line gets its "\n".
    """
    buffer = bytearray(min(_TALLY_BYTES, _BLOCK_BYTES) + 8)
    held = 0  # bytes of the unfinished line at the buffer's start
    while read := fh.readinto(memoryview(buffer)[held:len(buffer) - 8]):
        held += read
        end = buffer.rfind(b"\n", 0, held) + 1
        if end:
            yield buffer, end
            grow = len(buffer) - 8 < _BLOCK_BYTES and _hashed(buffer, end)
            buffer[:held - end] = buffer[end:held]
            held -= end
            if grow:
                buffer = buffer[:held] + bytes(_BLOCK_BYTES + 8 - held)
        elif held == len(buffer) - 8:
            buffer = buffer[:held] + bytes(len(buffer))
    if held:
        buffer[held] = ord("\n")
        yield buffer, held + 1


def _unsafe(data: bytes | bytearray, end: int) -> bool:
    """Whether data[:end] holds a byte that can make a line other than one
    record: a quote, or a NUL."""
    return data.find(b'"', 0, end) >= 0 or data.find(b"\0", 0, end) >= 0


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
            writer.writerows((label, repr(count), origin) for label, count, origin in _rows(h))
        else:
            # The bytes json.dump(payload, out, ensure_ascii=False, indent=2)
            # writes, built bin by bin in C: indent would force json's
            # pure-Python encoder. Counts are finite floats, which json
            # writes as repr does.
            bins = ",\n".join([
                f'    {{\n      "label": {encode_basestring(label)},\n      "count": {count!r},\n'
                f'      "origin": {encode_basestring(origin) if origin else "null"}\n    }}'
                for label, count, origin in _rows(h)
            ])
            meta_text = json.dumps(meta or {}, ensure_ascii=False, indent=2).replace("\n", "\n  ")
            if bins:
                bins = f"\n{bins}\n  "
            out.write(f'{{\n  "bins": [{bins}],\n  "meta": {meta_text}\n}}\n')
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
    reloads as an empty Histogram. A leading UTF-8 byte-order mark, which an
    editor may add on saving, is skipped.
    """
    fmt = _infer_format(path, fmt)
    if fmt == "json":
        with open(path, encoding="utf-8-sig") as fh:
            try:
                payload = json.load(fh)
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise IngestError(f"{path}: invalid JSON: {exc}") from exc
        bins = payload.get("bins") if isinstance(payload, dict) else None
        if not isinstance(bins, list):
            raise IngestError(f"{path}: expected a JSON object with a 'bins' array")
        try:
            labels = [b["label"] for b in bins]
            counts = [b["count"] for b in bins]
            origins = [b.get("origin") for b in bins]
            if not (set(map(type, counts)) <= {int, float} and set(map(type, origins)) <= {str, type(None)}):
                raise TypeError("a count or an origin of the wrong type")
            counts = list(map(float, counts))
        except (TypeError, KeyError, OverflowError):
            _check_bins(path, bins)  # raises, naming the first bad bin
            raise
        return _assemble(path, labels, counts, [origin or "" for origin in origins])

    with open(path, encoding="utf-8-sig", errors="surrogateescape", newline="") as fh, _csv_reader(fh, path) as reader:
        try:
            header = next(reader)
        except StopIteration:
            raise IngestError(f"{path}: empty histogram file") from None
        if tuple(header) != CSV_HEADER:
            raise IngestError(f"{path}: expected header {','.join(CSV_HEADER)}, got {header}")
        labels, counts, origins = [], [], []
        for row in reader:
            if not row:
                continue
            if len(row) != 3:
                raise IngestError(f"{path}: line {reader.line_num}: expected 3 fields, got {len(row)}")
            try:
                counts.append(float(row[1]))
            except ValueError:
                raise IngestError(f"{path}: line {reader.line_num}: bad count {row[1]!r}") from None
            labels.append(row[0])
            origins.append(row[2])
    return _assemble(path, labels, counts, origins)


def _check_bins(path: str | Path, bins: list) -> None:
    """Raise the error naming the first JSON bin that is not a label, a
    number and an optional origin string."""
    for i, b in enumerate(bins):
        try:
            _, count, origin = b["label"], b["count"], b.get("origin")
            if type(count) not in (int, float):  # float() takes true and strings
                raise ValueError(f"count must be a number, got {count!r}")
            if not (origin is None or isinstance(origin, str)):
                raise ValueError(f"origin must be a string or null, got {origin!r}")
            float(count)
        except (TypeError, KeyError, ValueError, OverflowError) as exc:
            raise IngestError(f"{path}: bad bin at index {i}: {exc}") from exc


def _assemble(path: str | Path, labels: list, counts: list[float], origins: list[str]) -> Histogram | NoisyHistogram:
    """The histogram of these columns, checked in one pass; origins are all
    blank for a plain histogram."""
    kinds = set(origins)
    labels = tuple(labels)
    try:
        if kinds <= {""}:
            return Histogram._of(labels, _checked(labels, counts, positive=False))
        if "" in kinds:
            raise IngestError(f"{path}: mixed blank and non-blank origins")
        if not kinds <= _ORIGINS:
            Origin(next(origin for origin in origins if origin not in _ORIGINS))  # raises, naming it
        injected = tuple(map(Origin.INJECTED.value.__eq__, origins))
        return NoisyHistogram._of(labels, _checked(labels, counts, positive=True), injected)
    except (ValueError, ValidityError) as exc:
        raise IngestError(f"{path}: {exc}") from None
