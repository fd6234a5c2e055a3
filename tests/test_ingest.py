import csv
import io
import json
import os
import re
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cathist.domain as domain_mod
from cathist import ingest
from cathist.core import Histogram, IngestError, NoisyBin, NoisyHistogram, Origin
from cathist.ingest import (
    CSV_HEADER,
    ColumnSelector,
    load_histogram,
    read_histogram,
    write_histogram,
)
from cathist.numerics import noisy_threshold

from conftest import SEX_COUNTS, WORKCLASS_COUNTS
from oracles import merge_per_cell, read_histogram_per_row


# Fields that make a line malformed CSV. "\udcff" is written as the single
# byte 0xff, which is not UTF-8.
MALFORMED = ["\x00", "x" * (csv.field_size_limit() + 1), "\udcff"]
MALFORMED_IDS = ["nul", "oversized", "invalid-utf8"]
WRITE_RAW = {"encoding": "utf-8", "errors": "surrogateescape"}
BLOCK = ingest._BLOCK_CHARS


def write_csv(path, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows(rows)
    return str(path)


@pytest.fixture
def rows_read(monkeypatch):
    """The sources that read_histogram hands to its row reader, in order."""
    sources = []
    count_rows = ingest._count_rows

    def spy(fh, selector):
        sources.append(selector.source)
        return count_rows(fh, selector)

    monkeypatch.setattr(ingest, "_count_rows", spy)
    return sources


class TestReadHistogram:
    def test_counts_a_small_column(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", [["sex"], ["male"], ["female"], ["male"]])
        h = read_histogram(ColumnSelector(path, "sex"))
        assert h.count("male") == 2.0
        assert h.count("female") == 1.0
        assert h.labels() == ("male", "female")

    def test_header_only_gives_empty_histogram(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", [["sex"]])
        h = read_histogram(ColumnSelector(path, "sex"))
        assert len(h) == 0

    def test_cells_are_trimmed(self, tmp_path):
        path = (tmp_path / "t.csv")
        path.write_text("sex,work\nMale, Private\n Male ,Other\n", encoding="utf-8")
        h = read_histogram(ColumnSelector(str(path), "sex"))
        assert h.count("Male") == 2.0
        work = read_histogram(ColumnSelector(str(path), "work"))
        assert work.count("Private") == 1.0

    def test_empty_cells_skipped_with_one_warning(self, tmp_path):
        path = (tmp_path / "t.csv")
        path.write_text("v\na\n\nb\n  \na\n", encoding="utf-8")
        with pytest.warns(UserWarning, match="skipped 1 empty cells"):
            h = read_histogram(ColumnSelector(str(path), "v"))
        # The fully blank line is an empty row (no cells); the "  " line is
        # one empty cell after trimming.
        assert h.count("a") == 2.0
        assert h.count("b") == 1.0

    def test_question_mark_kept_by_default(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", [["w"], ["?"], ["Private"], ["?"]])
        h = read_histogram(ColumnSelector(path, "w"))
        assert h.count("?") == 2.0

    def test_drop_values(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", [["w"], ["?"], ["Private"], ["?"]])
        h = read_histogram(ColumnSelector(path, "w"), drop_values=frozenset({"?"}))
        assert h.count("?") == 0.0
        assert h.count("Private") == 1.0

    def test_missing_named_column_lists_available(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", [["a", "b"], ["1", "2"]])
        with pytest.raises(IngestError, match=r"no column named 'c'.*\['a', 'b'\]"):
            read_histogram(ColumnSelector(path, "c"))

    def test_column_index_out_of_range_in_header(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", [["a", "b"], ["1", "2"]])
        with pytest.raises(IngestError, match="out of range"):
            read_histogram(ColumnSelector(path, 5))

    def test_short_row_reports_line_number(self, tmp_path):
        path = (tmp_path / "t.csv")
        path.write_text("a,b\n1,2\n3\n", encoding="utf-8")
        with pytest.raises(IngestError, match=re.escape(f"{path}: line 3: expected at least 2 fields, got 1")):
            read_histogram(ColumnSelector(str(path), "b"))
        # After a quoted field spanning two lines and a blank line, with two
        # of three fields: the line is the short row's last, the count its own.
        path.write_text('a,b,c\n1,"x\ny",3\n\n4,5\n6,7,8\n', encoding="utf-8")
        with pytest.raises(IngestError, match=re.escape(f"{path}: line 5: expected at least 3 fields, got 2")):
            read_histogram(ColumnSelector(str(path), "c"))
        # Far past the first block of lines.
        path.write_text("a,b\n" + "1,2\n" * 100_000 + "3\n4,5\n", encoding="utf-8")
        with pytest.raises(IngestError, match=re.escape(f"{path}: line 100002: expected at least 2 fields, got 1")):
            read_histogram(ColumnSelector(str(path), "b"))

    def test_nul_byte_reports_malformed_csv(self, tmp_path):
        path = (tmp_path / "t.csv")
        path.write_text("v\nok\na\x00b\n", encoding="utf-8")
        with pytest.raises(IngestError, match="malformed CSV at line 3"):
            read_histogram(ColumnSelector(str(path), "v"))

    def test_nul_byte_in_other_column_reports_malformed_csv(self, tmp_path):
        path = (tmp_path / "t.csv")
        path.write_text("v,w\nok,x\na,b\x00c\n", encoding="utf-8")
        with pytest.raises(IngestError, match="malformed CSV at line 3"):
            read_histogram(ColumnSelector(str(path), "v"))

    def test_nul_byte_far_into_the_input_reports_its_line(self, tmp_path):
        path = (tmp_path / "t.csv")
        path.write_text("v\n" + "a\n" * 100_000 + "b\x00\nc\n", encoding="utf-8")
        with pytest.raises(IngestError, match="malformed CSV at line 100002:"):
            read_histogram(ColumnSelector(str(path), "v"))

    def test_oversized_field_far_into_the_input_reports_its_line(self, tmp_path):
        path = (tmp_path / "t.csv")
        path.write_text("v,w\n" + "a,b\n" * 100_000 + f"c,{MALFORMED[1]}\nd,e\n", encoding="utf-8")
        with pytest.raises(IngestError, match="malformed CSV at line 100002: field larger than field limit"):
            read_histogram(ColumnSelector(str(path), "v"))
        # One column, whose lines are counted with no csv parse.
        path.write_text("v\n" + "a\n" * 100_000 + f"{MALFORMED[1]}\nd\n", encoding="utf-8")
        with pytest.raises(IngestError, match="malformed CSV at line 100002: field larger than field limit"):
            read_histogram(ColumnSelector(str(path), "v"))

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes on this platform")
    def test_named_pipe_with_a_late_quote(self, tmp_path):
        # A pipe cannot be read twice, so it is read row by row from the
        # start; the quote past the first block does not send it back.
        text = "v,w\n" + "1,a\n" * 20_000 + '2,"b,\nc"\n3, a\n'
        regular = tmp_path / "t.csv"
        regular.write_text(text, encoding="utf-8")
        fifo = tmp_path / "t.fifo"
        try:
            os.mkfifo(fifo)
        except OSError as exc:
            pytest.skip(f"cannot make a named pipe here: {exc}")

        def feed():
            with open(fifo, "w", encoding="utf-8") as fh:
                fh.write(text)

        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        try:
            h = read_histogram(ColumnSelector(str(fifo), "w"))
        finally:
            writer.join(timeout=10)
        bins, skipped = read_histogram_per_row(regular, "w")
        assert h.bins == bins and not skipped

    @pytest.mark.parametrize("bad", MALFORMED, ids=MALFORMED_IDS)
    def test_malformed_header_reports_malformed_csv(self, tmp_path, bad):
        path = (tmp_path / "t.csv")
        path.write_text(f"v,w{bad}\nok,y\n", **WRITE_RAW)
        with pytest.raises(IngestError, match="malformed CSV at line 1"):
            read_histogram(ColumnSelector(str(path), "v"))

    def test_invalid_utf8_reports_malformed_csv(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"v,w\nok,x\na,b\xffc\nd,e\n")
        with pytest.raises(IngestError, match="malformed CSV at line 3: invalid UTF-8 byte 0xff"):
            read_histogram(ColumnSelector(str(path), "v"))

    def test_invalid_utf8_far_into_the_input_reports_its_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes("v\n".encode() + "\u00e9\n".encode() * 100_000 + b"\xc3(\nc\n")
        with pytest.raises(IngestError, match="malformed CSV at line 100002: invalid UTF-8 byte 0xc3"):
            read_histogram(ColumnSelector(str(path), "v"))

    def test_invalid_utf8_on_stdin_reports_malformed_csv(self, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"v\nq\n\xff\n")))
        with pytest.raises(IngestError, match="-: malformed CSV at line 3: invalid UTF-8 byte 0xff"):
            read_histogram(ColumnSelector("-", "v"))
        assert not sys.stdin.closed

    def test_non_ascii_utf8_is_counted(self, tmp_path, monkeypatch):
        data = "v\nsí\nsí\n\u00e9t\u00e9\n"
        path = tmp_path / "t.csv"
        path.write_text(data, encoding="utf-8")
        h = read_histogram(ColumnSelector(str(path), "v"))
        assert list(h.items()) == [("sí", 2.0), ("été", 1.0)]
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data.encode("utf-8"))))
        assert list(read_histogram(ColumnSelector("-", "v")).items()) == list(h.items())

    def test_headerless_by_index(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", [["x", "10"], ["y", "20"], ["x", "5"]])
        h = read_histogram(ColumnSelector(path, 0, has_header=False))
        assert h.count("x") == 2.0

    def test_named_column_requires_header(self):
        with pytest.raises(ValueError, match="requires a header"):
            ColumnSelector("f.csv", "name", has_header=False)

    def test_alternate_delimiter(self, tmp_path):
        path = (tmp_path / "t.tsv")
        path.write_text("a\tb\nu\tv\nu\tw\n", encoding="utf-8")
        h = read_histogram(ColumnSelector(str(path), "a", delimiter="\t"))
        assert h.count("u") == 2.0

    def test_stdin_source(self, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("v\nq\nq\nr\n"))
        h = read_histogram(ColumnSelector("-", "v"))
        assert h.count("q") == 2.0

    def test_missing_file_is_oserror(self, tmp_path):
        with pytest.raises(OSError):
            read_histogram(ColumnSelector(str(tmp_path / "absent.csv"), "v"))

    def test_counts_match_two_pass_reference(self, tmp_path):
        rng = np.random.default_rng(401)
        vocab = ["alpha", "beta", "gamma", "delta", "eps ilon", 'quo"te', "商品", "?"]
        for trial in range(10):
            n_rows = int(rng.integers(1, 400))
            column = [vocab[i] for i in rng.integers(len(vocab), size=n_rows)]
            path = write_csv(tmp_path / f"r{trial}.csv", [["val"], *[[v] for v in column]])
            h = read_histogram(ColumnSelector(path, "val"))
            reference = {}
            for v in column:
                reference[v] = reference.get(v, 0) + 1
            assert dict(h.items()) == {k: float(v) for k, v in reference.items()}

    @pytest.mark.parametrize(
        "text, column, options, drop, by_row",
        [
            ("v\n a\nb\na\n a \nb \n", "v", {}, (), False),
            ("v\n  \nx\n\t\nx\n \t \n", "v", {}, (), False),
            ("v\n NA\nNA \nx\n NA \nNAN\n", "v", {}, ("NA",), False),
            ("v\na\n\n\nb\n\na\n\n", "v", {}, (), False),
            ('v,w\n1,"a,b\nc"\n2,"a,b\nc"\n3,x\n4," a,b\nc "\n', "w", {}, (), True),
            ("a,1\nb,2\na,3\n, 4\n", 1, {"has_header": False}, (), False),
            ("a,1\nb,2\na,3\n, 4\n", 0, {"has_header": False}, (), False),
            ("k;v\n1;x\n2; y\n3;x\n4;a,b\n", "v", {"delimiter": ";"}, (), False),
            ("v\né\nÅngström\n é\n 日本\n日本\n", "v", {}, (), False),
            ("v,w\r\n1, a\r\n2,b\r\n\r\n3,a\r\n4, \r\n", "w", {}, (), False),
            ("v\r a\rb\r\ra \r \rb\r", "v", {}, (), True),
            ("v\na\n b\nb\na", "v", {}, (), False),
            ("v\n a\nc\n" + "b\n" * 40_000 + "a \nc\n\ta\n", "v", {}, (), False),
            ("v\nNA\nx\n" + "y\n" * 40_000 + " NA \nx\n", "v", {}, ("NA",), False),
            ("v,w\n" + "1,a\n" * 20_000 + '2,"b,\nc"\n3, a\n4,"b,\nc"\n', "w", {}, (), True),
            ('"v",w\n1,a\n2, a\n', "v", {}, (), True),
            # The blocks of _count_lines start after the header line.
            ("v\r\n" + "a" * (BLOCK - 1) + "\r\nb\r\n\r\n" + "a" * (BLOCK - 1) + "\r\n b\r\n", "v", {}, (), False),
            ("v\n" + "a" * (BLOCK + BLOCK // 2) + "\nb\n " + "a" * (BLOCK + BLOCK // 2) + "\nb\n", "v", {}, (), False),
            ("v\n" + "a\n" * BLOCK + "b\rc\n a\n", "v", {}, (), True),
            ("v\n" + "a\n" * BLOCK + "b,c\n a\n", "v", {}, (), False),
            ("a\n b\n" + "c\n" * BLOCK + "\n a \n", 0, {"has_header": False}, (), False),
            ("v\n" + "a\n" * (BLOCK // 2 - 2) + " b" * (BLOCK // 2), "v", {}, (), False),
        ],
        ids=["leading-space-first", "whitespace-only", "drop-after-trim", "blank-lines",
             "quoted-delimiter-newline", "headerless-index-1", "headerless-index-0",
             "semicolon", "non-ascii", "crlf", "lone-cr", "no-final-newline",
             "padding-blocks-apart", "drop-blocks-apart", "late-quote", "quoted-header",
             "crlf-split-by-a-block", "cell-longer-than-a-block", "late-lone-cr",
             "late-delimiter-one-column", "headerless-index-0-one-column", "no-final-newline-across-blocks"],
    )
    def test_matches_per_row_loop(self, tmp_path, monkeypatch, rows_read, text, column, options, drop, by_row):
        # The line count reads blocks of BLOCK bytes here, which the texts cross.
        monkeypatch.setattr(ingest, "_BLOCK_BYTES", BLOCK)
        path = tmp_path / "t.csv"
        path.write_text(text, encoding="utf-8")
        bins, skipped = read_histogram_per_row(path, column, drop_values=frozenset(drop), **options)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            h = read_histogram(ColumnSelector(str(path), column, **options), frozenset(drop))
        assert h.bins == bins
        messages = [str(w.message) for w in caught]
        assert messages == ([f"{path}: skipped {skipped} empty cells"] if skipped else [])
        assert rows_read == ([str(path)] if by_row else [])

    @pytest.mark.parametrize("cells, drop", [
        ([("a", 4), ("b", 1), ("c", 2)], ()),
        ([(" a", 2), ("b", 1), ("a", 3), ("a ", 1)], ()),
        ([("a", 1), ("", 2), ("b", 5), ("  ", 3)], ()),
        ([("NA", 2), ("a", 1), (" NA ", 1), ("b", 1)], ("NA", "zz")),
        ([("\tNA", 2), ("", 1), (" b", 4), ("b", 1), ("x", 1)], ("NA", "")),
    ], ids=["distinct", "two-raw-cells-trim-to-one", "empty-cells", "dropped-value", "all-at-once"])
    def test_merge_matches_per_cell_loop(self, cells, drop):
        raw_cells = [cell for cell, _ in cells]
        counts = [n for _, n in cells]
        merged, skipped = ingest._merge(raw_cells, counts, frozenset(drop))
        expected, expected_skipped = merge_per_cell(cells, frozenset(drop))
        assert list(merged.items()) == list(expected.items()) and skipped == expected_skipped

    def test_repeated_lines_are_counted_by_line(self, tmp_path, rows_read):
        # The first 20 000 lines are all distinct, and then each repeats.
        path = write_csv(tmp_path / "t.csv", [["w"], *([f"x{i % 20_000}"] for i in range(100_000))])
        bins, skipped = read_histogram_per_row(path, "w")
        assert read_histogram(ColumnSelector(path, "w")).bins == bins
        assert rows_read == []

    def test_mostly_distinct_lines_are_read_row_by_row(self, tmp_path, rows_read):
        # A row id beside the column makes every line distinct.
        path = write_csv(tmp_path / "t.csv", [["id", "w"], *([str(i), f"x{i % 5}"] for i in range(50_000))])
        bins, skipped = read_histogram_per_row(path, "w")
        assert read_histogram(ColumnSelector(path, "w")).bins == bins
        assert rows_read == [path]

    def test_lines_turning_distinct_late_are_read_row_by_row(self, tmp_path, rows_read):
        # More than half the lines read are distinct only some 80 000 lines in.
        rows = [["id", "w"], *([str(i % 3), " a"] for i in range(40_000)), *([str(i), "b"] for i in range(60_000))]
        path = write_csv(tmp_path / "t.csv", rows + [["1"]])
        with pytest.raises(IngestError, match=re.escape(f"{path}: line 100002: expected at least 2 fields, got 1")):
            read_histogram(ColumnSelector(path, "w"))
        path = write_csv(tmp_path / "t.csv", rows)
        bins, skipped = read_histogram_per_row(path, "w")
        assert bins == (("a", 40_000.0), ("b", 60_000.0))
        assert read_histogram(ColumnSelector(path, "w")).bins == bins
        assert rows_read == [path, path]

    def test_census_fixture_marginals(self, census_csv):
        sex = read_histogram(ColumnSelector(census_csv, "sex"))
        assert dict(sex.items()) == {k: float(v) for k, v in SEX_COUNTS.items()}
        assert len(sex) == 2
        work = read_histogram(ColumnSelector(census_csv, "workclass"))
        assert dict(work.items()) == {k: float(v) for k, v in WORKCLASS_COUNTS.items()}
        assert work.total == 32561.0


# Seeded, few and small examples, so tier-1 stays deterministic and quick.
PROPERTY = settings(derandomize=True, max_examples=40, deadline=None)
# Labels of 1 to 24 bytes, so that lines stop short of, fill and cross the
# 8-byte words the line count reads, and empty cells.
LABELS = st.text("ab-0\u00e9\u20ac", min_size=1, max_size=8) | st.just("")
PADS = st.sampled_from(["", " ", "\t ", "  "])


@st.composite
def column_files(draw):
    """A column file's text: a few labels repeated, padded or not, blank
    lines, maybe a second column holding the delimiter, CRLF or LF line
    ends, maybe no final newline; and the bytes the line count reads at once."""
    labels = draw(st.lists(LABELS, min_size=1, max_size=5))
    rows = draw(st.lists(st.none() | st.tuples(PADS, st.sampled_from(labels), PADS), max_size=40))
    other = draw(st.sampled_from(["", ",x", ",y z"]))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    lines = ["" if row is None else "".join(row) + other for row in rows]
    text = ("v,w" if other else "v") + end + end.join(lines) + (end if draw(st.booleans()) else "")
    return text, draw(st.sampled_from([3, 16, 64, ingest._BLOCK_BYTES]))


class TestLineCount:
    """The byte line count against the per-row loop: same bins, same order,
    same skipped cells."""

    @PROPERTY
    @given(column_files(), st.booleans())
    def test_matches_per_row_loop(self, tmp_path_factory, drawn, bom):
        text, block = drawn
        base = tmp_path_factory.getbasetemp()
        plain, read = base / "line-count-plain.csv", base / "line-count-read.csv"
        plain.write_text(text, encoding="utf-8", newline="")
        read.write_bytes(TestByteOrderMark.BOM * bom + text.encode("utf-8"))
        bins, skipped = read_histogram_per_row(plain, "v")
        with pytest.MonkeyPatch.context() as patch, warnings.catch_warnings(record=True) as caught:
            patch.setattr(ingest, "_BLOCK_BYTES", block)
            warnings.simplefilter("always")
            h = read_histogram(ColumnSelector(str(read), "v"))
        assert h.bins == bins
        assert [str(w.message) for w in caught] == ([f"{read}: skipped {skipped} empty cells"] if skipped else [])

    @pytest.mark.parametrize("block", [8, 16, 30])
    @pytest.mark.parametrize("label", ["0123456789", "\u00e9\u00e9\u00e9\u00e9\u00e9", "abc"])
    def test_blocks_end_at_their_last_line(self, tmp_path, monkeypatch, block, label):
        # Blocks are read into one buffer, which still holds lines of earlier
        # blocks past the current one's end; the last block is the shortest.
        text = "v\n" + "".join(f"{label}{i % 3}\n" for i in range(40)) + "z" * 12
        path = tmp_path / "t.csv"
        path.write_text(text, encoding="utf-8")
        monkeypatch.setattr(ingest, "_BLOCK_BYTES", block)
        bins, skipped = read_histogram_per_row(path, "v")
        assert read_histogram(ColumnSelector(str(path), "v")).bins == bins

    @pytest.mark.parametrize("runs, cycles, block", [
        ([["a", "b", "c"], ["a longer label", "another long one", "b"], ["d", "a", "e"],
          ["another long one", "yet another label", "d"]], 10, 64),
        # At the default block size, each run of lines 8 bytes or shorter on
        # average, or longer, fills two whole blocks: a cycle of 3 lines is
        # at least 20 bytes.
        ([["a longer label", "another long one", "b"], ["a", "b", "another long one"]],
         2 * ingest._BLOCK_BYTES // 20, ingest._BLOCK_BYTES),
        ([["a", "b", "another long one"], ["a longer label", "another long one", "b"]],
         2 * ingest._BLOCK_BYTES // 20, ingest._BLOCK_BYTES),
    ], ids=["small-blocks", "long-then-short", "short-then-long"])
    def test_short_and_long_blocks_keep_first_appearance_order(
            self, tmp_path, monkeypatch, rows_read, runs, cycles, block):
        # Blocks of lines of at most 8 bytes and blocks of longer lines are
        # grouped apart; the labels of each first appear in the others.
        rows = [[label] for run in runs for label in run * cycles]
        path = write_csv(tmp_path / "t.csv", [["v"], *rows, ["f"], ["yet another label"]])
        monkeypatch.setattr(ingest, "_BLOCK_BYTES", block)
        bins, skipped = read_histogram_per_row(path, "v")
        assert read_histogram(ColumnSelector(path, "v")).bins == bins
        assert rows_read == []

    @pytest.mark.parametrize("multiplier", [0, 1 << 56])
    @pytest.mark.parametrize("block", [5, BLOCK])
    def test_forced_hash_collisions_keep_counts_exact(self, tmp_path, monkeypatch, rows_read, multiplier, block):
        # Multiplier 0 gives every line one hash, and 1 << 56 keeps only the
        # first of the last 8 bytes read: whole groups of lines collide, in a
        # block and with the lines of earlier blocks.
        short = ["ab", "ba", "a", "abcdefg", "abcdefh", "\u00e9", " ab"]
        long = ["abcdefghij", "abcdefghik", "bcdefghija", "abcdefghijklmnopq", "abcdefghijklmnopr"]
        rng = np.random.default_rng(26)
        rows = [*([short[i]] for i in rng.integers(len(short), size=200)),  # grouped by hash
                *([long[i]] for i in rng.integers(len(long), size=200)),  # counted in a dict
                *([(short + long)[i]] for i in rng.integers(len(short + long), size=200))]
        path = write_csv(tmp_path / "t.csv", [["v"], *rows])
        bins, skipped = read_histogram_per_row(path, "v")
        assert read_histogram(ColumnSelector(path, "v")).bins == bins
        monkeypatch.setattr(domain_mod, "HASH_MULTIPLIER", multiplier)
        monkeypatch.setattr(ingest, "_BLOCK_BYTES", block)
        assert read_histogram(ColumnSelector(path, "v")).bins == bins
        assert rows_read == []

    def test_lines_of_eight_bytes_next_to_lines_of_nine(self, tmp_path, monkeypatch, rows_read):
        # A line of 8 bytes with its "\n" is kept as its hash alone; one of 9
        # keeps its bytes. Their hashes are read from the same first 8 bytes.
        labels = ["abcdefg", "abcdefgh", "abcdefgi", "bcdefgh", "a", "abcdefg ", "zyxwvut", "zyxwvuts"]
        rng = np.random.default_rng(27)
        path = write_csv(tmp_path / "t.csv", [["v"], *([labels[i]] for i in rng.integers(len(labels), size=3_000))])
        monkeypatch.setattr(ingest, "_BLOCK_BYTES", 4096)
        bins, skipped = read_histogram_per_row(path, "v")
        assert read_histogram(ColumnSelector(path, "v")).bins == bins
        assert rows_read == []

    def test_multibyte_labels_within_eight_bytes(self, tmp_path, rows_read):
        # 2-, 3- and 4-byte UTF-8 characters, alone and together, up to 8
        # bytes with the "\n" and, for the last one, past it.
        labels = ["\u00e9", "\u20ac", "\U0001d11e", "\u00e9\u20ac", "\U0001d11e\u00e9", "\u20ac\u20ac",
                  "\U0001d11e\u20ac", "a\U0001d11e\u00e9", "\U0001d11e\U0001d11e"]
        rng = np.random.default_rng(28)
        path = write_csv(tmp_path / "t.csv", [["v"], *([labels[i]] for i in rng.integers(len(labels), size=2_000))])
        bins, skipped = read_histogram_per_row(path, "v")
        assert read_histogram(ColumnSelector(path, "v")).bins == bins
        assert rows_read == []

    def test_many_merges_of_short_labels(self, tmp_path, monkeypatch, rows_read):
        # 100 000 distinct labels in 4 KiB blocks: hundreds of runs, merged
        # into the table each time they outgrow it. Label k appears at line
        # 3k, and again at 3j + 1 for j = 2k, 2k + 1 and at 3j + 2 for
        # j = 4k .. 4k + 3, in later blocks, so at most a third of the lines
        # read are ever distinct.
        labels = [f"w{i}" for i in range(100_000)]
        rows = "".join(f"{labels[j]}\n{labels[j // 2]}\n{labels[j // 4]}\n" for j in range(len(labels)))
        path = tmp_path / "t.csv"
        path.write_text("v\n" + rows, encoding="utf-8")
        monkeypatch.setattr(ingest, "_BLOCK_BYTES", 4096)
        bins, skipped = read_histogram_per_row(path, "v")
        assert len(bins) == len(labels)
        assert read_histogram(ColumnSelector(str(path), "v")).bins == bins
        assert rows_read == []

    def test_multiplier_one_regroups_lines_with_the_same_last_bytes(self, tmp_path, monkeypatch, rows_read):
        # Multiplier 1 is odd, so a short line is still its hash, and the hash
        # is the line's own 8 bytes: lines that end alike share their high
        # hash bits, tie on the grouping key and are told apart in the
        # regrouping rounds. Long lines whose words add up alike collide.
        short = [f"{c}-same" for c in "abcdefgh"] + ["same", "x-same", "\u00e9same"]
        long = ["abcdefgh-long", "-longabcdefgh", "abcdefgh-lonh", "hgfedcba-long"]
        rng = np.random.default_rng(29)
        rows = [*([short[i]] for i in rng.integers(len(short), size=600)),
                *([(short + long)[i]] for i in rng.integers(len(short + long), size=600))]
        path = write_csv(tmp_path / "t.csv", [["v"], *rows])
        bins, skipped = read_histogram_per_row(path, "v")
        monkeypatch.setattr(domain_mod, "HASH_MULTIPLIER", 1)
        for block in (64, 4096):
            monkeypatch.setattr(ingest, "_BLOCK_BYTES", block)
            assert read_histogram(ColumnSelector(path, "v")).bins == bins
        assert rows_read == []

    @pytest.mark.parametrize("firsts", [[7, 0, 3, 12], [2**62, 5, 2**61, 0]], ids=["packed", "too-wide-to-pack"])
    def test_first_appearance_order_is_the_order_of_first_copies(self, firsts):
        # The places of first copies are sorted with each line's index in
        # their low bits, unless a place leaves no room for the index.
        run = domain_mod._Run(np.zeros(4, np.uint64), np.array(firsts), np.ones(4, np.int64), np.zeros(4, bool), b"")
        assert run.by_first().tolist() == np.argsort(firsts).tolist()

    def test_memory_grows_with_distinct_lines_not_rows(self, tmp_path):
        # The same 1 000 labels at 1e5 and at 4e5 rows: only the block's
        # arrays and the distinct lines are held at once. The labels are
        # short, so each block is grouped by its hashes.
        labels = [f"w{i}" for i in range(1000)]
        peaks = []
        for rows in (100_000, 400_000):
            path = tmp_path / f"t{rows}.csv"
            path.write_text("v\n" + "\n".join(labels[i % 1000] for i in range(rows)) + "\n", encoding="utf-8")
            tracemalloc.start()
            try:
                h = read_histogram(ColumnSelector(str(path), "v"))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert len(h) == 1000 and h.total == rows
        assert peaks[1] <= 1.25 * peaks[0], peaks


def random_histogram(rng, noisy=False):
    size = int(rng.integers(1, 12))
    labels = []
    for i in range(size):
        kind = rng.integers(4)
        if kind == 0:
            labels.append(f"plain-{i}")
        elif kind == 1:
            labels.append(f"with,comma-{i}")
        elif kind == 2:
            labels.append(f'quo"te-{i}')
        else:
            labels.append(f"unicode-商品-{i}")
    if noisy:
        return NoisyHistogram(
            [
                NoisyBin(
                    label,
                    float(rng.uniform(1e-12, 1e6)),
                    Origin.ACTIVE if rng.integers(2) else Origin.INJECTED,
                )
                for label in labels
            ]
        )
    return Histogram([(label, float(rng.uniform(0, 1e6))) for label in labels])


class TestByteOrderMark:
    """A leading UTF-8 byte-order mark, as spreadsheet "CSV UTF-8" exports
    write, is skipped on every read path; one later in the input is data."""

    BOM = b"\xef\xbb\xbf"

    def write(self, tmp_path, text):
        path = tmp_path / "t.csv"
        path.write_bytes(self.BOM + text.encode("utf-8"))
        return str(path)

    @pytest.mark.parametrize("header", ["v\n", ""], ids=["by-name", "headerless"])
    @pytest.mark.parametrize("quoted", [False, True], ids=["line-count", "row-reader"])
    def test_file(self, tmp_path, rows_read, header, quoted):
        # A quote sends the file back to the start, past the BOM again.
        path = self.write(tmp_path, header + ('"cat-1"' if quoted else "cat-1") + "\ncat-1\ncat-2\n")
        selector = ColumnSelector(path, "v") if header else ColumnSelector(path, 0, has_header=False)
        assert list(read_histogram(selector).items()) == [("cat-1", 2.0), ("cat-2", 1.0)]
        assert rows_read == ([path] if quoted else [])

    def test_row_reader_after_many_blocks(self, tmp_path, rows_read):
        # The line count gives up on the distinct row ids only after reading
        # tens of thousands of lines, then reads again from the start.
        rows = "".join(f"{'ab'[i % 2]},{i}\n" for i in range(50_000))
        path = self.write(tmp_path, "w,id\n" + rows)
        assert list(read_histogram(ColumnSelector(path, "w")).items()) == [("a", 25_000.0), ("b", 25_000.0)]
        assert rows_read == [path]

    @pytest.mark.parametrize("column", ["v", 0])
    def test_stdin(self, monkeypatch, column):
        text = "v\ncat-1\ncat-1\ncat-2\n" if column == "v" else "cat-1\ncat-1\ncat-2\n"
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(self.BOM + text.encode("utf-8"))))
        h = read_histogram(ColumnSelector("-", column, has_header=column == "v"))
        assert list(h.items()) == [("cat-1", 2.0), ("cat-2", 1.0)]
        assert not sys.stdin.closed

    def test_later_byte_order_mark_is_data(self, tmp_path):
        path = self.write(tmp_path, "v\ncat-1\n\ufeffcat-1\n")
        assert read_histogram(ColumnSelector(path, "v")).labels() == ("cat-1", "\ufeffcat-1")
        path = tmp_path / "plain.csv"
        path.write_text("\ufeff\ufeffv\ncat-1\n", encoding="utf-8")
        with pytest.raises(IngestError, match=r"no column named 'v'; available columns: \['\\ufeffv'\]"):
            read_histogram(ColumnSelector(str(path), "v"))


class TestSerializationRoundTrip:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_hundred_random_histograms(self, tmp_path, fmt):
        rng = np.random.default_rng(402)
        for trial in range(100):
            h = random_histogram(rng, noisy=bool(rng.integers(2)))
            path = tmp_path / f"h{trial}.{fmt}"
            write_histogram(h, path, fmt=fmt)
            back = load_histogram(path, fmt=fmt)
            assert type(back) is type(h)
            assert list(back.items()) == list(h.items())
            if isinstance(h, NoisyHistogram):
                assert [b.origin for b in back.bins] == [b.origin for b in h.bins]

    def test_awkward_counts_survive_exactly(self, tmp_path):
        h = Histogram([("a", 0.1 + 0.2), ("b", 1e-17), ("c", 12345678901234.5)])
        for fmt in ("csv", "json"):
            path = tmp_path / f"h.{fmt}"
            write_histogram(h, path, fmt=fmt)
            assert list(load_histogram(path, fmt=fmt).items()) == list(h.items())

    def test_csv_header_and_blank_origin_for_plain(self, tmp_path):
        path = tmp_path / "h.csv"
        write_histogram(Histogram([("a", 1.0)]), path)
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        assert tuple(rows[0]) == CSV_HEADER
        assert rows[1] == ["a", "1.0", ""]

    def test_json_shape_and_meta(self, tmp_path):
        t = noisy_threshold(1.0, 0.9, 171_000)
        nh = NoisyHistogram([NoisyBin("a", 14.5, Origin.ACTIVE)])
        path = tmp_path / "h.json"
        meta = {"epsilon": 1.0, "rho": 0.9, "n": 171_000, "tau": t, "seed": 7}
        write_histogram(nh, path, meta=meta)
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["meta"]["tau"] == noisy_threshold(1.0, 0.9, 171_000)
        assert payload["bins"] == [{"label": "a", "count": 14.5, "origin": "active"}]

    def test_json_empty_histogram(self, tmp_path):
        path = tmp_path / "h.json"
        write_histogram(Histogram([]), path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["bins"] == []

    @pytest.mark.parametrize("h, meta", [
        (NoisyHistogram([NoisyBin(label, 1.5 + i / 7, Origin.INJECTED if i % 2 else Origin.ACTIVE)
                         for i, label in enumerate(['a"b', "c\\d", "e\x00\x01\x1f\x7f\n\t", "ü日本\U0001d11e",
                                                    "line\u2028sep\u2029"])]),
         {"epsilon": 0.5, "seed": 7, "note": 'q"\u2028\n', "grid": [1.0, {"rho": [0.1]}], "empty": {}}),
        (Histogram([("a", 0.0), ("b", 1e-17), ("c", 12345678901234.5), ("d", 1e300)]), {}),
        (NoisyHistogram(), {"n": 10}),
        (Histogram(), None),
    ], ids=["escaped-labels", "plain-null-origin", "empty-release", "empty-no-meta"])
    def test_json_bytes_match_json_dumps(self, tmp_path, h, meta):
        path = tmp_path / "h.json"
        write_histogram(h, path, fmt="json", meta=meta)
        origins = [b.origin.value for b in h.bins] if isinstance(h, NoisyHistogram) else [None] * len(h)
        payload = {
            "bins": [{"label": label, "count": count, "origin": origin}
                     for (label, count), origin in zip(h.items(), origins)],
            "meta": meta or {},
        }
        want = json.dumps(payload, ensure_ascii=False, indent=2) + "\n"
        assert path.read_bytes() == want.encode("utf-8")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_empty_release_reloads_as_empty_histogram(self, tmp_path, fmt):
        # No bin carries an origin, so the file cannot tell a release apart.
        path = tmp_path / f"h.{fmt}"
        write_histogram(NoisyHistogram(), path, fmt=fmt)
        back = load_histogram(path, fmt=fmt)
        assert type(back) is Histogram and len(back) == 0

    def test_json_plain_histogram_null_origin(self, tmp_path):
        path = tmp_path / "h.json"
        write_histogram(Histogram([("a", 2.0)]), path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["bins"][0]["origin"] is None

    def test_format_inferred_from_suffix(self, tmp_path):
        path = tmp_path / "h.json"
        write_histogram(Histogram([("a", 1.0)]), path)
        json.loads(path.read_text(encoding="utf-8"))


class TestLoadHistogramErrors:
    def test_wrong_csv_header(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("label,value\na,1\n", encoding="utf-8")
        with pytest.raises(IngestError, match="expected header category,count,origin"):
            load_histogram(path)

    def test_bad_count(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("category,count,origin\na,notanumber,\n", encoding="utf-8")
        with pytest.raises(IngestError, match="bad count"):
            load_histogram(path)

    def test_mixed_origins(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("category,count,origin\na,1.0,active\nb,2.0,\n", encoding="utf-8")
        with pytest.raises(IngestError, match="mixed"):
            load_histogram(path)

    def test_unknown_origin(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("category,count,origin\na,1.0,sideways\n", encoding="utf-8")
        with pytest.raises(IngestError):
            load_histogram(path)

    def test_nonpositive_noisy_count(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("category,count,origin\na,-1.0,active\n", encoding="utf-8")
        with pytest.raises(IngestError):
            load_histogram(path)

    @pytest.mark.parametrize("bad", MALFORMED, ids=MALFORMED_IDS)
    def test_malformed_row_reports_malformed_csv(self, tmp_path, bad):
        path = tmp_path / "h.csv"
        path.write_text(f"category,count,origin\na,1.0,\nb{bad},2.0,\n", **WRITE_RAW)
        with pytest.raises(IngestError, match="malformed CSV at line 3"):
            load_histogram(path)

    def test_invalid_utf8_in_json_is_invalid_json(self, tmp_path):
        path = tmp_path / "h.json"
        path.write_bytes(b'{"bins": [{"label": "\xff", "count": 1.0}]}')
        with pytest.raises(IngestError, match="invalid JSON: 'utf-8' codec can't decode byte 0xff"):
            load_histogram(path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "h.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(IngestError, match="invalid JSON"):
            load_histogram(path)

    def test_json_without_bins(self, tmp_path):
        path = tmp_path / "h.json"
        path.write_text('{"meta": {}}', encoding="utf-8")
        with pytest.raises(IngestError, match="'bins' array"):
            load_histogram(path)

    @pytest.mark.parametrize("bad, message", [
        ('{"label": "b", "count": 1.0, "origin": ["active"]}', "origin must be a string or null, got ['active']"),
        ('{"label": "b", "count": 1.0, "origin": {"x": 1}}', "origin must be a string or null, got {'x': 1}"),
        ('{"label": "b", "count": 1.0, "origin": false}', "origin must be a string or null, got False"),
        ('{"label": "b", "count": 1.0, "origin": 0}', "origin must be a string or null, got 0"),
        ('{"label": "b", "count": true, "origin": "active"}', "count must be a number, got True"),
        ('{"label": "b", "count": "2.0", "origin": "active"}', "count must be a number, got '2.0'"),
        ('{"label": "b", "count": null, "origin": "active"}', "count must be a number, got None"),
        ('{"label": "b", "count": 1' + "0" * 400 + ', "origin": "active"}', "int too large to convert to float"),
        ('{"count": 1.0, "origin": "active"}', "'label'"),
        ('["b", 1.0, "active"]', "list indices must be integers or slices, not str"),
    ], ids=["list-origin", "object-origin", "false-origin", "zero-origin", "bool-count", "string-count",
            "null-count", "huge-count", "no-label", "not-an-object"])
    def test_json_bad_bin_names_its_index(self, tmp_path, bad, message):
        path = tmp_path / "h.json"
        path.write_text('{"bins": [{"label": "a", "count": 2.0, "origin": "active"}, ' + bad + "]}", encoding="utf-8")
        with pytest.raises(IngestError) as caught:
            load_histogram(path)
        assert str(caught.value) == f"{path}: bad bin at index 1: {message}"

    @pytest.mark.parametrize("text", ["[1, 2]", '"bins"', "null"])
    def test_json_not_an_object(self, tmp_path, text):
        path = tmp_path / "h.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(IngestError, match="expected a JSON object with a 'bins' array"):
            load_histogram(path)
