import csv
import io
import json
import os
import re
import sys
import threading
import warnings

import numpy as np
import pytest

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
from oracles import read_histogram_per_row


# Fields that make a line malformed CSV. "\udcff" is written as the single
# byte 0xff, which is not UTF-8.
MALFORMED = ["\x00", "x" * (csv.field_size_limit() + 1), "\udcff"]
MALFORMED_IDS = ["nul", "oversized", "invalid-utf8"]
WRITE_RAW = {"encoding": "utf-8", "errors": "surrogateescape"}


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
        "text, column, options, drop",
        [
            ("v\n a\nb\na\n a \nb \n", "v", {}, ()),
            ("v\n  \nx\n\t\nx\n \t \n", "v", {}, ()),
            ("v\n NA\nNA \nx\n NA \nNAN\n", "v", {}, ("NA",)),
            ("v\na\n\n\nb\n\na\n\n", "v", {}, ()),
            ('v,w\n1,"a,b\nc"\n2,"a,b\nc"\n3,x\n4," a,b\nc "\n', "w", {}, ()),
            ("a,1\nb,2\na,3\n, 4\n", 1, {"has_header": False}, ()),
            ("a,1\nb,2\na,3\n, 4\n", 0, {"has_header": False}, ()),
            ("k;v\n1;x\n2; y\n3;x\n4;a,b\n", "v", {"delimiter": ";"}, ()),
            ("v\né\nÅngström\n é\n 日本\n日本\n", "v", {}, ()),
            ("v,w\r\n1, a\r\n2,b\r\n\r\n3,a\r\n4, \r\n", "w", {}, ()),
            ("v\r a\rb\r\ra \r \rb\r", "v", {}, ()),
            ("v\na\n b\nb\na", "v", {}, ()),
            ("v\n a\nc\n" + "b\n" * 40_000 + "a \nc\n\ta\n", "v", {}, ()),
            ("v\nNA\nx\n" + "y\n" * 40_000 + " NA \nx\n", "v", {}, ("NA",)),
            ("v,w\n" + "1,a\n" * 20_000 + '2,"b,\nc"\n3, a\n4,"b,\nc"\n', "w", {}, ()),
            ('"v",w\n1,a\n2, a\n', "v", {}, ()),
        ],
        ids=["leading-space-first", "whitespace-only", "drop-after-trim", "blank-lines",
             "quoted-delimiter-newline", "headerless-index-1", "headerless-index-0",
             "semicolon", "non-ascii", "crlf", "lone-cr", "no-final-newline",
             "padding-blocks-apart", "drop-blocks-apart", "late-quote", "quoted-header"],
    )
    def test_matches_per_row_loop(self, tmp_path, text, column, options, drop):
        path = tmp_path / "t.csv"
        path.write_text(text, encoding="utf-8")
        bins, skipped = read_histogram_per_row(path, column, drop_values=frozenset(drop), **options)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            h = read_histogram(ColumnSelector(str(path), column, **options), frozenset(drop))
        assert h.bins == bins
        messages = [str(w.message) for w in caught]
        assert messages == ([f"{path}: skipped {skipped} empty cells"] if skipped else [])

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
