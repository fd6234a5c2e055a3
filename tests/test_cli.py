import csv
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from cathist import mechanism
from cathist.cli import main
from cathist.domain import load_domain
from cathist.ingest import load_histogram
from cathist.mechanism import synthesize_records
from cathist.numerics import make_rng, noisy_threshold

from oracles import records_csv_per_row, tau_oracle

SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def run_process(argv, hash_seed):
    """cathist in a fresh interpreter with the given PYTHONHASHSEED."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = str(hash_seed)
    proc = subprocess.run(
        [sys.executable, "-m", "cathist.cli", *argv], capture_output=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def parse_report(out):
    values = {}
    for line in out.splitlines():
        if " = " in line:
            key, _, rest = line.partition(" = ")
            values[key] = float(rest.split()[0])
    return values


class TestTau:
    def test_boundary_zero(self, capsys):
        code, out, _ = run(capsys, "tau", "--epsilon", "1", "--rho", "0.5", "--n", "1")
        assert code == 0
        assert parse_report(out)["tau"] == 0.0

    def test_wordlist_scale_report(self, capsys):
        code, out, _ = run(capsys, "tau", "--epsilon", "1", "--rho", "0.9", "--n", "171000")
        assert code == 0
        values = parse_report(out)
        assert values["tau"] == pytest.approx(tau_oracle(1.0, 0.9, 171_000), rel=1e-12)
        assert values["expected_injected"] == pytest.approx(0.10536, abs=1e-4)
        assert values["zero_injection_probability"] == pytest.approx(0.9, rel=1e-9)
        # Both injection figures hold for an empty column and say so.
        lines = dict(line.split(" = ", 1) for line in out.splitlines())
        assert lines["expected_injected"].endswith("(empty column; (n - a) * p with a active labels)")
        assert lines["zero_injection_probability"].endswith(
            "(target rho = 0.9; empty column; rho^((n - a)/n) with a active labels)"
        )
        assert "empty column" not in lines["tau"] + lines["inclusion_probability"]

    def test_undefined_gate_exits_two(self, capsys):
        code, _, err = run(capsys, "tau", "--epsilon", "1", "--rho", "1e-300", "--n", "2")
        assert code == 2
        assert "tau undefined" in err

    @pytest.mark.parametrize("exponent", [309, 400])
    def test_domain_size_past_the_largest_double_exits_two(self, capsys, exponent):
        code, out, err = run(capsys, "tau", "--epsilon", "1", "--rho", "0.5", "--n", str(10**exponent))
        assert code == 2
        assert out == "" and "Traceback" not in err
        assert err.startswith("error: domain size must be at most the largest double, 1.7976931348623157e+308")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("n", [10**308, int(sys.float_info.max)])
    def test_domain_size_up_to_the_largest_double_runs(self, capsys, n):
        code, out, _ = run(capsys, "tau", "--epsilon", "1", "--rho", "0.5", "--n", str(n))
        assert code == 0
        assert parse_report(out)["zero_injection_probability"] == pytest.approx(0.5, rel=1e-12)

    def test_root_exponent_underflowing_to_zero_runs(self, capsys):
        # ln(rho)/n underflows to 0 here, and the threshold is still finite.
        code, out, err = run(capsys, "tau", "--epsilon", "1", "--rho", "0.9999999999999999", "--n", str(10**308))
        assert code == 0 and "Traceback" not in err
        assert parse_report(out)["tau"] == pytest.approx(745.2398620312832, rel=1e-12)

    def test_missing_flag_exits_one(self, capsys):
        code, _, err = run(capsys, "tau", "--epsilon", "1", "--n", "5")
        assert code == 1
        assert "--rho is required" in err

    def test_bad_epsilon_exits_two(self, capsys):
        code, _, err = run(capsys, "tau", "--epsilon", "-3", "--rho", "0.9", "--n", "5")
        assert code == 2
        assert "epsilon" in err

    def test_unknown_command_exits_one(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 1

    def test_no_command_exits_one(self, capsys):
        code, _, err = run(capsys)
        assert code == 1
        assert "command is required" in err

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0


class TestSynth:
    def synth_args(self, tmp_path, **over):
        column = write(tmp_path, "col.csv", "v\n" + "a\n" * 40 + "b\n" * 25 + "c\n" * 10)
        args = {
            "--input": column,
            "--column": "v",
            "--domain-list": "a,b,c,d,e,f,g,h",
            "--epsilon": "100",
            "--rho": "0.9",
            "--seed": "4",
            "--output": str(tmp_path / "out.json"),
        }
        args.update(over)
        return [x for pair in args.items() for x in pair if x is not None]

    def test_near_no_privacy_counts_close(self, capsys, tmp_path):
        code, _, err = run(capsys, "synth", *self.synth_args(tmp_path))
        assert code == 0
        release = load_histogram(tmp_path / "out.json")
        counts = dict(release.items())
        assert counts["a"] == pytest.approx(40.0, abs=0.5)
        assert counts["b"] == pytest.approx(25.0, abs=0.5)
        assert counts["c"] == pytest.approx(10.0, abs=0.5)
        assert "tau=" in err and "surviving=3" in err and "removed=0" in err

    def test_json_meta_block(self, capsys, tmp_path):
        code, _, _ = run(capsys, "synth", *self.synth_args(tmp_path))
        assert code == 0
        payload = json.loads((tmp_path / "out.json").read_text(encoding="utf-8"))
        meta = payload["meta"]
        assert meta["epsilon"] == 100.0
        assert meta["rho"] == 0.9
        assert meta["n"] == 8
        assert meta["seed"] == 4
        assert meta["tau"] == noisy_threshold(100.0, 0.9, 8)
        for b in payload["bins"]:
            assert b["origin"] in ("active", "injected")

    def test_csv_output_by_suffix(self, capsys, tmp_path):
        out = str(tmp_path / "out.csv")
        code, _, _ = run(capsys, "synth", *self.synth_args(tmp_path, **{"--output": out}))
        assert code == 0
        with open(out, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["category", "count", "origin"]

    def test_deterministic_given_seed(self, capsys, tmp_path):
        a = str(tmp_path / "a.json")
        b = str(tmp_path / "b.json")
        run(capsys, "synth", *self.synth_args(tmp_path, **{"--output": a}))
        run(capsys, "synth", *self.synth_args(tmp_path, **{"--output": b}))
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_records_written(self, capsys, tmp_path):
        records = tmp_path / "records.csv"
        code, _, _ = run(
            capsys,
            "synth",
            *self.synth_args(tmp_path),
            "--records", "50",
            "--records-output", str(records),
        )
        assert code == 0
        lines = records.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "category"
        assert len(lines) == 51
        assert set(lines[1:]) <= {"a", "b", "c", "d", "e", "f", "g", "h"}

    def test_records_bytes_match_per_row_writer(self, capsys, tmp_path):
        # Labels a CSV writer must quote, active and injected alike: the
        # generated domain's prefix holds a comma, a quote and a line break.
        prefix = 'a,b say "hi" line\n p'
        special = [f"{prefix}-{i}" for i in (0, 7, 123)]
        text = io.StringIO()
        csv.writer(text, lineterminator="\n").writerows([["v"]] + [[label] for label in special] * 300)
        column = write(tmp_path, "col.csv", text.getvalue())
        records = tmp_path / "records.csv"
        code, _, err = run(
            capsys,
            "synth",
            "--input", column,
            "--column", "v",
            "--domain-size", "1000000",
            "--domain-prefix", prefix,
            "--epsilon", "1",
            "--rho", "1e-200",
            "--seed", "4",
            "--output", str(tmp_path / "out.json"),
            "--records", "5000",
            "--records-output", str(records),
        )
        assert code == 0, err
        release = load_histogram(tmp_path / "out.json")
        expected = synthesize_records(make_rng(4, 2), release, 5000)
        assert set(special) <= set(expected)
        assert set(expected) - set(special)
        assert records.read_bytes() == records_csv_per_row(expected)

    @pytest.mark.parametrize("m", [1, 63, 64, 65, 199])
    def test_records_across_chunk_bounds(self, capsys, tmp_path, monkeypatch, m):
        monkeypatch.setattr(mechanism, "RECORDS_PER_CHUNK", 64)
        records = tmp_path / "records.csv"
        code, _, err = run(
            capsys, "synth", *self.synth_args(tmp_path), "--records", str(m), "--records-output", str(records)
        )
        assert code == 0, err
        release = load_histogram(tmp_path / "out.json")
        expected = synthesize_records(make_rng(4, 2), release, m)
        assert records.read_bytes() == records_csv_per_row(expected)

    @pytest.mark.parametrize(
        "cells, m, exit_code, message",
        [("a\nb\n", "-5", 1, "--records must be >= 0"), ("", "5", 2, "nothing to sample")],
        ids=["negative-records", "empty-release"],
    )
    def test_records_refused_before_any_output(self, capsys, tmp_path, cells, m, exit_code, message):
        column = write(tmp_path, "cells.csv", "v\n" + cells)
        records = tmp_path / "records.csv"
        code, _, err = run(
            # rho near 1: the empty column injects no bin either.
            capsys, "synth", *self.synth_args(tmp_path, **{"--input": column, "--rho": "0.999999"}),
            "--records", m, "--records-output", str(records),
        )
        assert code == exit_code
        assert message in err and "tau=" not in err
        assert not (tmp_path / "out.json").exists() and not records.exists()

    @pytest.mark.parametrize("missing", ["records", "release"])
    def test_unwritable_output_writes_neither_file(self, capsys, tmp_path, missing):
        paths = {"records": tmp_path / "records.csv", "release": tmp_path / "out.json"}
        paths[missing] = tmp_path / "missing" / paths[missing].name
        code, _, err = run(
            capsys, "synth", *self.synth_args(tmp_path, **{"--output": str(paths["release"])}),
            "--records", "5", "--records-output", str(paths["records"]),
        )
        assert code == 3, err
        assert "tau=" not in err
        assert not paths["records"].exists() and not paths["release"].exists()

    def test_word_pairs_over_a_word_with_a_space_exits_two(self, capsys, tmp_path):
        words = write(tmp_path, "w.txt", "a\na b\nb c\nc\n")
        args = self.synth_args(tmp_path)
        i = args.index("--domain-list")
        args[i:i + 2] = ["--domain-word-pairs", words]
        code, _, err = run(capsys, "synth", *args)
        assert code == 2 and "'a b'" in err and "tau=" not in err
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("domain", [
        ["--domain-list", ",".join(f"x{i}\udcff" for i in range(20))],
        ["--domain-size", "20", "--domain-prefix", "x\udcff"],
    ])
    def test_label_not_utf8_exits_two_before_any_output(self, capsys, tmp_path, domain):
        # A lone surrogate is what a command-line argument of non-UTF-8 bytes
        # decodes to. Every cell is dropped and rho is small, so the release
        # injects labels and only the domain's own check can refuse them.
        column = write(tmp_path, "col.csv", "v\nNA\nNA\n")
        code, _, err = run(capsys, "synth", "--input", column, "--column", "v", "--drop-value", "NA", *domain,
                           "--epsilon", "1", "--rho", "0.001", "--output", str(tmp_path / "out.json"))
        assert code == 2 and "not valid UTF-8" in err, err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["col.csv"]

    def test_records_memory_does_not_grow_with_the_count(self, capsys, tmp_path):
        # numpy's buffers are traced too: drawing all 2e6 records at once
        # held about 48 MB, drawing them a chunk at a time holds a few.
        column = write(tmp_path, "col.csv", "v\n" + "".join(f"c-{i}\n" * (i + 1) for i in range(200)))
        argv = ["synth", "--input", column, "--column", "v", "--domain-size", "1000", "--domain-prefix", "c",
                "--epsilon", "1", "--rho", "0.5", "--seed", "3", "--output", str(tmp_path / "out.json"),
                "--records", "2000000", "--records-output", str(tmp_path / "records.csv")]
        tracemalloc.start()
        try:
            code, _, err = run(capsys, *argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0, err
        assert (tmp_path / "records.csv").stat().st_size > 2_000_000 * 4
        assert peak < 8 * 2**20, f"traced peak {peak / 2**20:.1f} MB"

    def test_records_without_destination_is_usage_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "synth", *self.synth_args(tmp_path), "--records", "5")
        assert code == 1
        assert "--records-output" in err

    def test_negative_seed_is_usage_error_before_reading_input(self, capsys, tmp_path):
        # The input file does not exist: a run that read it would exit 3.
        args = self.synth_args(tmp_path, **{"--seed": "-1", "--input": str(tmp_path / "nope.csv")})
        code, _, err = run(capsys, "synth", *args, "--records", "5",
                           "--records-output", str(tmp_path / "records.csv"))
        assert code == 1
        assert "usage error: --seed must be >= 0, got -1" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["col.csv"]

    def test_missing_output_is_usage_error(self, capsys, tmp_path):
        args = self.synth_args(tmp_path)
        i = args.index("--output")
        del args[i:i + 2]
        code, _, err = run(capsys, "synth", *args)
        assert code == 1
        assert "--output is required" in err

    def test_out_of_domain_active_exits_two(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "synth", *self.synth_args(tmp_path, **{"--domain-list": "a,b"})
        )
        assert code == 2
        assert "outside the declared domain" in err

    def test_two_domains_is_usage_error(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "synth", *self.synth_args(tmp_path), "--domain-size", "10"
        )
        assert code == 1
        assert "exactly one of" in err

    def test_no_domain_is_usage_error(self, capsys, tmp_path):
        args = self.synth_args(tmp_path)
        i = args.index("--domain-list")
        del args[i:i + 2]
        code, _, err = run(capsys, "synth", *args)
        assert code == 1
        assert "exactly one of" in err

    def test_missing_input_file_exits_three(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "synth", *self.synth_args(tmp_path, **{"--input": str(tmp_path / "nope.csv")})
        )
        assert code == 3

    def test_nul_byte_in_input_exits_three(self, capsys, tmp_path):
        column = write(tmp_path, "nul.csv", "v\na\na\x00b\n")
        code, _, err = run(
            capsys, "synth", *self.synth_args(tmp_path, **{"--input": column})
        )
        assert code == 3
        assert "malformed CSV at line 3" in err

    def test_invalid_utf8_in_input_exits_three(self, capsys, tmp_path):
        column = tmp_path / "latin1.csv"
        column.write_bytes(b"v\na\n\xff\n")
        code, _, err = run(
            capsys, "synth", *self.synth_args(tmp_path, **{"--input": str(column)})
        )
        assert code == 3
        assert "malformed CSV at line 3: invalid UTF-8 byte 0xff" in err

    def test_covering_column_never_injects(self, capsys, tmp_path):
        # Every domain slot is active, so no slot is left to inject into.
        # When the binomial ran over all n slots, 4 of these 8 seeds asked
        # for a label anyway and exited 2 with "domain exhausted".
        column = write(tmp_path, "cover.csv", "v\na\né\n")
        out = tmp_path / "cover.json"
        for seed in range(8):
            code, _, err = run(
                capsys, "synth", "--input", column, "--column", "v", "--domain-list", "a,é",
                "--epsilon", "1", "--rho", "0.5", "--seed", str(seed), "--output", str(out),
            )
            assert code == 0, (seed, err)
            assert "injected=0" in err
            # An empty release reloads as an empty Histogram, so read the file.
            assert all(b["origin"] != "injected" for b in json.loads(out.read_text())["bins"])

    def test_empty_column_is_fine(self, capsys, tmp_path):
        column = write(tmp_path, "empty.csv", "v\n")
        code, _, _ = run(
            capsys, "synth", *self.synth_args(tmp_path, **{"--input": column})
        )
        assert code == 0
        release = load_histogram(tmp_path / "out.json")
        assert all(b.origin.value == "injected" for b in release.bins)

    @pytest.mark.parametrize("column, read", [("²", {"a", "c"}), ("1", {"b"}), ("٠", {"a", "c"})])
    def test_column_is_an_index_only_in_decimal_digits(self, capsys, tmp_path, column, read):
        # "²" passes str.isdigit but not int(), so it names the header's "²";
        # every decimal digit, ASCII or not, gives an index.
        path = write(tmp_path, "sq.csv", "²,x\na,b\na,b\nc,b\n")
        code, _, err = run(capsys, "synth", *self.synth_args(tmp_path, **{"--input": path, "--column": column}))
        assert code == 0, err
        assert {b.label for b in load_histogram(tmp_path / "out.json").active_bins()} == read

    def test_stdin_input(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("v\na\na\nb\n"))
        code, _, _ = run(
            capsys, "synth", *self.synth_args(tmp_path, **{"--input": "-"})
        )
        assert code == 0

    def test_domain_size_with_prefix(self, capsys, tmp_path):
        column = write(tmp_path, "col2.csv", "v\ntok-1\ntok-1\ntok-2\n")
        out = str(tmp_path / "o.json")
        code, _, _ = run(
            capsys, "synth",
            "--input", column, "--column", "v",
            "--domain-size", "1000", "--domain-prefix", "tok",
            "--epsilon", "50", "--rho", "0.9", "--seed", "1",
            "--output", out,
        )
        assert code == 0

    def test_domain_size_above_two_to_the_63_exits_two(self, capsys, tmp_path):
        # Refused whether or not the release would inject a label.
        column = write(tmp_path, "col.csv", "v\nx-5\n")
        for seed in range(1, 5):
            code, _, err = run(
                capsys, "synth",
                "--input", column, "--column", "v",
                "--domain-size", str(2**63 + 1), "--domain-prefix", "x",
                "--epsilon", "1", "--rho", "0.5", "--seed", str(seed),
                "--output", str(tmp_path / "o.json"),
            )
            assert code == 2 and "at most 2**63" in err, seed
        assert not (tmp_path / "o.json").exists()


class TestSweep:
    def sweep_args(self, tmp_path, out_name="sweep.csv", **over):
        column = write(tmp_path, "col.csv", "v\n" + "w-0\n" * 60 + "w-1\n" * 40)
        args = {
            "--input": column,
            "--column": "v",
            "--domain-size": "1000",
            "--domain-prefix": "w",
            "--epsilons": "0.1,1",
            "--rhos": "0.5,0.9",
            "--repetitions": "10",
            "--seed": "3",
            "--output": str(tmp_path / out_name),
        }
        args.update(over)
        return [x for pair in args.items() for x in pair if x is not None]

    def test_word_pairs_over_a_word_with_a_space_exits_two(self, capsys, tmp_path):
        words = write(tmp_path, "w.txt", "a\na b\nb c\nc\n")
        args = self.sweep_args(tmp_path)
        i = args.index("--domain-size")
        args[i:i + 4] = ["--domain-word-pairs", words]  # and --domain-prefix
        code, _, err = run(capsys, "sweep", *args)
        assert code == 2 and "'a b'" in err
        assert not (tmp_path / "sweep.csv").exists()

    def test_negative_seed_is_usage_error_before_any_cell(self, capsys, tmp_path):
        # The input file does not exist: a run that read it would exit 3.
        args = self.sweep_args(tmp_path, **{"--seed": "-1", "--input": str(tmp_path / "nope.csv")})
        code, _, err = run(capsys, "sweep", *args, "--jobs", "2")
        assert code == 1
        assert "usage error: --seed must be >= 0, got -1" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["col.csv"]

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_usage_error_before_reading_input(self, capsys, tmp_path, jobs):
        # Neither the wordlist nor the input exists: a run that read either
        # would exit 3.
        args = self.sweep_args(tmp_path, **{"--input": str(tmp_path / "nope.csv")})
        i = args.index("--domain-size")
        args[i:i + 4] = ["--domain-words", str(tmp_path / "nope.txt")]  # and --domain-prefix
        code, _, err = run(capsys, "sweep", *args, "--jobs", jobs)
        assert code == 1
        assert f"usage error: --jobs must be >= 1, got {jobs}" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["col.csv"]

    @pytest.mark.parametrize("flag, value, message", [
        ("--epsilons", "0.1,abc", "could not convert string to float: 'abc'"),
        ("--rhos", "0.5,,x", "could not convert string to float: 'x'"),
        ("--epsilons", " , ", "empty grid list"),
    ])
    def test_bad_grid_value_names_its_flag(self, capsys, tmp_path, flag, value, message):
        code, _, err = run(capsys, "sweep", *self.sweep_args(tmp_path, **{flag: value}))
        assert (code, err) == (1, f"usage error: argument {flag}: {message}\n")
        cfg = write(tmp_path, "c.json", json.dumps({flag[2:]: value}))
        args = self.sweep_args(tmp_path)
        del args[args.index(flag):args.index(flag) + 2]
        code, _, err = run(capsys, "sweep", "--config", cfg, *args)
        assert (code, err) == (1, f"usage error: {cfg}: argument {flag}: {message}\n")
        assert not (tmp_path / "sweep.csv").exists()

    def test_writes_plain_csv(self, capsys, tmp_path):
        code, _, err = run(capsys, "sweep", *self.sweep_args(tmp_path))
        assert code == 0
        assert "wrote 4 grid cells" in err
        with open(tmp_path / "sweep.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "epsilon", "rho", "mean_f", "stddev_f",
            "mean_injected", "mean_surviving", "repetitions", "status",
        ]
        assert len(rows) == 5
        for row in rows[1:]:
            assert row[7] == "ok"
            float(row[2])

    def test_byte_identical_rerun_and_jobs(self, capsys, tmp_path):
        run(capsys, "sweep", *self.sweep_args(tmp_path, out_name="a.csv"))
        run(capsys, "sweep", *self.sweep_args(tmp_path, out_name="b.csv"))
        run(capsys, "sweep", *self.sweep_args(tmp_path, out_name="c.csv"), "--jobs", "2")
        a = (tmp_path / "a.csv").read_bytes()
        assert a == (tmp_path / "b.csv").read_bytes()
        assert a == (tmp_path / "c.csv").read_bytes()

    def test_invalid_cell_reported_and_marked(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "sweep",
            *self.sweep_args(tmp_path, **{"--rhos": "1e-310,0.9", "--domain-size": "2"}),
        )
        assert code == 0
        for epsilon in ("0.1", "1.0"):
            assert f"cell epsilon={epsilon} rho=1e-310: invalid, rho^(1/n) < 1/2 for n=2" in err
        assert err.count(": invalid,") == 2
        with open(tmp_path / "sweep.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        statuses = {row[7] for row in rows[1:]}
        assert statuses == {"ok", "invalid"}

    def test_out_of_domain_active_exits_two(self, capsys, tmp_path):
        code, _, err = run(capsys, "sweep", *self.sweep_args(tmp_path, **{"--domain-prefix": "u"}))
        assert code == 2
        assert "outside the declared domain: ['w-0', 'w-1']" in err
        assert not (tmp_path / "sweep.csv").exists()

    def test_unknown_column_exits_three(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "sweep", *self.sweep_args(tmp_path, **{"--column": "nope"})
        )
        assert code == 3
        assert "no column named" in err

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_domain_loaded_once(self, capsys, tmp_path, monkeypatch, jobs):
        # Loads are logged to a file, so that a load in a pool worker counts too.
        log = tmp_path / "loads.log"

        def logging_load(spec):
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(f"{spec}\n")
            return load_domain(spec)

        monkeypatch.setattr("cathist.cli.load_domain", logging_load)
        monkeypatch.setattr("cathist.sweep.load_domain", logging_load)
        code, _, _ = run(capsys, "sweep", *self.sweep_args(tmp_path, **{"--jobs": jobs}))
        assert code == 0
        assert len(log.read_text(encoding="utf-8").splitlines()) == 1

    def test_csv_independent_of_hash_seed(self, tmp_path):
        # Many in-domain labels with uneven counts, so sum order shows in the bits.
        cells = [f"w-{i}" for i in range(60) for _ in range(2 + (7 * i) % 23)]
        column = write(tmp_path, "many.csv", "v\n" + "\n".join(cells) + "\n")
        outputs = []
        for hash_seed in (0, 1):
            out = tmp_path / f"sweep-{hash_seed}.csv"
            run_process(
                ["sweep", "--input", column, "--column", "v", "--domain-size", "1000",
                 "--domain-prefix", "w", "--epsilons", "0.5,2", "--rhos", "0.5,0.9",
                 "--repetitions", "10", "--seed", "3", "--output", str(out)],
                hash_seed,
            )
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


class TestFidelity:
    def test_identical_files_score_one(self, capsys, tmp_path):
        h = write(tmp_path, "h.csv", "category,count,origin\na,3.0,\nb,1.0,\n")
        code, out, _ = run(capsys, "fidelity", "--true-file", h, "--synth-file", h)
        assert code == 0
        assert parse_report(out)["fidelity"] == 1.0

    def test_disjoint_files_score_zero(self, capsys, tmp_path):
        t = write(tmp_path, "t.csv", "category,count,origin\na,3.0,\n")
        s = write(tmp_path, "s.csv", "category,count,origin\nz,3.0,\n")
        code, out, _ = run(capsys, "fidelity", "--true-file", t, "--synth-file", s)
        assert code == 0
        assert parse_report(out)["fidelity"] == 0.0

    def test_hand_case_quarter(self, capsys, tmp_path):
        t = write(tmp_path, "t.csv", "category,count,origin\na,1.0,\nb,1.0,\n")
        s = write(tmp_path, "s.csv", "category,count,origin\na,1.0,\nx,1.0,\n")
        code, out, _ = run(capsys, "fidelity", "--true-file", t, "--synth-file", s)
        assert code == 0
        values = parse_report(out)
        assert values["fidelity"] == 0.25
        assert values["intersection_size"] == 1
        assert values["true_mass_in_intersection"] == 0.5
        assert values["synth_mass_in_intersection"] == 0.5

    def test_pointwise_variant(self, capsys, tmp_path):
        t = write(tmp_path, "t.csv", "category,count,origin\na,1.0,\nb,1.0,\n")
        s = write(tmp_path, "s.csv", "category,count,origin\na,1.0,\nx,1.0,\n")
        code, out, _ = run(
            capsys, "fidelity", "--true-file", t, "--synth-file", s, "--variant", "pointwise"
        )
        assert code == 0
        assert parse_report(out)["fidelity_pointwise"] == 0.25

    def test_true_column_against_noisy_release(self, capsys, tmp_path):
        column = write(tmp_path, "col.csv", "v\na\na\na\nb\n")
        s = write(tmp_path, "s.csv", "category,count,origin\na,2.5,active\nb,1.5,active\n")
        code, out, _ = run(
            capsys, "fidelity",
            "--true-input", column, "--true-column", "v",
            "--synth-file", s,
        )
        assert code == 0
        assert parse_report(out)["fidelity"] == 1.0

    def test_both_true_sources_is_usage_error(self, capsys, tmp_path):
        h = write(tmp_path, "h.csv", "category,count,origin\na,1.0,\n")
        code, _, err = run(
            capsys, "fidelity",
            "--true-file", h, "--true-column", "v", "--synth-file", h,
        )
        assert code == 1
        assert "not both" in err

    def test_true_file_with_true_input_is_usage_error(self, capsys, tmp_path):
        h = write(tmp_path, "h.csv", "category,count,origin\na,1.0,\n")
        column = write(tmp_path, "col.csv", "v\nb\n")
        code, _, err = run(capsys, "fidelity", "--true-file", h, "--true-input", column, "--synth-file", h)
        assert code == 1
        assert "not both" in err

    @pytest.mark.parametrize("flags", [
        ["--true-no-header"], ["--true-delimiter", ";"], ["--drop-value", "a"],
    ], ids=["no-header", "delimiter", "drop-value"])
    def test_true_file_with_a_column_flag_is_usage_error(self, capsys, tmp_path, flags):
        # Each would be ignored: a histogram file is read as it is.
        h = write(tmp_path, "h.csv", "category,count,origin\na,1.0,\n")
        code, out, err = run(capsys, "fidelity", "--true-file", h, *flags, "--synth-file", h)
        assert (code, out) == (1, "")
        assert err == f"usage error: give either --true-file or {flags[0]}, not both\n"

    def test_missing_synth_file_flag(self, capsys, tmp_path):
        h = write(tmp_path, "h.csv", "category,count,origin\na,1.0,\n")
        code, _, err = run(capsys, "fidelity", "--true-file", h)
        assert code == 1
        assert "--synth-file is required" in err

    def test_noisy_true_file_is_accepted(self, capsys, tmp_path):
        t = write(tmp_path, "t.csv", "category,count,origin\na,3.0,active\nb,1.0,injected\n")
        code, out, _ = run(capsys, "fidelity", "--true-file", t, "--synth-file", t)
        assert code == 0
        assert parse_report(out)["fidelity"] == 1.0

    @pytest.mark.parametrize("variant", ["product", "pointwise"])
    def test_output_independent_of_hash_seed(self, tmp_path, variant):
        rng = np.random.default_rng(11)
        true_rows = "".join(f"w-{i},{rng.uniform(1, 50)!r},\n" for i in range(300))
        synth_rows = "".join(f"w-{i},{rng.uniform(1, 50)!r},active\n" for i in range(100, 400))
        t = write(tmp_path, "t.csv", "category,count,origin\n" + true_rows)
        s = write(tmp_path, "s.csv", "category,count,origin\n" + synth_rows)
        argv = ["fidelity", "--true-file", t, "--synth-file", s, "--variant", variant]
        assert run_process(argv, 0).stdout == run_process(argv, 1).stdout

    def test_invalid_utf8_synth_file_exits_three(self, capsys, tmp_path):
        t = write(tmp_path, "t.csv", "category,count,origin\na,1.0,\n")
        s = tmp_path / "s.json"
        s.write_bytes(b'{"bins": [{"label": "\xff", "count": 1.0, "origin": "active"}]}')
        code, _, err = run(capsys, "fidelity", "--true-file", t, "--synth-file", str(s))
        assert code == 3
        assert "invalid JSON" in err

    def test_json_bin_with_array_origin_exits_three(self, capsys, tmp_path):
        t = write(tmp_path, "t.csv", "category,count,origin\na,1.0,\n")
        s = write(tmp_path, "s.json", '{"bins": [{"label": "a", "count": 1.0, "origin": ["active"]}]}')
        code, _, err = run(capsys, "fidelity", "--true-file", t, "--synth-file", s)
        assert code == 3
        assert err.splitlines() == [f"error: {s}: bad bin at index 0: origin must be a string or null, got ['active']"]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_release_with_a_byte_order_mark_scores_as_without(self, capsys, tmp_path, fmt):
        # An editor may save a release with a UTF-8 byte-order mark in front.
        column = write(tmp_path, "col.csv", "v\n" + "cat-1\n" * 40 + "cat-2\n" * 30 + "cat-3\n" * 2)
        release = tmp_path / f"release.{fmt}"
        code, _, _ = run(capsys, "synth", "--input", column, "--column", "v", "--domain-size", "1000",
                         "--epsilon", "1", "--rho", "0.5", "--seed", "3", "--output", str(release))
        assert code == 0
        marked = tmp_path / f"marked.{fmt}"
        marked.write_bytes(b"\xef\xbb\xbf" + release.read_bytes())
        plain, with_mark = (
            run(capsys, "fidelity", "--true-input", column, "--true-column", "v", "--synth-file", str(path))
            for path in (release, marked)
        )
        assert plain[0] == with_mark[0] == 0
        assert with_mark[1] == plain[1] and "fidelity = " in plain[1]

    @pytest.mark.parametrize("flag", ["--synth-file", "--true-file"])
    def test_json_file_not_an_object_exits_three(self, capsys, tmp_path, flag):
        good = write(tmp_path, "good.csv", "category,count,origin\na,1.0,\n")
        bad = write(tmp_path, "bad.json", "[1, 2]")
        files = {"--true-file": good, "--synth-file": good, flag: bad}
        code, _, err = run(capsys, "fidelity", *(part for item in files.items() for part in item))
        assert code == 3
        assert err.splitlines() == [f"error: {bad}: expected a JSON object with a 'bins' array"]


class TestGoldenOutputs:
    """Same-seed outputs of a small column, pinned by their sha256 digests.

    A change to how columns are read, releases written and read, or sweep
    cells drawn must keep every byte. The labels need JSON escapes (a quote, a backslash, non-ASCII
    text) and CSV quoting; injected ones come from the domain's extra labels.
    """

    DIGESTS = {
        "release.json": "7422d9cd2e0ce8cb78fbe334915343c5357e99ebf4d11ecdb7ad336efeef90fa",
        "records.csv": "c51a1b1dc9686d78b8656d9ea93bdfd52833f067df3e7dccf314a0c16dfe78b0",
        "release.csv": "dd58649bd559a18c657fdec235f1311c324b403ee1ad5b67f178adfa5b03973e",
        "fidelity": "78431aff97add85e0afef232b97affbfd4596700c23a0a0f61a8b970f4cb8d99",
        "fidelity_pointwise": "8e03a2f50cc74878ef61a2d9322941c381be14168b08f3438fbdb44649df585e",
    }
    SWEEP_DIGEST = "b2b598f621d8a66486eafb8baf5d0e552ce40ea73c8ee307a71f0fba4d1500fc"

    @staticmethod
    def column_and_domain(tmp_path):
        labels = [f"w{i}" for i in range(40)] + ["é", "a\\b", "日本", "x y"]
        cells = [label for i, label in enumerate(labels) for _ in range(1 + (7 * i) % 23)]
        order = np.random.default_rng(5).permutation(len(cells))
        column = write(tmp_path, "col.csv", "word\n" + "".join(f" {cells[i]}\n" for i in order))
        extra = [f'z{i}"{"é" * (i % 2)}\\' for i in range(200)]
        return ["--input", column, "--column", "word", "--domain-list", ",".join(labels + extra)]

    def test_synth_and_fidelity_bytes(self, capsys, tmp_path):
        synth = ["synth", *self.column_and_domain(tmp_path), "--epsilon", "0.5", "--rho", "0.001", "--seed", "11"]
        column = str(tmp_path / "col.csv")
        outputs = {}
        code, _, err = run(capsys, *synth, "--output", str(tmp_path / "release.json"),
                           "--records", "300", "--records-output", str(tmp_path / "records.csv"))
        assert code == 0, err
        code, _, err = run(capsys, *synth, "--output", str(tmp_path / "release.csv"))
        assert code == 0, err
        for name in ("release.json", "records.csv", "release.csv"):
            outputs[name] = (tmp_path / name).read_bytes()
        for variant in ("product", "pointwise"):
            code, out, err = run(capsys, "fidelity", "--true-input", column, "--true-column", "word",
                                 "--synth-file", str(tmp_path / "release.json"), "--variant", variant)
            assert code == 0, err
            outputs["fidelity" if variant == "product" else "fidelity_pointwise"] = out.encode("utf-8")
        digests = {name: hashlib.sha256(data).hexdigest() for name, data in outputs.items()}
        assert digests == self.DIGESTS

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_sweep_bytes(self, capsys, tmp_path, jobs):
        out = tmp_path / "sweep.csv"
        code, _, err = run(capsys, "sweep", *self.column_and_domain(tmp_path), "--epsilons", "0.1,0.5,2",
                           "--rhos", "0.001,0.5", "--repetitions", "40", "--seed", "11", "--jobs", jobs,
                           "--output", str(out))
        assert code == 0, err
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.SWEEP_DIGEST


class TestConfigFile:
    def test_config_supplies_flags(self, capsys, tmp_path):
        cfg = write(tmp_path, "c.json", json.dumps({"epsilon": 1, "rho": 0.9, "n": 171000}))
        code, out, _ = run(capsys, "tau", "--config", cfg)
        assert code == 0
        assert parse_report(out)["tau"] == pytest.approx(13.606639290308964, rel=1e-12)

    def test_explicit_flag_overrides_config(self, capsys, tmp_path):
        cfg = write(tmp_path, "c.json", json.dumps({"epsilon": 1, "rho": 0.5, "n": 1}))
        code, out, _ = run(capsys, "tau", "--config", cfg, "--rho", "0.9", "--n", "171000")
        assert code == 0
        assert parse_report(out)["tau"] == pytest.approx(13.606639290308964, rel=1e-12)

    def test_unknown_key_is_usage_error(self, capsys, tmp_path):
        cfg = write(tmp_path, "c.json", json.dumps({"episolon": 1}))
        code, _, err = run(capsys, "tau", "--config", cfg)
        assert code == 1
        assert "unknown config key" in err

    # The refusals keep their places, so each keeps its test id.
    @pytest.mark.parametrize("command, key, value", [
        ("sweep", "repetitions", [3]),
        ("synth", "seed", 1.5),
        ("synth", "domain-size", [5]),
        ("synth", "seed", True),
        ("tau", "epsilon", "lots"),
        ("synth", "config", "other.json"),
        ("synth", "help", True),
        ("synth", "no-header", "false"),
        ("synth", "no-header", 0),
        ("tau", "eps", 1),
        ("synth", "output", None),
        ("synth", "format", "xml"),
        ("sweep", "epsilons", [0.1, True]),
        ("tau", "n", None),
        ("sweep", "rhos", [{"rho": 0.5}]),
    ])
    def test_value_of_wrong_type_is_usage_error(self, capsys, tmp_path, command, key, value):
        column = write(tmp_path, "col.csv", "v\ncat-0\n")
        flags = {"epsilon": 1.0, "rho": 0.5, "n": 10} if command == "tau" else {
            "input": column, "column": "v", "domain-size": 10, "output": str(tmp_path / "out.csv"),
            **({"epsilon": 1.0, "rho": 0.5} if command == "synth" else {}),
        }
        cfg = write(tmp_path, "c.json", json.dumps({**flags, key: value}))
        code, _, err = run(capsys, command, "--config", cfg)
        assert code == 1
        assert len(err.splitlines()) == 1 and err.startswith(f"usage error: {cfg}:"), err
        assert key in err

    COLUMN = "v\n" + "cat-1\n" * 5 + "cat-2\n" * 3 + "NA\n" * 2 + "1\n" + "5\n" * 2
    RELEASE = "category,count,origin\ncat-1,4.5,active\ncat-9,1.0,injected\n"

    # Each case: the config, its command-line spelling, and flags both runs add.
    @pytest.mark.parametrize("command, config, flags, common", [
        ("tau", {"epsilon": 1, "rho": 0.9, "n": 171000}, ["--epsilon", "1", "--rho", "0.9", "--n", "171000"], []),
        (
            "synth",
            {"input": 0, "column": 0, "no-header": False, "domain-list": ["cat-1", "cat-2", "cat-3", "cat-4"],
             "drop-value": ["NA", 1], "epsilon": 1, "rho": 0.5, "seed": 9, "records": 20,
             "records-output": "records.csv"},
            ["--input", "0", "--column", "0", "--domain-list", "cat-1,cat-2,cat-3,cat-4", "--drop-value", "NA",
             "--drop-value", "1", "--epsilon", "1", "--rho", "0.5", "--seed", "9", "--records", "20",
             "--records-output", "records.csv"],
            ["--drop-value", "5", "--seed", "3", "--output", "release.json"],
        ),
        (
            "sweep",
            {"input": 0, "column": "v", "epsilons": [0.5, 1], "rhos": ["0.5"], "repetitions": 5,
             "domain-size": 1000, "drop-value": 5},
            ["--input", "0", "--column", "v", "--epsilons", "0.5,1", "--rhos", "0.5", "--repetitions", "5",
             "--domain-size", "1000", "--drop-value", "5"],
            ["--drop-value", "NA", "--drop-value", "1", "--output", "sweep.csv"],
        ),
        (
            "fidelity",
            {"true-input": 0, "true-column": "v", "true-no-header": False, "drop-value": ["NA", 1, 5],
             "synth-file": "release.csv", "variant": "pointwise"},
            ["--true-input", "0", "--true-column", "v", "--drop-value", "NA", "--drop-value", "1",
             "--drop-value", "5", "--synth-file", "release.csv", "--variant", "pointwise"],
            [],
        ),
    ])
    def test_config_gives_what_its_flags_give(self, capsys, tmp_path, monkeypatch, command, config, flags, common):
        # A number is its text: {"input": 0} names the file 0. The command
        # line's --drop-values add to the config's; were they to replace them,
        # NA and 1 would be active labels outside the domain.
        cfg = write(tmp_path, "c.json", json.dumps(config))
        results = []
        for name, argv in (("config", ["--config", cfg]), ("flags", flags)):
            cwd = tmp_path / name
            cwd.mkdir()
            write(cwd, "0", self.COLUMN)
            write(cwd, "release.csv", self.RELEASE)
            monkeypatch.chdir(cwd)
            code, out, err = run(capsys, command, *argv, *common)
            assert code == 0, err
            results.append((out, err, {path.name: path.read_bytes() for path in sorted(cwd.iterdir())}))
        assert results[0] == results[1]

    def test_drop_value_string_drops_that_value(self, capsys, tmp_path):
        # Were "NA" taken as its letters, N would be dropped and NA, outside the domain, kept.
        column = write(tmp_path, "col.csv", "v\nNA\nNA\nN\ncat-1\n")
        flags = ["--input", column, "--column", "v", "--domain-list", "N,cat-1",
                 "--epsilon", "1", "--rho", "0.5", "--seed", "3"]
        cfg = write(tmp_path, "c.json", json.dumps({"drop-value": "NA"}))
        code, _, err = run(capsys, "synth", "--config", cfg, *flags, "--output", str(tmp_path / "a.csv"))
        assert code == 0, err
        assert run(capsys, "synth", "--drop-value", "NA", *flags, "--output", str(tmp_path / "b.csv"))[0] == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_invalid_json_exits_three(self, capsys, tmp_path):
        cfg = write(tmp_path, "c.json", "{oops")
        code, _, err = run(capsys, "tau", "--config", cfg)
        assert code == 3
        assert "invalid JSON" in err

    def test_invalid_utf8_config_exits_three(self, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_bytes(b'{"epsilon": 1, "rho": "\xff"}')
        code, _, err = run(capsys, "tau", "--config", str(cfg))
        assert code == 3
        assert "invalid JSON" in err

    def test_non_object_json_exits_three(self, capsys, tmp_path):
        cfg = write(tmp_path, "c.json", "[1, 2]")
        code, _, _ = run(capsys, "tau", "--config", cfg)
        assert code == 3

    def test_sweep_grid_from_config(self, capsys, tmp_path):
        column = write(tmp_path, "col.csv", "v\ncat-0\ncat-0\ncat-1\n")
        cfg = write(
            tmp_path, "c.json",
            json.dumps({
                "epsilons": [1.0], "rhos": [0.5, 0.9], "repetitions": 3,
                "domain-size": 1000,
            }),
        )
        out = str(tmp_path / "s.csv")
        code, _, _ = run(
            capsys, "sweep", "--config", cfg,
            "--input", column, "--column", "v", "--output", out,
        )
        assert code == 0
        with open(out, encoding="utf-8", newline="") as fh:
            assert len(list(csv.reader(fh))) == 3


class TestConsoleScript:
    @pytest.mark.skipif(
        shutil.which("cathist") is None,
        reason="console script 'cathist' is not on PATH; install the package "
        "(pip install -e \".[test]\" --no-build-isolation) to run this test",
    )
    def test_installed_entry_point(self, tmp_path):
        exe = shutil.which("cathist")
        assert exe, "console script 'cathist' is not on PATH"
        proc = subprocess.run(
            [exe, "tau", "--epsilon", "1", "--rho", "0.5", "--n", "1"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "tau = 0.0" in proc.stdout

    def test_declared_entry_point_runs(self):
        # What an installer's wrapper script does: import the module named in
        # [project.scripts] and call the attribute; checked without installing.
        tomllib = pytest.importorskip("tomllib")
        root = Path(__file__).resolve().parent.parent
        with open(root / "pyproject.toml", "rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["cathist"]
        module, _, attr = target.partition(":")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", f"import {module}; {module}.{attr}()",
             "tau", "--epsilon", "1", "--rho", "0.5", "--n", "1"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert "tau = 0.0" in proc.stdout
