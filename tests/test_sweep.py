import csv
import statistics
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

import cathist.sweep
from cathist.core import ExplicitList, PrivacyParams, SizeOnly, ValidityError, WordList, WordPairs
from cathist.domain import load_domain
from cathist.ingest import ColumnSelector, read_histogram
from cathist.mechanism import CatHistConfig
from cathist.metrics import fidelity
from cathist.numerics import derive_seed
from cathist.sweep import (
    DEFAULT_EPSILONS,
    DEFAULT_RHOS,
    SWEEP_CSV_HEADER,
    SweepConfig,
    run_sweep,
    write_sweep_csv,
)

from conftest import WORKCLASS_COUNTS, write_census
from oracles import cat_hist_per_rep


@pytest.fixture()
def column_file(tmp_path):
    path = tmp_path / "col.csv"
    rows = ["v"] + ["cat-0"] * 800 + ["cat-1"] * 150 + ["cat-2"] * 50
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return str(path)


def config(column_file, **kw):
    kw.setdefault("domain", SizeOnly(size=1_000))
    kw.setdefault("epsilons", (0.1, 1.0))
    kw.setdefault("rhos", (0.5, 0.9))
    kw.setdefault("repetitions", 20)
    kw.setdefault("base_seed", 7)
    return SweepConfig(column=ColumnSelector(column_file, "v"), **kw)


class TestRunSweep:
    def test_grid_shape_and_order(self, column_file):
        rows = run_sweep(config(column_file))
        assert [(r.epsilon, r.rho) for r in rows] == [
            (0.1, 0.5), (0.1, 0.9), (1.0, 0.5), (1.0, 0.9),
        ]
        for r in rows:
            assert r.status == "ok"
            assert r.repetitions == 20
            assert 0.0 <= r.mean_f <= 1.0
            assert r.mean_injected >= 0.0
            assert 0.0 <= r.mean_surviving <= 3.0

    def test_default_grid(self, column_file):
        cfg = SweepConfig(
            column=ColumnSelector(column_file, "v"),
            domain=SizeOnly(size=1_000),
            repetitions=2,
        )
        rows = run_sweep(cfg)
        assert len(rows) == len(DEFAULT_EPSILONS) * len(DEFAULT_RHOS)

    def test_deterministic_across_runs(self, column_file):
        assert run_sweep(config(column_file)) == run_sweep(config(column_file))

    def test_parallel_equals_serial(self, column_file):
        cfg = config(column_file)
        assert run_sweep(cfg, jobs=1) == run_sweep(cfg, jobs=2)

    def test_parallel_equals_serial_with_invalid_cells(self, column_file):
        cfg = config(
            column_file,
            domain=ExplicitList(labels=tuple(f"cat-{i}" for i in range(12))),
            rhos=(1e-4, 0.5),
        )
        serial = run_sweep(cfg, jobs=1)
        assert [r.status for r in serial] == ["invalid", "ok", "invalid", "ok"]
        assert run_sweep(cfg, jobs=2) == serial

    def test_pool_capped_at_cell_count(self, column_file, monkeypatch):
        sizes = []

        class RecordingPool(ThreadPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                sizes.append(max_workers)
                super().__init__(max_workers, **kwargs)

        monkeypatch.setattr("cathist.sweep.ThreadPoolExecutor", RecordingPool)
        cfg = config(column_file, rhos=(0.5,))
        assert run_sweep(cfg, jobs=4) == run_sweep(cfg, jobs=1)
        assert sizes == [2, 1]

    def test_preloaded_sampler_is_not_reloaded(self, column_file, monkeypatch):
        cfg = config(column_file)
        expected = run_sweep(cfg)
        sampler = load_domain(cfg.domain)

        def no_load(spec):
            raise AssertionError(f"domain {spec} loaded although a sampler was passed")

        monkeypatch.setattr("cathist.sweep.load_domain", no_load)
        assert run_sweep(cfg, sampler=sampler) == expected
        assert run_sweep(cfg, jobs=2, sampler=sampler) == expected

    def test_threads_equal_serial_on_a_wordlist(self, column_file, tmp_path):
        # Four threads share the column and the sampler; a short switch
        # interval makes them interleave often.
        words = tmp_path / "words.txt"
        words.write_text("".join(f"cat-{i}\n" for i in range(500)), encoding="utf-8")
        cfg = config(column_file, domain=WordList(str(words)))
        results = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for jobs in (4, 1):
                results.append(run_sweep(cfg, jobs=jobs))
        finally:
            sys.setswitchinterval(interval)
        assert results[0] == results[1]

    def test_out_of_domain_refused_once_before_any_cell(self, column_file, monkeypatch):
        # "cat-2" is active but not declared; the 1e-4 cells are invalid.
        domain = ExplicitList(labels=("cat-0", "cat-1", *(f"pad-{i}" for i in range(10))))
        checks, cells = [], []

        def counted(calls, function):
            def call(*args):
                calls.append(args)
                return function(*args)
            return call

        monkeypatch.setattr("cathist.sweep._absent_slots", counted(checks, cathist.sweep._absent_slots))
        monkeypatch.setattr("cathist.sweep._run_cell", counted(cells, cathist.sweep._run_cell))
        with pytest.raises(ValidityError, match=r"outside the declared domain: \['cat-2'\]"):
            run_sweep(config(column_file, domain=domain, rhos=(1e-4, 0.5)), jobs=2)
        assert (len(checks), len(cells)) == (1, 0)
        # A grid with no valid cell checks nothing, so it does not refuse
        # the undeclared label.
        rows = run_sweep(config(column_file, domain=domain, rhos=(1e-4,)), jobs=2)
        assert [r.status for r in rows] == ["invalid", "invalid"]
        assert (len(checks), len(cells)) == (1, 2)
        # A declared column is checked once for all its cells.
        rows = run_sweep(config(column_file, rhos=(1e-4, 0.5)), jobs=2)
        assert [r.status for r in rows] == ["ok"] * 4
        assert (len(checks), len(cells)) == (2, 6)

    def test_appending_grid_points_preserves_existing_cells(self, column_file):
        small = run_sweep(config(column_file, epsilons=(1.0,), rhos=(0.5,)))
        large = run_sweep(config(column_file, epsilons=(1.0, 2.0), rhos=(0.5, 0.9)))
        assert small[0] in large

    def test_base_seed_changes_results(self, column_file):
        a = run_sweep(config(column_file, base_seed=1))
        b = run_sweep(config(column_file, base_seed=2))
        assert a != b

    def test_invalid_cell_marked_and_skipped(self, column_file):
        cfg = SweepConfig(
            column=ColumnSelector(column_file, "v"),
            domain=ExplicitList(labels=tuple(f"cat-{i}" for i in range(12))),
            epsilons=(1.0,),
            rhos=(1e-4, 0.5),
            repetitions=5,
        )
        rows = run_sweep(cfg)
        # 1e-4^(1/12) = 0.46 < 1/2 -> invalid; 0.5^(1/12) = 0.94 -> fine.
        invalid, valid = rows[0], rows[1]
        assert invalid.status == "invalid"
        assert invalid.mean_f is None and invalid.stddev_f is None
        assert invalid.mean_injected is None and invalid.mean_surviving is None
        assert valid.status == "ok"

    def test_bad_config_rejected(self, column_file):
        with pytest.raises(ValueError, match="repetitions"):
            config(column_file, repetitions=0)
        with pytest.raises(ValueError, match="non-empty"):
            config(column_file, epsilons=())
        with pytest.raises(ValueError, match="jobs"):
            run_sweep(config(column_file), jobs=0)


def release_rows(cfg):
    """A sweep's rows computed the long way: each valid cell's releases,
    one per-bin release per repetition from one generator on the cell's
    derived seed, scored with fidelity."""
    hist = read_histogram(cfg.column, cfg.drop_values)
    sampler = load_domain(cfg.domain)
    rows = []
    for ei, epsilon in enumerate(cfg.epsilons):
        for ri, rho in enumerate(cfg.rhos):
            cell = CatHistConfig(PrivacyParams(epsilon, rho), cfg.domain, derive_seed(cfg.base_seed, ei, ri))
            releases = cat_hist_per_rep(cell, hist, sampler, cfg.repetitions)
            fs = [fidelity(hist, release).value for release in releases]
            rows.append({
                "epsilon": epsilon,
                "rho": rho,
                "mean_f": statistics.fmean(fs),
                "stddev_f": statistics.pstdev(fs),
                "mean_injected": statistics.fmean(len(r.injected_bins()) for r in releases),
                "mean_surviving": statistics.fmean(len(r.active_bins()) for r in releases),
                "injected": [len(r.injected_bins()) for r in releases],
                "empty": sum(len(r) == 0 for r in releases),
            })
    return sorted(rows, key=lambda row: (row["epsilon"], row["rho"]))


class TestCellsMatchReleases:
    """A cell computes its statistics from _draw_batch's draws without
    building releases; they must be what its releases and fidelity give."""

    @staticmethod
    def assert_rows_match(cfg):
        rows = run_sweep(cfg)
        expected = release_rows(cfg)
        assert len(rows) == len(expected)
        for row, want in zip(rows, expected):
            assert (row.epsilon, row.rho, row.status) == (want["epsilon"], want["rho"], "ok")
            assert row.mean_injected == want["mean_injected"]
            assert row.mean_surviving == want["mean_surviving"]
            assert row.mean_f == pytest.approx(want["mean_f"], rel=0, abs=1e-12)
            assert row.stddev_f == pytest.approx(want["stddev_f"], rel=0, abs=1e-12)
        return expected

    def test_census_column_against_wordlist(self, census_csv, wordlist_path):
        cfg = SweepConfig(
            column=ColumnSelector(census_csv, "sex"),
            domain=WordList(wordlist_path),
            repetitions=100,
            base_seed=11,
        )
        expected = self.assert_rows_match(cfg)
        assert sum(sum(cell["injected"]) for cell in expected) > 0

    def test_word_pairs_injecting_every_repetition(self, tmp_path, small_wordlist_path):
        # rho = 1e-200 injects about 460 bins into every release.
        path = tmp_path / "pairs.csv"
        rows = ["Male Female"] * 40 + ["Female Male"] * 3 + ["Female Female"] * 30
        path.write_text("\n".join(["p", *rows]) + "\n", encoding="utf-8")
        for base_seed in (5, 6):
            cfg = SweepConfig(
                column=ColumnSelector(str(path), "p"),
                domain=WordPairs(small_wordlist_path),
                epsilons=(0.5, 1.0),
                rhos=(1e-200, 0.5),
                repetitions=30,
                base_seed=base_seed,
            )
            expected = self.assert_rows_match(cfg)
            assert all(min(cell["injected"]) >= 300 for cell in expected if cell["rho"] == 1e-200)

    def test_cells_with_empty_releases(self, tmp_path):
        path = tmp_path / "small.csv"
        path.write_text("v\n" + "cat-0\n" * 9 + "cat-1\n" * 2, encoding="utf-8")
        cfg = SweepConfig(
            column=ColumnSelector(str(path), "v"),
            domain=SizeOnly(size=1_000),
            epsilons=(0.1, 1.0),
            rhos=(0.5, 0.9),
            repetitions=100,
            base_seed=3,
        )
        expected = self.assert_rows_match(cfg)
        assert all(cell["empty"] > 0 for cell in expected)
        assert any(cell["mean_f"] > 0 for cell in expected)

    def test_cell_over_many_row_blocks_equals_one_block(self, tmp_path, monkeypatch):
        # 9 active bins, the census workclass counts as generated labels:
        # blocks of 4 rows, then one block of all 100.
        census = write_census(tmp_path / "census.csv", {"workclass": {
            label: f"cat-{i}" for i, label in enumerate(WORKCLASS_COUNTS)
        }})
        cfg = SweepConfig(
            column=ColumnSelector(census, "workclass"),
            domain=SizeOnly(size=171_000),
            epsilons=(0.01, 1.0),
            rhos=(0.1, 0.9),
            repetitions=100,
            base_seed=2,
        )
        monkeypatch.setattr("cathist.mechanism.BLOCK_DRAWS", 40)
        blocked = run_sweep(cfg)
        monkeypatch.undo()
        assert run_sweep(cfg) == blocked

    def test_exhausted_domain_fails_the_cell_as_a_release(self, column_file):
        # The column covers the domain: no slot is absent, so the binomial
        # runs over no trials and neither a cell nor a release injects.
        domain = ExplicitList(labels=("cat-0", "cat-1", "cat-2"))
        cfg = config(column_file, domain=domain, epsilons=(1.0,), rhos=(0.6,))
        assert [row.mean_injected for row in run_sweep(cfg)] == [0.0]
        assert [cell["mean_injected"] for cell in release_rows(cfg)] == [0.0]

    def test_overflowing_counts_fail_the_cell_as_a_release(self, column_file):
        # At epsilon = 1e-308 the threshold is finite (about 1.4e308) but a
        # Laplace magnitude above 1.8, or an Exponential one, overflows the
        # count to inf: a release refuses such a bin, and so must a cell. A
        # bin at -inf is dropped and harms neither (seeds 4 and 11 make one).
        # At seed 0 every count is finite but their sum is not: scoring the
        # release refuses it, and the cell refuses its mass.
        domain = ExplicitList(labels=tuple(f"cat-{i}" for i in range(9)))
        outcomes = set()
        for seed in range(12):
            cfg = config(column_file, domain=domain, epsilons=(1e-308,), rhos=(0.3,), repetitions=1, base_seed=seed)
            try:
                release_rows(cfg)
            except ValidityError as exc:
                assert "must be finite" in str(exc) or "total is not finite" in str(exc)
                with pytest.raises(ValidityError, match="not finite"):
                    run_sweep(cfg)
                outcomes.add("refused")
            else:
                self.assert_rows_match(cfg)
                outcomes.add("ok")
        assert outcomes == {"refused", "ok"}
        cfg = config(column_file, domain=domain, epsilons=(1e-308,), rhos=(0.3,), repetitions=50)
        with pytest.raises(ValidityError, match="must be finite"):
            release_rows(cfg)
        with pytest.raises(ValidityError, match="not finite"):
            run_sweep(cfg)

    def test_cells_never_meet_the_rejection_cap(self, tmp_path, monkeypatch):
        # 199 of the 200 generated slots are active, so an injected label
        # would take about 200 rejection draws. The absent label is drawn
        # directly instead, so with the cap cut to one attempt per label the
        # releases still succeed, and the cells, which pick no labels, report
        # the rows the releases give.
        path = tmp_path / "dense.csv"
        path.write_text("v\n" + "".join(f"x-{i}\n" for i in range(199)), encoding="utf-8")
        cfg = SweepConfig(
            column=ColumnSelector(str(path), "v"),
            domain=SizeOnly(size=200, prefix="x"),
            epsilons=(1.0,),
            rhos=(1e-30,),
            repetitions=50,
            base_seed=1,
        )
        monkeypatch.setattr("cathist.domain.RETRY_FACTOR", 1)
        expected = self.assert_rows_match(cfg)
        assert expected[0]["mean_injected"] > 0

    def test_empty_column_is_an_error(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("v\n\n", encoding="utf-8")
        cfg = SweepConfig(column=ColumnSelector(str(path), "v"), domain=SizeOnly(size=1_000), repetitions=3)
        with pytest.raises(ValidityError, match="empty distribution"):
            run_sweep(cfg)


class TestWriteSweepCsv:
    def test_header_and_plain_csv(self, column_file, tmp_path):
        rows = run_sweep(config(column_file))
        out = tmp_path / "sweep.csv"
        write_sweep_csv(rows, out)
        with open(out, encoding="utf-8", newline="") as fh:
            parsed = list(csv.reader(fh))
        assert tuple(parsed[0]) == SWEEP_CSV_HEADER
        assert len(parsed) == 1 + len(rows)
        for raw, row in zip(parsed[1:], rows):
            assert float(raw[0]) == row.epsilon
            assert float(raw[2]) == row.mean_f
            assert raw[7] == "ok"

    def test_invalid_row_has_empty_stat_fields(self, column_file, tmp_path):
        cfg = SweepConfig(
            column=ColumnSelector(column_file, "v"),
            domain=ExplicitList(labels=("cat-0",)),
            epsilons=(1.0,),
            rhos=(0.3,),
            repetitions=5,
        )
        out = tmp_path / "sweep.csv"
        write_sweep_csv(run_sweep(cfg), out)
        with open(out, encoding="utf-8", newline="") as fh:
            parsed = list(csv.reader(fh))
        assert parsed[1][2:6] == ["", "", "", ""]
        assert parsed[1][7] == "invalid"

    def test_byte_identical_reruns(self, column_file, tmp_path):
        cfg = config(column_file)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_sweep_csv(run_sweep(cfg, jobs=1), a)
        write_sweep_csv(run_sweep(cfg, jobs=2), b)
        assert a.read_bytes() == b.read_bytes()
