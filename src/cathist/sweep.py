"""Fidelity sweeps over an (epsilon, rho) grid.

Each grid cell runs the mechanism `repetitions` times against the same input
column and reports mean/stddev fidelity plus mean injected and surviving bin
counts. A cell's repetitions draw what mechanism._draw_batch draws for
them: one seed, derived from (base_seed, epsilon index, rho index), and one
random stream shared by all of them, laid out as a release's (cat_hist is
_draw_batch's one repetition). So every cell is reproducible in isolation and
the CSV is byte-identical however many threads ran the cells, in whatever
order. The cells only read what they share: the column, the loaded domain and
the count of absent domain slots that the sweep's one membership check gives.

A cell builds no releases. Injected labels are drawn outside the active set,
so a release meets the column in its surviving active bins S only, and its
fidelity is

    F = true_mass(S) * noisy_mass(S) / (noisy_mass(S) + m*tau + sum of m Exp)

with m injected bins weighted tau + Exponential(epsilon). The cell takes
_draw_batch's draws (each repetition's m and weight uniforms, then the
active-bin uniforms) and computes F for all repetitions as whole-array work,
in blocks of rows; it never picks labels, which come last on the stream. Its
rows are what metrics.fidelity gives on the releases of those draws, each
repetition's labels picked in turn after them, up to the rounding of the
sums.

One case parts from that. A cell whose noisy or injected mass overflows (a
tiny epsilon) fails with ValidityError, as a release with a non-finite count
does; it fails too in the rare case where every count is finite and only
their sum is not, which a release does not refuse.
"""

from __future__ import annotations

import csv
import statistics
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .core import DomainSpec, Histogram, PrivacyParams, ValidityError
from .domain import DomainSampler, load_domain
from .ingest import ColumnSelector, read_histogram
from .mechanism import CatHistConfig, _absent_slots, _draw_batch
# Bound here although unused: bench/layers.py traces the mechanism and the
# score at the names the sweep imports.
from .mechanism import cat_hist  # noqa: F401
from .metrics import fidelity  # noqa: F401
from .numerics import derive_seed, threshold_defined

SWEEP_CSV_HEADER = (
    "epsilon", "rho", "mean_f", "stddev_f", "mean_injected",
    "mean_surviving", "repetitions", "status",
)

DEFAULT_EPSILONS = (0.01, 0.1, 1.0)
DEFAULT_RHOS = (0.1, 0.3, 0.5, 0.7, 0.9)


@dataclass(frozen=True)
class SweepConfig:
    column: ColumnSelector
    domain: DomainSpec
    epsilons: tuple[float, ...] = DEFAULT_EPSILONS
    rhos: tuple[float, ...] = DEFAULT_RHOS
    repetitions: int = 100
    base_seed: int = 0
    drop_values: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        if self.repetitions < 1:
            raise ValueError(f"repetitions must be >= 1, got {self.repetitions}")
        if not self.epsilons or not self.rhos:
            raise ValueError("epsilon and rho grids must be non-empty")


@dataclass(frozen=True)
class SweepRow:
    epsilon: float
    rho: float
    mean_f: float | None
    stddev_f: float | None
    mean_injected: float | None
    mean_surviving: float | None
    repetitions: int
    status: str  # "ok" or "invalid"


# Overflow at a tiny epsilon is checked below, or drops out with its bin.
@np.errstate(over="ignore")
def _run_cell(
    config: SweepConfig, hist: Histogram, sampler: DomainSampler, trials: int, eps_index: int, rho_index: int
) -> SweepRow:
    epsilon, rho = config.epsilons[eps_index], config.rhos[rho_index]
    if not threshold_defined(rho, sampler.size):
        return SweepRow(epsilon, rho, None, None, None, None, config.repetitions, "invalid")
    cell_config = CatHistConfig(
        privacy=PrivacyParams(epsilon, rho),
        domain=config.domain,
        seed=derive_seed(config.base_seed, eps_index, rho_index),
    )
    draws = _draw_batch(cell_config, hist, config.repetitions, sampler, trials)
    counts = draws.positive[1]
    shares = counts / hist.total
    scale = 1.0 / epsilon
    true_mass, noisy_mass, surviving = [], [], []
    for u in draws.uniforms:
        # cat_hist's per-bin arithmetic on the whole block, in place:
        # noisy = count + sign(u - 1/2) * scale * -log1p(-2|u - 1/2|).
        u -= 0.5
        noisy = np.abs(u)
        noisy *= -2.0
        np.log1p(noisy, out=noisy)
        noisy *= -scale
        np.copysign(noisy, u, out=noisy)
        noisy += counts
        kept = (noisy >= draws.threshold) & (noisy > 0)
        # Not noisy *= kept: a dropped bin's -inf times 0 would be nan.
        np.copyto(noisy, 0.0, where=~kept)
        true_mass.append(np.where(kept, shares, 0.0).sum(axis=1))
        noisy_mass.append(noisy.sum(axis=1))
        surviving.append(np.count_nonzero(kept, axis=1))
    injected = np.array([weights.size for weights in draws.weights])
    # Each injected weight is threshold + Exponential(epsilon).
    exponentials = -np.log1p(-np.concatenate(draws.weights)) / epsilon
    injected_mass = injected * draws.threshold + np.bincount(
        np.repeat(np.arange(config.repetitions), injected), exponentials, config.repetitions
    )
    noisy_mass = np.concatenate(noisy_mass)
    # At a tiny epsilon a noisy count or weight can overflow; a release
    # refuses it, and a cell refuses a noisy or injected mass that is not finite.
    if not (np.isfinite(noisy_mass).all() and np.isfinite(injected_mass).all()):
        raise ValidityError(f"noisy counts at epsilon={epsilon} overflow: a release mass is not finite")
    # Injected labels are never active, so a release meets the column in its
    # surviving bins only; an empty release scores 0.
    release_mass = noisy_mass + injected_mass
    synth_mass = np.divide(noisy_mass, release_mass, out=np.zeros_like(release_mass), where=release_mass > 0)
    fs = (np.concatenate(true_mass) * synth_mass).tolist()
    return SweepRow(
        epsilon=epsilon,
        rho=rho,
        mean_f=statistics.fmean(fs),
        stddev_f=statistics.pstdev(fs),
        mean_injected=statistics.fmean(injected.tolist()),
        mean_surviving=statistics.fmean(np.concatenate(surviving).tolist()),
        repetitions=config.repetitions,
        status="ok",
    )


def run_sweep(
    config: SweepConfig, jobs: int = 1, sampler: DomainSampler | None = None
) -> list[SweepRow]:
    """Run the full grid and return rows ordered by (epsilon, rho).

    The column is read, the domain loaded and the column's active labels
    checked against it once per sweep, before any cell runs, and only if
    some cell is valid; a pre-loaded sampler for config.domain may be passed
    to skip the load. The cells run on min(jobs, cells) threads: their
    array work releases the GIL. The rows are identical for any jobs and
    any hash seed, so the CSV is too.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    hist = read_histogram(config.column, config.drop_values)
    sampler = load_domain(config.domain) if sampler is None else sampler
    trials = 0
    if any(threshold_defined(rho, sampler.size) for rho in config.rhos):
        # As fidelity would: a column with no records cannot be scored.
        if hist.total <= 0:
            raise ValidityError("empty distribution: nothing to normalize")
        trials = _absent_slots(config.domain, hist, sampler)
    cells = [(ei, ri) for ei in range(len(config.epsilons)) for ri in range(len(config.rhos))]
    with ThreadPoolExecutor(min(jobs, len(cells))) as pool:
        rows = list(pool.map(partial(_run_cell, config, hist, sampler, trials), *zip(*cells)))
    return sorted(rows, key=lambda row: (row.epsilon, row.rho))


def write_sweep_csv(rows: list[SweepRow], path: str | Path) -> None:
    """Plain CSV, one row per grid cell, full-precision floats, no comments."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SWEEP_CSV_HEADER)
        for row in rows:
            writer.writerow((
                repr(float(row.epsilon)),
                repr(float(row.rho)),
                "" if row.mean_f is None else repr(row.mean_f),
                "" if row.stddev_f is None else repr(row.stddev_f),
                "" if row.mean_injected is None else repr(row.mean_injected),
                "" if row.mean_surviving is None else repr(row.mean_surviving),
                str(row.repetitions),
                row.status,
            ))
