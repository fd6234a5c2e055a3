"""Fidelity sweeps over an (epsilon, rho) grid.

Each grid cell runs the mechanism `repetitions` times against the same input
column and reports mean/stddev fidelity plus mean injected and surviving bin
counts. A cell's repetitions are one cat_hist_batch call: one seed, derived
from (base_seed, epsilon index, rho index), and one stream pair shared by all
of them. So every cell is reproducible in isolation and the CSV is
byte-identical no matter how many workers ran it or in what order. (Sharing
the streams changed the CSV values once, against versions that seeded every
repetition on its own.)
"""

from __future__ import annotations

import csv
import statistics
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from .core import DomainSpec, Histogram, PrivacyParams
from .domain import DomainSampler, load_domain
from .ingest import ColumnSelector, read_histogram
from .mechanism import CatHistConfig, TrialsConvention, cat_hist_batch
# Bound here although unused: bench/layers.py traces the mechanism at the
# names the sweep imports.
from .mechanism import cat_hist  # noqa: F401
from .metrics import fidelity
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
    trials: TrialsConvention = TrialsConvention.FULL_N
    allow_out_of_domain_active: bool = False
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


@dataclass(frozen=True)
class _SweepState:
    """What every cell of one sweep reads: the config, the column, the domain."""

    config: SweepConfig
    hist: Histogram
    sampler: DomainSampler


def _run_cell(state: _SweepState, eps_index: int, rho_index: int) -> SweepRow:
    config = state.config
    epsilon, rho = config.epsilons[eps_index], config.rhos[rho_index]
    if not threshold_defined(rho, state.sampler.size):
        return SweepRow(epsilon, rho, None, None, None, None, config.repetitions, "invalid")
    cell_config = CatHistConfig(
        privacy=PrivacyParams(epsilon, rho),
        domain=config.domain,
        seed=derive_seed(config.base_seed, eps_index, rho_index),
        trials=config.trials,
        allow_out_of_domain_active=config.allow_out_of_domain_active,
    )
    releases = cat_hist_batch(cell_config, state.hist, config.repetitions, sampler=state.sampler)
    fs = [fidelity(state.hist, noisy).value for noisy in releases]
    injected = [len(noisy.injected_bins()) for noisy in releases]
    surviving = [len(noisy.active_bins()) for noisy in releases]
    return SweepRow(
        epsilon=epsilon,
        rho=rho,
        mean_f=statistics.fmean(fs),
        stddev_f=statistics.pstdev(fs),
        mean_injected=statistics.fmean(injected),
        mean_surviving=statistics.fmean(surviving),
        repetitions=config.repetitions,
        status="ok",
    )


# Set once in each pool worker by _init_worker; the parent never sets it.
_worker_state: _SweepState | None = None


def _init_worker(state: _SweepState) -> None:
    global _worker_state
    _worker_state = state


def _run_worker_cell(eps_index: int, rho_index: int) -> SweepRow:
    return _run_cell(_worker_state, eps_index, rho_index)


def run_sweep(
    config: SweepConfig, jobs: int = 1, sampler: DomainSampler | None = None
) -> list[SweepRow]:
    """Run the full grid and return rows ordered by (epsilon, rho).

    The column is read and the domain loaded once per sweep; a pre-loaded
    sampler for config.domain may be passed to skip the load. jobs > 1
    spreads cells over at most min(jobs, cells) worker processes, each
    handed the column and the loaded domain once when it starts. The rows
    are identical for any jobs and any hash seed, so the CSV is too.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    state = _SweepState(
        config=config,
        hist=read_histogram(config.column, config.drop_values),
        sampler=load_domain(config.domain) if sampler is None else sampler,
    )
    cells = [(ei, ri) for ei in range(len(config.epsilons)) for ri in range(len(config.rhos))]
    workers = min(jobs, len(cells))
    if workers == 1:
        rows = [_run_cell(state, ei, ri) for ei, ri in cells]
    else:
        with ProcessPoolExecutor(workers, initializer=_init_worker, initargs=(state,)) as pool:
            rows = list(pool.map(_run_worker_cell, *zip(*cells)))
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
