"""Per-layer measurement from outside the package: a span tracer and probes.

The tracer wraps the package's public functions at the names their callers
bind (``cathist.cli.read_histogram``, ``cathist.sweep.cat_hist``, ...) and the
methods and constructors on their classes. It edits no package file: the
wrappers are installed for one traced operation and removed right after.
Spans stay in memory as flat arrays (name, parent, start, end); self time is a
span's duration minus the durations of its direct children, which is exact
because one thread makes strictly nested calls.

The probes time direct calls into each layer with the workload's own inputs.
Together they give the per-layer metrics listed in BENCHMARK.json.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import time
from array import array
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from cathist import cli, core, mechanism, metrics, sweep
from cathist.core import Histogram, NoisyHistogram, normalize
from cathist.domain import DomainSampler, load_domain
from cathist.ingest import ColumnSelector, load_histogram, read_histogram, write_histogram
from cathist.mechanism import CatHistConfig, cat_hist, synthesize_records
from cathist.metrics import fidelity, fidelity_pointwise
from cathist.numerics import (
    inclusion_probability,
    make_rng,
    noisy_threshold,
    sample_binomial,
    sample_laplace,
    sample_shifted_exponential,
)

# (span name, binding sites). A binding site is (owner, attribute): the module
# whose code calls the function through that name, or the class that owns
# the method.
SPANS: tuple[tuple[str, tuple[tuple[object, str], ...]], ...] = (
    ("cli.main", ((cli, "main"),)),
    ("sweep.run_sweep", ((cli, "run_sweep"),)),
    ("sweep.write_sweep_csv", ((cli, "write_sweep_csv"),)),
    ("ingest.read_histogram", ((cli, "read_histogram"), (sweep, "read_histogram"))),
    ("ingest.write_histogram", ((cli, "write_histogram"),)),
    ("ingest.load_histogram", ((cli, "load_histogram"),)),
    ("domain.load_domain", ((cli, "load_domain"), (sweep, "load_domain"), (mechanism, "load_domain"))),
    ("domain.contains", ((DomainSampler, "contains"),)),
    ("domain.sample_distinct", ((DomainSampler, "sample_distinct"),)),
    ("mechanism.cat_hist", ((cli, "cat_hist"), (sweep, "cat_hist"), (mechanism, "cat_hist"))),
    ("mechanism.synthesize_records", ((cli, "synthesize_records"),)),
    ("metrics.fidelity", ((cli, "fidelity"), (sweep, "fidelity"))),
    ("metrics.fidelity_pointwise", ((cli, "fidelity_pointwise"),)),
    ("numerics.make_rng", ((cli, "make_rng"), (mechanism, "make_rng"))),
    ("numerics.derive_seed", ((sweep, "derive_seed"),)),
    ("numerics.noisy_threshold", ((cli, "noisy_threshold"), (mechanism, "noisy_threshold"))),
    ("numerics.sample_binomial", ((mechanism, "sample_binomial"),)),
    ("numerics.sample_laplace", ((mechanism, "sample_laplace"),)),
    ("numerics.sample_shifted_exponential", ((mechanism, "sample_shifted_exponential"),)),
    ("core.Histogram", ((core.Histogram, "__init__"),)),
    ("core.NoisyHistogram", ((core.NoisyHistogram, "__init__"),)),
    ("core.normalize", ((mechanism, "normalize"), (metrics, "normalize"))),
)


# Labels per sample_distinct probe call: about what a huge-domain release injects.
DISTINCT_K = 500


class Tracer:
    """Records nested spans in memory while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._patches = [
            (owner, attr, self._wrap(name, getattr(owner, attr)))
            for name, sites in SPANS
            for owner, attr in sites
        ]

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        i = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        name_id = self._id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self._open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(i)

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, such as one whole operation."""
        i = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(i)

    @contextlib.contextmanager
    def installed(self):
        """Install every wrapper for the duration of the block, then restore."""
        originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in self._patches]
        for owner, attr, wrapped in self._patches:
            setattr(owner, attr, wrapped)
        try:
            yield self
        finally:
            for owner, attr, original in originals:
                setattr(owner, attr, original)

    def self_times(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total duration and total self time (s)."""
        n = len(self.start)
        if n == 0:
            return {}
        start = np.frombuffer(self.start, dtype=np.float64)
        dur = np.frombuffer(self.end, dtype=np.float64) - start
        parent = np.frombuffer(self.parent, dtype=np.int64)
        ids = np.frombuffer(self.name_id, dtype=np.uint16)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        own = dur - child
        k = len(self.names)
        calls = np.bincount(ids, minlength=k)
        total = np.bincount(ids, weights=dur, minlength=k)
        selfs = np.bincount(ids, weights=own, minlength=k)
        return {
            name: {"calls": int(calls[j]), "total_s": float(total[j]), "self_s": float(selfs[j])}
            for j, name in enumerate(self.names)
        }

    def dump(self, path: Path, first: int, last: int, aggregate: dict) -> None:
        """Write spans [first, last) (one traced operation) and the aggregates."""
        t0 = self.start[first] if last > first else 0.0
        spans = [
            [self.names[self.name_id[i]], self.parent[i] - first if self.parent[i] >= first else -1,
             round((self.start[i] - t0) * 1e6, 3), round((self.end[i] - self.start[i]) * 1e6, 3)]
            for i in range(first, last)
        ]
        path.write_text(json.dumps({
            "columns": ["name", "parent", "start_us", "duration_us"],
            "spans": spans,
            "aggregate": aggregate,
        }))


class CountingRng:
    """Generator proxy that counts ``integers`` calls, for draws per label."""

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng
        self.integers_calls = 0

    def integers(self, *args, **kwargs):
        self.integers_calls += 1
        return self._rng.integers(*args, **kwargs)

    def __getattr__(self, name: str):
        return getattr(self._rng, name)


def _timed(fn: Callable[[], object], min_reps: int = 3, min_seconds: float = 0.2,
           max_reps: int = 200) -> float:
    """Median wall time of fn() in seconds, over at least min_reps calls."""
    times = []
    spent = 0.0
    while len(times) < max_reps and (len(times) < min_reps or spent < min_seconds):
        t0 = time.perf_counter()
        fn()
        t = time.perf_counter() - t0
        times.append(t)
        spent += t
    return statistics.median(times)


def _micro_us(fn: Callable[[], object], calls: int = 200, batches: int = 15) -> float:
    """Median per-call time in microseconds of a cheap function, by batches."""
    per_call = []
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        per_call.append((time.perf_counter() - t0) / calls * 1e6)
    return statistics.median(per_call)


@dataclass(frozen=True)
class ProbeInputs:
    """What one workload hands the probes: its column, domain and setting."""

    column: ColumnSelector
    config: CatHistConfig
    sampler: DomainSampler
    records: int
    work_dir: Path


def run_probes(p: ProbeInputs) -> dict[str, float]:
    """Direct timed calls into every layer, on the workload's own inputs."""
    out: dict[str, float] = {}
    eps, rho = p.config.privacy.epsilon, p.config.privacy.rho
    n = p.sampler.size
    tau = noisy_threshold(eps, rho, n)
    prob = inclusion_probability(eps, tau)

    out["ingest.read_histogram_s"] = _timed(lambda: read_histogram(p.column))
    hist = read_histogram(p.column)
    out["ingest.rows_per_s"] = hist.total / out["ingest.read_histogram_s"]
    active = hist.active_domain()
    out["domain.load_domain_s"] = _timed(lambda: load_domain(p.config.domain))
    out["core.histogram_build_s"] = _timed(lambda: Histogram(hist.bins))

    releases: list[NoisyHistogram] = []

    def release() -> None:
        config = replace(p.config, seed=p.config.seed + len(releases))
        releases.append(cat_hist(config, hist, sampler=p.sampler))

    out["mechanism.cat_hist_s"] = _timed(release)
    trials = n  # every workload uses the default full-n convention
    out["mechanism.surviving"] = statistics.fmean(len(r.active_bins()) for r in releases)
    out["mechanism.removed"] = len(active) - out["mechanism.surviving"]
    out["mechanism.injected"] = statistics.fmean(len(r.injected_bins()) for r in releases)
    out["mechanism.expected_injected"] = trials * prob
    noisy = releases[0]
    out["core.noisy_histogram_build_s"] = _timed(lambda: NoisyHistogram(noisy.bins))
    out["core.normalize_s"] = _timed(lambda: normalize(noisy))
    out["metrics.fidelity_s"] = _timed(lambda: fidelity(hist, noisy))
    out["metrics.fidelity_pointwise_s"] = _timed(lambda: fidelity_pointwise(hist, noisy))
    out["mechanism.synthesize_records_s"] = _timed(
        lambda: synthesize_records(make_rng(p.config.seed, 2), noisy, p.records))

    path = p.work_dir / "probe-release.json"
    meta = {"epsilon": eps, "rho": rho, "n": n, "tau": tau, "seed": p.config.seed}
    out["ingest.write_histogram_s"] = _timed(lambda: write_histogram(noisy, path, meta=meta))
    out["ingest.release_bytes"] = path.stat().st_size
    out["ingest.load_histogram_s"] = _timed(lambda: load_histogram(path))

    out["domain.contains_active_us"] = _timed(
        lambda: [p.sampler.contains(label) for label in active]) * 1e6
    k = min(DISTINCT_K, n - len(active))
    out["domain.sample_distinct_us_per_label"] = _timed(
        lambda: p.sampler.sample_distinct(make_rng(p.config.seed, 3), k, exclude=active)) / k * 1e6
    counting = CountingRng(make_rng(p.config.seed, 3))
    p.sampler.sample_distinct(counting, k, exclude=active)
    out["domain.draws_per_label"] = counting.integers_calls / k

    rng = make_rng(p.config.seed, 4)
    out["numerics.make_rng_us"] = _micro_us(lambda: make_rng(p.config.seed, 0))
    out["numerics.noisy_threshold_us"] = _micro_us(lambda: noisy_threshold(eps, rho, n))
    out["numerics.sample_binomial_us"] = _micro_us(lambda: sample_binomial(rng, trials, prob), calls=20)
    out["numerics.sample_laplace_us"] = _micro_us(lambda: sample_laplace(rng, 100.0, 1.0 / eps))
    out["numerics.sample_shifted_exponential_us"] = _micro_us(
        lambda: sample_shifted_exponential(rng, eps, tau))
    return out
