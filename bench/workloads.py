"""The three workloads: closed-loop timed operations, output checks, metrics.

One caller makes one call at a time; each call starts after the previous one
returns. A round runs every operation of the workload once, in a fixed order,
and rounds repeat until the time budget is spent (at least `min_rounds`). A
warm-up round runs first: it fills the file cache and starts lazy set-up, and
its outputs are the references that later outputs must match byte for byte.
Only the call itself is timed; checks run between calls.

Why each workload exists, and which layers it loads or leaves idle:

census-sweep  CLI `sweep` over the default 3x5 (epsilon, rho) grid on the
    32 561-row census `workclass` column (9 labels, two borderline at counts
    7 and 14) against a 171k wordlist, with `--jobs 1` and `--jobs 2`. Many
    tiny releases, so per-release fixed cost (two make_rng calls,
    noisy_threshold, NoisyHistogram validation, fidelity set-up) and sweep
    orchestration (process pool, per-cell domain reload, pickled histogram)
    dominate. Ingest and per-bin loops are nearly idle.
wide-release  CLI `synth` (JSON release plus 1e6 records) and CLI `fidelity`
    on a 1e6-row column with 1e5 active labels. Work scales with rows and
    active bins; serialization runs both ways. Injection is about 0 and the
    domain loads once per call, so those layers are nearly idle.
huge-domain  Library `cat_hist` loop: (a) 10 active labels against size-only
    domains of n = 1e3, 1e6, 1e9, 1e12 at rho 0.9, and (b) 3 active word
    pairs against the ~2.9e10 word-pair domain at rho = e^-500, about 500
    injected bins per release. The only workload where injection (binomial
    walk, sample_distinct rejection, shifted-exponential weights) dominates;
    ingest, fidelity and active noise are trivial. (a) is the paper's claim
    that release cost stays flat in n.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import random
import re
import statistics
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

from cathist import cli, mechanism
from cathist.core import NoisyHistogram, Origin, PrivacyParams, SizeOnly, WordList, WordPairs
from cathist.domain import DomainSampler, load_domain
from cathist.ingest import ColumnSelector, load_histogram, read_histogram
from cathist.mechanism import CatHistConfig
from cathist.numerics import noisy_threshold
from cathist.sweep import DEFAULT_EPSILONS, DEFAULT_RHOS, SWEEP_CSV_HEADER

from layers import ProbeInputs, Tracer, run_probes

# Percentiles a tail may be reported at; the highest one with at least ten
# samples beyond it is used.
TAIL_PERCENTILES = (50.0, 90.0, 99.0, 99.9)
HUGE_SIZES = (10**3, 10**6, 10**9, 10**12)
HUGE_LN_RHO = -500.0
EPSILON = 1.0
RHO = 0.9
MAX_PROBLEMS = 20
HEADLINE = {"mean": statistics.fmean, "min": min}


@dataclass
class Op:
    """One timed operation: prepare (untimed), call (timed), check (untimed)."""

    name: str
    metric: str  # named end-to-end metric of this operation's latency
    scale: float  # seconds -> the metric's unit
    call: Callable[[], object]
    check: Callable[[object], list[str]]
    prepare: Callable[[], None] = lambda: None


@dataclass
class Plan:
    ops: list[Op]
    op1: str  # the ops reported as op1_ms and op2_ms
    op2: str
    # How op1_ms and op2_ms summarize a run's calls: "mean" for calls of a
    # second or so, "min" for sub-millisecond library calls (see README).
    headline: str
    probe: ProbeInputs
    min_rounds: int
    final_checks: Callable[[], list[str]] = lambda: []
    extra: Callable[[dict[str, list[float]]], dict[str, dict]] = lambda samples: {}


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            room = MAX_PROBLEMS - len(self.problems)
            self.problems.extend(f"{what}: {p}" for p in problems[:max(room, 0)])


@dataclass(frozen=True)
class CliResult:
    code: int
    stdout: str
    stderr: str


def cli_op(argv: list[str]) -> Callable[[], CliResult]:
    def call() -> CliResult:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)  # looked up per call, so a traced run sees the wrapper
        return CliResult(code, out.getvalue(), err.getvalue())
    return call


def exit_problems(res: CliResult) -> list[str]:
    if res.code == 0:
        return []
    return [f"exit code {res.code}: {res.stderr.strip()[-300:]}"]


def summarize(values: list[float], scale: float = 1.0) -> dict:
    """Median, the highest percentile with at least ten samples beyond it,
    mean and minimum."""
    n = len(values)
    if n == 0:
        return {"median": None, "tail": None, "tail_pct": None, "mean": None, "min": None, "samples": 0}
    ordered = sorted(v * scale for v in values)
    tail_pct = tail = None
    for q in TAIL_PERCENTILES:
        rank = math.ceil(q / 100 * n)
        if n - rank >= 10:
            tail_pct, tail = q, ordered[rank - 1]
    return {"median": statistics.median(ordered), "tail": tail, "tail_pct": tail_pct,
            "mean": statistics.fmean(ordered), "min": ordered[0], "samples": n}


def release_problems(noisy: object, sampler: DomainSampler, tau: float, active: set[str]) -> list[str]:
    """Checks every release must pass, wherever it comes from."""
    if not isinstance(noisy, NoisyHistogram):
        return [f"release is a {type(noisy).__name__}, not a NoisyHistogram"]
    problems = []
    outside = [b.label for b in noisy.bins if not sampler.contains(b.label)]
    if outside:
        problems.append(f"{len(outside)} released labels outside the domain, e.g. {outside[:3]}")
    for b in noisy.bins:
        if b.origin is Origin.INJECTED and not (b.count > tau and b.label not in active):
            problems.append(f"injected bin {b.label!r} count {b.count!r} (tau {tau!r}) or label is active")
            break
        if b.origin is Origin.ACTIVE and not (b.count >= tau and b.label in active):
            problems.append(f"active bin {b.label!r} count {b.count!r} below tau or not active")
            break
    return problems


def expected_injected(ln_rho: float, n: int) -> tuple[float, float]:
    """Mean and variance of the injected count, n(1 - rho^(1/n)), full-n trials."""
    p = -math.expm1(ln_rho / n)
    return n * p, n * p * (1.0 - p)


def five_sigma(label: str, counts: list[int], ln_rho: float, n: int) -> list[str]:
    mean, var = expected_injected(ln_rho, n)
    got = statistics.fmean(counts)
    sigma = math.sqrt(var / len(counts))
    if abs(got - mean) <= 5 * sigma:
        return []
    return [f"{label}: mean injected {got:.4f} over {len(counts)} releases, "
            f"expected {mean:.4f} +- 5 x {sigma:.4f}"]


# --------------------------------------------------------------------------
# census-sweep


def census_sweep(files: dict, params: dict, work: Path, seed: int, smoke: bool) -> Plan:
    census, words = files["census.csv"]["path"], files["words.txt"]["path"]
    repetitions = 5 if smoke else 100
    outputs = {1: work / "sweep-jobs1.csv", 2: work / "sweep-jobs2.csv"}
    reference: list[bytes] = []

    def argv(jobs: int) -> list[str]:
        return ["sweep", "--input", census, "--column", params["column"], "--domain-words", words,
                "--repetitions", str(repetitions), "--seed", str(seed), "--jobs", str(jobs),
                "--output", str(outputs[jobs])]

    def sweep_csv_problems(data: bytes) -> list[str]:
        rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))
        if not rows or tuple(rows[0]) != SWEEP_CSV_HEADER:
            return ["sweep CSV header is wrong"]
        grid = [(e, r) for e in DEFAULT_EPSILONS for r in DEFAULT_RHOS]
        if [(float(r[0]), float(r[1])) for r in rows[1:]] != grid:
            return ["sweep CSV does not hold the default grid in order"]
        problems = []
        for r in rows[1:]:
            mean_f, stddev_f, mean_inj, mean_surv = map(float, r[2:6])
            if r[7] != "ok" or int(r[6]) != repetitions:
                problems.append(f"cell {r[:2]}: status {r[7]}, repetitions {r[6]}")
            if not (0.0 <= mean_f <= 1.0 and stddev_f >= 0.0):
                problems.append(f"cell {r[:2]}: fidelity {mean_f} outside [0, 1]")
            if not (0.0 <= mean_surv <= params["active"] and mean_inj >= 0.0):
                problems.append(f"cell {r[:2]}: surviving {mean_surv}, injected {mean_inj}")
        return problems

    def check(jobs: int) -> Callable[[CliResult], list[str]]:
        def run(res: CliResult) -> list[str]:
            problems = exit_problems(res)
            if problems:
                return problems
            data = outputs[jobs].read_bytes()
            if not reference:
                reference.append(data)
                return sweep_csv_problems(data)
            if data != reference[0]:
                return [f"--jobs {jobs} sweep CSV differs from the first sweep's bytes"]
            return []
        return run

    def prepare(jobs: int) -> Callable[[], None]:
        return lambda: outputs[jobs].unlink(missing_ok=True)

    ops = [
        Op("sweep", "sweep_s", 1.0, cli_op(argv(1)), check(1), prepare(1)),
        Op("sweep_jobs2", "sweep_jobs2_s", 1.0, cli_op(argv(2)), check(2), prepare(2)),
    ]
    spec = WordList(words)
    probe = ProbeInputs(
        column=ColumnSelector(census, params["column"]),
        config=CatHistConfig(PrivacyParams(EPSILON, RHO), spec, seed),
        sampler=load_domain(spec),
        records=params["rows"],
        work_dir=work,
    )
    return Plan(ops, "sweep", "sweep_jobs2", "mean", probe, min_rounds=3)


# --------------------------------------------------------------------------
# wide-release


def wide_release(files: dict, params: dict, work: Path, seed: int, smoke: bool) -> Plan:
    column, words = files["wide.csv"]["path"], files["words.txt"]["path"]
    release, records = work / "release.json", work / "records.csv"
    spec = WordList(words)
    sampler = load_domain(spec)
    synth_argv = ["synth", "--input", column, "--column", params["column"], "--domain-words", words,
                  "--epsilon", str(EPSILON), "--rho", str(RHO), "--seed", str(seed),
                  "--output", str(release), "--records", str(params["rows"]),
                  "--records-output", str(records)]
    fidelity_argv = ["fidelity", "--true-input", column, "--true-column", params["column"],
                     "--synth-file", str(release)]
    reference: dict[str, object] = {}

    def first_synth_problems(res: CliResult) -> list[str]:
        tau = noisy_threshold(EPSILON, RHO, sampler.size)
        try:
            noisy = load_histogram(release)
        except Exception as exc:  # any failure to reload is a failed check
            return [f"release does not reload through load_histogram: {exc}"]
        meta = json.loads(release.read_text(encoding="utf-8")).get("meta")
        want = {"epsilon": EPSILON, "rho": RHO, "n": sampler.size, "tau": tau, "seed": seed}
        problems = [] if meta == want else [f"meta {meta} does not match the flags {want}"]
        true_active = read_histogram(ColumnSelector(column, params["column"])).active_domain()
        problems += release_problems(noisy, sampler, tau, true_active)
        if problems:
            return problems
        m = re.search(r"surviving=(\d+) removed=(\d+) injected=(\d+)", res.stderr)
        if not m:
            return ["synth did not report surviving/removed/injected"]
        surviving, removed, injected = map(int, m.groups())
        if surviving != len(noisy.active_bins()) or injected != len(noisy.injected_bins()):
            problems.append("reported surviving/injected do not match the release")
        if surviving + removed != len(true_active) or len(true_active) != params["active"]:
            problems.append(f"surviving + removed = {surviving + removed}, active = {len(true_active)}")
        labels = set(noisy.labels())
        with open(records, encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            count = bad = 0
            for row in reader:
                count += 1
                bad += len(row) != 1 or row[0] not in labels
        if header != ["category"] or count != params["rows"] or bad:
            problems.append(f"records: header {header}, {count} rows, {bad} not in the release")
        reference["surviving"] = surviving
        return problems

    def check_synth(res: CliResult) -> list[str]:
        problems = exit_problems(res)
        if problems:
            return problems
        digest = (release.read_bytes(), hashlib.sha256(records.read_bytes()).hexdigest())
        if "synth" not in reference:
            reference["synth"] = digest
            return first_synth_problems(res)
        if digest != reference["synth"]:
            return ["same-seed synth re-run is not byte-identical"]
        return []

    def check_fidelity(res: CliResult) -> list[str]:
        problems = exit_problems(res)
        if problems:
            return problems
        if "fidelity" not in reference:
            reference["fidelity"] = res.stdout
            values = dict(line.split(" = ", 1) for line in res.stdout.splitlines() if " = " in line)
            score = float(values.get("fidelity", "nan"))
            if not 0.0 <= score <= 1.0:
                return [f"fidelity {score} outside [0, 1]"]
            if int(values.get("intersection_size", -1)) != reference.get("surviving"):
                return ["intersection size differs from the surviving active bins"]
            return []
        if res.stdout != reference["fidelity"]:
            return ["fidelity output changed between calls on the same release"]
        return []

    def prepare_synth() -> None:
        release.unlink(missing_ok=True)
        records.unlink(missing_ok=True)

    ops = [
        Op("synth", "synth_s", 1.0, cli_op(synth_argv), check_synth, prepare_synth),
        Op("fidelity", "fidelity_s", 1.0, cli_op(fidelity_argv), check_fidelity),
    ]
    probe = ProbeInputs(
        column=ColumnSelector(column, params["column"]),
        config=CatHistConfig(PrivacyParams(EPSILON, RHO), spec, seed),
        sampler=sampler,
        records=params["rows"],
        work_dir=work,
    )
    return Plan(ops, "synth", "fidelity", "mean", probe, min_rounds=3)


# --------------------------------------------------------------------------
# huge-domain


def huge_domain(files: dict, params: dict, work: Path, seed: int, smoke: bool) -> Plan:
    words = files["words.txt"]["path"]
    settings = [
        (f"release_n1e{round(math.log10(n))}", CatHistConfig(PrivacyParams(EPSILON, RHO), SizeOnly(n), seed),
         ColumnSelector(files["sizeonly.csv"]["path"], "category"), math.log(RHO))
        for n in HUGE_SIZES
    ]
    settings.append(("inject_release",
                     CatHistConfig(PrivacyParams(EPSILON, math.exp(HUGE_LN_RHO)), WordPairs(words), seed),
                     ColumnSelector(files["pairs.csv"]["path"], "pair"), HUGE_LN_RHO))
    injected: dict[str, list[int]] = {}
    ops = []
    samplers = {}
    for name, config, column, ln_rho in settings:
        hist = read_histogram(column)
        sampler = samplers[name] = load_domain(config.domain)
        tau = noisy_threshold(config.privacy.epsilon, config.privacy.rho, sampler.size)
        injected[name] = []
        state = {"config": config, "next": 0}

        def prepare(state=state, config=config) -> None:
            state["config"] = replace(config, seed=(config.seed << 32) + state["next"])
            state["next"] += 1

        def call(state=state, hist=hist, sampler=sampler) -> NoisyHistogram:
            return mechanism.cat_hist(state["config"], hist, sampler=sampler)

        def check(noisy, name=name, sampler=sampler, tau=tau, active=hist.active_domain()) -> list[str]:
            problems = release_problems(noisy, sampler, tau, active)
            if not problems:
                injected[name].append(len(noisy.injected_bins()))
            return problems

        metric = {"release_n1e12": "release_us", "inject_release": "inject_release_us"}.get(name, name + "_us")
        ops.append(Op(name, metric, 1e6, call, check, prepare))

    def final_checks() -> list[str]:
        problems = []
        for name, _, _, ln_rho in settings:
            if injected[name]:
                problems += five_sigma(name, injected[name], ln_rho, samplers[name].size)
        return problems

    def extra(samples: dict[str, list[float]]) -> dict[str, dict]:
        big, small = samples["release_n1e12"], samples["release_n1e3"]
        tail = summarize(big, 1e6)
        return {
            "release_p99_us": {"value": tail["tail"], "unit": "us", "percentile": tail["tail_pct"],
                               "samples": tail["samples"]},
            "scale_ratio": {"value": statistics.median(big) / statistics.median(small), "unit": "ratio",
                            "note": "median release time at n=1e12 / median at n=1e3"},
            "scale_ratio_min": {"value": min(big) / min(small), "unit": "ratio",
                                "note": "fastest release at n=1e12 / fastest at n=1e3"},
        }

    name, config, column, _ = settings[-1]
    probe = ProbeInputs(column=column, config=config, sampler=samplers[name],
                        records=int(read_histogram(column).total), work_dir=work)
    return Plan(ops, "release_n1e12", "inject_release", "min", probe, min_rounds=20,
                final_checks=final_checks, extra=extra)


PLANS = {"census-sweep": census_sweep, "wide-release": wide_release, "huge-domain": huge_domain}


# --------------------------------------------------------------------------
# the closed loop


def _run_op(op: Op, tally: Tally, tracer: Tracer | None, into: dict[str, list[float]]) -> None:
    op.prepare()
    try:
        if tracer is None:
            t0 = time.perf_counter()
            out = op.call()
            elapsed = time.perf_counter() - t0
        else:
            with tracer.installed(), tracer.span("bench." + op.name):
                t0 = time.perf_counter()
                out = op.call()
                elapsed = time.perf_counter() - t0
    except Exception as exc:  # the loop keeps going; the operation counts as failed
        tally.record(op.name, [f"raised {type(exc).__name__}: {exc}"])
        return
    problems = op.check(out)
    tally.record(op.name, problems)
    if not problems:
        into[op.name].append(elapsed)


def run_workload(name: str, files: dict, params: dict, work: Path, seed: int, seconds: float,
                 trace: bool, smoke: bool, spans_path: Path | None) -> dict:
    plan = PLANS[name](files, params, work, seed, smoke)
    tally = Tally()
    warm = {op.name: [] for op in plan.ops}
    for op in plan.ops:
        _run_op(op, tally, None, warm)

    tracer = Tracer() if trace else None
    samples = {op.name: [] for op in plan.ops}
    traced = {op.name: [] for op in plan.ops}
    first_round: tuple[int, int] | None = None
    rounds = 0
    shuffler = random.Random(seed)
    deadline = time.perf_counter() + seconds
    while rounds < plan.min_rounds or time.perf_counter() < deadline:
        # A fresh order each round, so that no operation always follows the
        # same one (and always pays for the garbage its predecessor left).
        order = shuffler.sample(plan.ops, len(plan.ops))
        for op in order:
            _run_op(op, tally, None, samples)
        if tracer is not None:
            begin = len(tracer.start)
            for op in order:
                _run_op(op, tally, tracer, traced)
            if first_round is None:
                first_round = (begin, len(tracer.start))
        rounds += 1
    for problem in plan.final_checks():
        tally.record("final", [problem])

    named = {}
    for op in plan.ops:
        unit = "s" if op.scale == 1.0 else "us"
        named[op.metric] = {"unit": unit, **summarize(samples[op.name], op.scale)}
    if all(samples.values()):
        named.update(plan.extra(samples))
    by_name = {op.name: op for op in plan.ops}

    def headline(name: str) -> tuple[str, float | None]:
        values = samples[name]
        return by_name[name].metric, (HEADLINE[plan.headline](values) if values else None)

    result = {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems,
        "rounds": rounds,
        "named": named,
        "headline": plan.headline,
        "op1": headline(plan.op1),
        "op2": headline(plan.op2),
    }
    if tracer is not None:
        result["layers"], result["spans"] = _layer_metrics(plan, tracer, samples, traced, rounds)
        if spans_path is not None and first_round is not None:
            tracer.dump(spans_path, *first_round, aggregate=tracer.self_times())
    return result


def _layer_metrics(plan: Plan, tracer: Tracer, samples: dict, traced: dict,
                   rounds: int) -> tuple[dict[str, float], dict[str, dict]]:
    """Per-layer metrics (probes, self time of the layers every workload runs,
    tracing overhead) and the self-time table of every span, per round."""
    out = run_probes(plan.probe)
    table = {
        name: {key: value / rounds for key, value in row.items()}
        for name, row in tracer.self_times().items() if row["calls"]
    }
    for layer in SELF_LAYERS:
        out[f"self.{layer}_s"] = sum(row["self_s"] for name, row in table.items()
                                     if name.startswith(layer + "."))
    untraced = sum(statistics.median(v) for v in samples.values() if v)
    with_trace = sum(statistics.median(v) for v in traced.values() if v)
    out["trace.overhead_s"] = with_trace - untraced
    out["trace.overhead_pct"] = 100.0 * (with_trace - untraced) / untraced
    return out, table


# Layers that run on every workload; their self time per traced round is a
# per-layer metric. The others (cli, sweep, ingest, metrics) are idle on some
# workload, so their self times are reported in the span table only.
SELF_LAYERS = ("domain", "numerics", "core", "mechanism")
