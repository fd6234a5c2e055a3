"""The private histogram release mechanism.

Rather than adding noise to every category in a huge domain, the mechanism
noises only the active bins and models the rest of the domain analytically:

  1. Compute the threshold from (epsilon, rho, domain size).
  2. Add Laplace(1/epsilon) noise to each active bin; drop bins whose noisy
     count falls below the threshold.
  3. Draw how many untouched domain slots would have cleared the threshold
     from Binomial(trials, p) with p = (1/2)exp(-epsilon*threshold), where
     trials counts the absent slots: the domain size minus the active
     labels, every one of which must be in the domain.
  4. Pick that many distinct categories uniformly from the domain (excluding
     the active ones) and weight each by threshold + Exponential(epsilon).
     The weights are one float64 array, with math.log1p per element, and
     the release's counts are the surviving counts followed by them.

Step 3/4 is distributionally identical to brute-forcing the full domain (the
Laplace tail above the threshold is exactly a shifted exponential), which the
tests check against a brute-force reference on small domains. So the labels
and noisy counts are post-processing of the Laplace mechanism over the whole
domain, and epsilon-DP over the reals. With a active labels in a domain of n,
P(no injected bin) = rho^((n - a)/n) >= rho, with equality on an empty
column. This is the binomial-plus-uniform construction of Cormode,
Procopiuc, Srivastava & Tran ("Differentially Private Summaries for Sparse
Data", ICDT 2012).

A release draws from one seeded stream: first its injected count and
weights, then its active-bin noise, then its injected labels. No draw depends
on the counts, so the injection draws depend only on the seed and the active
set. Injected labels are drawn outside the active set, so they never meet the
true column: the fidelity of a release depends only on which active bins
survived, their noisy counts and the injected weights. As the labels come
last, a sweep cell reads every other draw without picking them.

One cached plan per (epsilon, rho, n, trials) holds what those draws need:
the threshold and sample_binomial's inversion table. _draw_batch draws a
sweep cell's repetitions from that plan: one random(reps) call for every
injected count, one random call for all their weights, then the active-bin
uniforms in blocks of rows. A release is a cell of one repetition, and
cat_hist draws it from the same plan with scalar calls that give the same
doubles (_weights for its count and weights, then one random(k) call for
its active-bin uniforms). Both take plain values: the caller passes the
generator and reads the histogram's active columns, and picks any labels
from the generator after the draws.

Unit sensitivity: neighboring datasets differ by adding or removing one
record, so one bin's count changes by one and the Laplace scale is
1/epsilon.
"""

from __future__ import annotations

import bisect
import functools
import math
import threading
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (
    CatHistError,
    DomainSpec,
    Histogram,
    NoisyHistogram,
    PrivacyParams,
    ValidityError,
    _checked,
    shares,
)
from .domain import DomainSampler, load_domain
from .numerics import (
    Rng,
    inclusion_probability,
    make_rng,
    noisy_threshold,
    pcg64_state,
    _binomial_cdf,
)
# Bound here although unused: bench/layers.py traces these at the names the
# mechanism imports. Their arithmetic is inlined below, and sample_binomial's
# bisection is _weights'.
from .core import normalize  # noqa: F401
from .numerics import sample_binomial, sample_laplace, sample_shifted_exponential  # noqa: F401


@dataclass(frozen=True)
class CatHistConfig:
    privacy: PrivacyParams
    domain: DomainSpec
    seed: int


def _absent_slots(domain: DomainSpec, h: Histogram, sampler: DomainSampler) -> int:
    """The in-domain slots h leaves absent: the injection binomial's trials.

    Checks first that sampler was built for domain and that h's active
    labels are all in it. The count is kept on h with the sampler that
    checked it, so a loop of releases of one histogram against one sampler
    checks membership once; a refusal is not kept.
    """
    if sampler.spec is not domain and sampler.spec != domain:
        raise ValueError("sampler was built for a different domain spec")
    memo = h._absent  # read once: another thread may replace it
    if memo is not None and memo[0] is sampler:
        return memo[1]
    active = h._positive[0]
    outside = sampler.non_members(active)
    if outside:
        raise ValidityError(
            f"active categories outside the declared domain: {sorted(outside)}; "
            f"declare a domain that contains them"
        )
    trials = sampler.size - len(active)
    h._absent = (sampler, trials)
    return trials


def cat_hist(config: CatHistConfig, h: Histogram, sampler: DomainSampler | None = None) -> NoisyHistogram:
    """Release a privatized histogram of h against the configured domain.

    Deterministic given (config, h): the same seed reproduces the same
    release. A pre-loaded sampler for config.domain may be passed to avoid
    re-reading wordlist files in tight loops. The release is _draw_batch's
    draws at reps = 1, made from the same cached plan by calls that give
    the same doubles: its injected count and weights (_weights), then its k
    active-bin uniforms as one random(k) call, then its injected labels. A
    sweep cell draws every repetition's count, then all their weights, and
    builds no releases (see sweep.py).

    Below ARRAY_NOISE_BINS active bins the survivors are kept as lists and
    checked there: a kept count is >= threshold and > 0, so only one that
    overflowed to inf is refused. A release that injects nothing is built
    from those lists; one that injects appends its weights as an array, and
    _release checks every count. The active set is built only to exclude it
    from the injected labels.
    """
    sampler = load_domain(config.domain) if sampler is None else sampler
    trials = _absent_slots(config.domain, h, sampler)
    epsilon = config.privacy.epsilon
    plan = _plan(epsilon, config.privacy.rho, sampler.size, trials)
    threshold = plan.threshold
    rng = _thread_rng(config.seed)
    weights = _weights(rng, plan)
    if len(h._positive[0]) < ARRAY_NOISE_BINS:
        kept, noisy = _few_survivors(rng, h._positive, 1.0 / epsilon, threshold)
        if not weights.size:
            return NoisyHistogram._of(tuple(kept), np.array(noisy), (False,) * len(kept))
    else:
        kept, noisy = _survivors(rng, h._positive, 1.0 / epsilon, threshold)
    injected = ()
    if weights.size:
        injected = sampler.sample_distinct(rng, weights.size, exclude=h.active_domain())
        # sample_shifted_exponential's threshold - log1p(-u) / epsilon, with
        # math.log1p (np.log1p can differ in the last bit). It may overflow at
        # a tiny epsilon; the release refuses that weight.
        logs = np.fromiter(map(math.log1p, (-weights).tolist()), float, weights.size)
        with np.errstate(over="ignore"):
            noisy = np.concatenate((noisy, threshold - logs / epsilon))
    return NoisyHistogram._release((*kept, *injected), noisy, len(kept))


# One generator per thread that cat_hist re-seeds for each release and a
# sweep cell for each cell, saving make_rng's fresh PCG64 and Generator. It
# never leaves the call that seeded it, which uses up every draw before it
# returns.
_THREAD = threading.local()


def _thread_rng(seed: int) -> Rng:
    """This thread's generator, set to make_rng(seed)'s state."""
    rng = getattr(_THREAD, "rng", None)
    if rng is None:
        rng = _THREAD.rng = make_rng(0)
    rng.bit_generator.state = pcg64_state(seed)
    return rng


class _Plan(NamedTuple):
    """What the draws of a release of (epsilon, rho, n, trials) need: the
    threshold and sample_binomial's inversion table for Binomial(trials, p),
    with p the inclusion probability, None when there is no count to draw.
    A count is the number of the table's entries at or below its uniform."""

    threshold: float
    cdf: tuple[float, ...] | None


# A loop of releases, or a sweep's cells, asks for the same few plans.
@functools.lru_cache(maxsize=256)
def _plan(epsilon: float, rho: float, n: int, trials: int) -> _Plan:
    """The plan of a release. The threshold is noisy_threshold(epsilon, rho,
    n), which refuses a bad epsilon or rho and an undefined tau; the table
    refuses a mean count past BINOMIAL_MEAN_ENVELOPE. A refusal is not kept.
    With no trials or p = 0, which the threshold reaches only when
    exp(-epsilon * threshold) underflows, every count is 0 with no draw."""
    threshold = noisy_threshold(epsilon, rho, n)
    p = inclusion_probability(epsilon, threshold)
    return _Plan(threshold, _binomial_cdf(trials, p) if trials > 0 and p > 0.0 else None)


# Releases of fewer active bins than this are noised bin by bin, wider ones
# as one array: numpy's calls cost more than a few bins, less than many.
ARRAY_NOISE_BINS = 32


def _few_survivors(
    rng: Rng, positive: tuple[tuple[str, ...], np.ndarray], scale: float, threshold: float
) -> tuple[list[str], list[float]]:
    """The surviving labels and noisy counts of fewer than ARRAY_NOISE_BINS
    active bins, from one random(k) call whose 0.0s are redrawn as _nonzero
    redraws them: count plus sample_laplace's noise, kept at >= threshold
    and > 0. Refuses a kept count that overflowed to inf at a tiny epsilon,
    as NoisyHistogram's check does."""
    labels, counts = positive
    u = rng.random(len(labels)).tolist()
    if 0.0 in u:  # the same doubles as _nonzero's, in a list
        u = _nonzero(rng, np.array(u)).tolist()
    kept, kept_noisy = [], []
    log1p = math.log1p
    for label, count, v in zip(labels, counts.tolist(), u):
        v -= 0.5
        magnitude = -log1p(-2.0 * abs(v))
        noisy = count + scale * magnitude if v > 0 else count - scale * magnitude
        if noisy >= threshold and noisy > 0:
            kept.append(label)
            kept_noisy.append(noisy)
    if math.inf in kept_noisy:
        _checked(tuple(kept), kept_noisy, positive=True)  # raises
    return kept, kept_noisy


def _survivors(
    rng: Rng, positive: tuple[tuple[str, ...], np.ndarray], scale: float, threshold: float
) -> tuple[list[str], np.ndarray]:
    """The surviving labels and noisy counts of ARRAY_NOISE_BINS or more
    active bins, as _few_survivors computes them, on arrays: from one
    random(k) call through _nonzero, count + sign(u) * scale * -log1p(-2|u|)
    with u - 1/2 for u, with math.log1p per element (np.log1p can differ in
    the last bit). A count may overflow at a tiny epsilon; the release
    refuses it."""
    labels, counts = positive
    u = _nonzero(rng, rng.random(len(labels))) - 0.5
    magnitude = np.fromiter(map(math.log1p, (np.abs(u) * -2.0).tolist()), float, u.size)
    with np.errstate(over="ignore"):
        magnitude *= -scale
        noisy = np.copysign(magnitude, u, out=magnitude)
        noisy += counts
    at = np.flatnonzero((noisy >= threshold) & (noisy > 0))
    return list(map(labels.__getitem__, at.tolist())), noisy[at]


# Most active-bin uniforms a batch draws and holds at once: it draws its
# reps x k block in runs of whole rows, each of at most this many doubles
# (or one row, when a row is longer). A cell makes about a dozen passes over
# each block: at 2**16 doubles (512 KiB) a block stays in a 2 MiB L2 cache,
# and a 1e5-label sweep ran about a tenth faster than at 2**20.
BLOCK_DRAWS = 1 << 16


def _draw_batch(
    rng: Rng, epsilon: float, rho: float, n: int, trials: int, reps: int, k: int
) -> tuple[float, list[int], np.ndarray, Iterable[np.ndarray]]:
    """What reps releases of k active bins draw: a sweep cell's, of which a
    release is the case reps = 1. Returns (threshold, counts, weights,
    blocks).

    The draws come from rng, which must be at make_rng(seed)'s state. The
    threshold and binomial table are the cached _plan(epsilon, rho, n,
    trials), which cat_hist reads too, and which refuses a bad epsilon or
    rho, an undefined tau and a mean count past the envelope. One
    random(reps) call gives every repetition's injected count m, each read
    as sample_binomial reads its uniform: the number of table entries at or
    below it, which one searchsorted(side="right") gives. One random call
    then gives the uniforms of all their injected weights, the first
    repetition's m, then the second's, and so on. blocks gives the reps x k active-bin uniforms as blocks of rows;
    when there are several blocks, each is drawn as it is read. Once every
    block is read, rng is positioned at the labels of the first repetition.
    With no count to draw (no trials, or p = 0), every m is 0 and neither
    call is made.

    trials is _absent_slots' count, which the caller works out once per
    release or per sweep: only the absent in-domain slots can be injected,
    so m never exceeds them. No weight or active-bin uniform is 0.0: each
    one is replaced, in row-major order, by the stream's next nonzero draw
    after its call, the redraw sample_laplace and sample_shifted_exponential
    make. A count uniform of 0.0 is kept, as sample_binomial keeps it. A
    caller that never picks labels makes the same draws as one that does,
    because the labels come last on the stream.
    """
    plan = _plan(epsilon, rho, n, trials)
    # No draw depends on the active counts, so the injection draws (counts
    # and weights here, labels after the noise) depend only on the seed and
    # the active set.
    counts, weights = [0] * reps, _NO_DRAWS
    if plan.cdf is not None:
        counts = np.searchsorted(np.array(plan.cdf), rng.random(reps), "right").tolist()
        weights = _nonzero(rng, rng.random(sum(counts)))
    return plan.threshold, counts, weights, _uniform_blocks(rng, reps, k)


# The weights of a repetition that injects nothing; never written to.
_NO_DRAWS = np.empty(0)


def _weights(rng: Rng, plan: _Plan) -> np.ndarray:
    """A release's weight uniforms, as _draw_batch draws them at reps = 1:
    its count m, sample_binomial's bisection of one uniform in the plan's
    table, then one random(m) call."""
    if plan.cdf is None:
        return _NO_DRAWS
    m = bisect.bisect_right(plan.cdf, rng.random())
    return _nonzero(rng, rng.random(m)) if m else _NO_DRAWS


def _uniform_blocks(rng: Rng, reps: int, k: int) -> Iterable[np.ndarray]:
    rows = max(1, BLOCK_DRAWS // k) if k else reps
    return (_nonzero(rng, rng.random((min(rows, reps - start), k))) for start in range(0, reps, rows))


def _nonzero(rng: Rng, u: np.ndarray) -> np.ndarray:
    """u with each 0.0, in row-major order, replaced by rng's next nonzero draw."""
    if np.count_nonzero(u) < u.size:
        for i in np.flatnonzero(u == 0.0).tolist():
            v = rng.random()
            while v == 0.0:
                v = rng.random()
            u.flat[i] = v
    return u


def synthesize_records(rng: Rng, noisy: NoisyHistogram, m: int) -> list[str]:
    """Draw m category labels iid from the normalized noisy histogram."""
    labels = np.array(noisy.labels(), dtype=object)
    records: list[str] = []
    for at in record_chunks(rng, noisy, m):
        records.extend(labels[at].tolist())
    return records


# Most records a chunk of record_chunks draws and holds at once.
RECORDS_PER_CHUNK = 1 << 16


def record_chunks(rng: Rng, noisy: NoisyHistogram, m: int) -> Iterator[np.ndarray]:
    """The bins of m records drawn iid from the release's shares, in chunks
    of at most RECORDS_PER_CHUNK: together those rng.choice(len(noisy),
    size=m, p=shares) draws, as PCG64's successive random(k) calls give the
    doubles of one random(m) call. That call looks each uniform u up in the
    normalized cumulative shares by searchsorted(side="right"). A guide
    table holds that answer for the left end j / 2^b of each of 2^b buckets;
    u * 2^b and j / 2^b are exact, so stepping forward from the answer at
    u's bucket lands on searchsorted's answer for u.

    Checks m and the release when called, before any draw.
    """
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    if len(noisy) == 0:
        raise CatHistError("nothing to sample: the noisy histogram is empty")
    cdf = np.cumsum(shares(noisy))
    cdf /= cdf[-1]
    buckets = 4 << len(noisy).bit_length()
    guide = np.searchsorted(cdf, np.arange(buckets) / buckets, side="right")
    return _lookups(rng, cdf, guide, m, RECORDS_PER_CHUNK)


def _lookups(rng: Rng, cdf: np.ndarray, guide: np.ndarray, m: int, chunk: int) -> Iterator[np.ndarray]:
    buckets = guide.size
    for start in range(0, m, chunk):
        u = rng.random(min(chunk, m - start))
        at = guide[(u * buckets).astype(np.intp)]
        at += cdf[at] <= u  # cdf[-1] is 1.0 > u: no step passes the last bin
        # Uniforms more than one step past their bucket's answer: search them outright.
        ahead = np.flatnonzero(cdf[at] <= u)
        at[ahead] = np.searchsorted(cdf, u[ahead], side="right")
        yield at
