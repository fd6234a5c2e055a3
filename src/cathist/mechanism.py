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

Unit sensitivity: neighboring datasets differ by adding or removing one
record, so one bin's count changes by one and the Laplace scale is
1/epsilon.
"""

from __future__ import annotations

import math
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
    shares,
)
from .domain import DomainSampler, load_domain
from .numerics import (
    Rng,
    inclusion_probability,
    make_rng,
    noisy_threshold,
    sample_binomial,
)
# Bound here although unused: bench/layers.py traces these at the names the
# mechanism imports. Their arithmetic is inlined below.
from .core import normalize  # noqa: F401
from .numerics import sample_laplace, sample_shifted_exponential  # noqa: F401


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
    active = h.active_domain()
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
    one repetition: its injected count and weights, then its k active-bin
    uniforms, then its injected labels. A sweep cell reads the same draws
    for all of its repetitions without building releases (see sweep.py).
    """
    sampler = load_domain(config.domain) if sampler is None else sampler
    trials = _absent_slots(config.domain, h, sampler)
    draws = _draw_batch(config, h, 1, sampler, trials)
    epsilon, threshold = config.privacy.epsilon, draws.threshold
    (block,), (weights,) = draws.uniforms, draws.weights
    kept, noisy = _survivors(block[0], draws.positive, 1.0 / epsilon, threshold)
    injected = ()
    if weights.size:
        injected = sampler.sample_distinct(draws.rng, weights.size, exclude=h.active_domain())
        # sample_shifted_exponential's threshold - log1p(-u) / epsilon, with
        # math.log1p (np.log1p can differ in the last bit). It may overflow at
        # a tiny epsilon; the release refuses that weight.
        logs = np.fromiter(map(math.log1p, (-weights).tolist()), float, weights.size)
        with np.errstate(over="ignore"):
            noisy = np.concatenate((noisy, threshold - logs / epsilon))
    return NoisyHistogram._release((*kept, *injected), noisy, len(kept))


# Releases of fewer active bins than this are noised bin by bin, wider ones
# as one array: numpy's calls cost more than a few bins, less than many.
ARRAY_NOISE_BINS = 32


def _survivors(
    u: np.ndarray, positive: tuple[tuple[str, ...], np.ndarray], scale: float, threshold: float
) -> tuple[list[str], np.ndarray]:
    """The surviving labels and noisy counts of one row of uniforms: count
    plus sample_laplace's noise, with math.log1p per element (np.log1p can
    differ in the last bit), kept at >= threshold and > 0."""
    labels, counts = positive
    if len(labels) < ARRAY_NOISE_BINS:
        kept, kept_noisy = [], []
        for label, count, v in zip(labels, counts.tolist(), u.tolist()):
            v -= 0.5
            magnitude = -math.log1p(-2.0 * abs(v))
            noisy = count + scale * magnitude if v > 0 else count - scale * magnitude
            if noisy >= threshold and noisy > 0:
                kept.append(label)
                kept_noisy.append(noisy)
        return kept, np.array(kept_noisy)
    # count + sign(u) * scale * -log1p(-2|u|) with u - 1/2 for u. It may
    # overflow at a tiny epsilon; the release refuses that count.
    u = u - 0.5
    magnitude = np.fromiter(map(math.log1p, (np.abs(u) * -2.0).tolist()), float, u.size)
    with np.errstate(over="ignore"):
        magnitude *= -scale
        noisy = np.copysign(magnitude, u, out=magnitude)
        noisy += counts
    at = np.flatnonzero((noisy >= threshold) & (noisy > 0))
    return list(map(labels.__getitem__, at.tolist())), noisy[at]


# Most active-bin uniforms a batch draws and holds at once: it draws its
# reps x k block in runs of whole rows, each of at most this many doubles
# (or one row, when a row is longer).
BLOCK_DRAWS = 1 << 20


class _BatchDraws(NamedTuple):
    """A batch's threshold and its draws, up to (not including) the labels.

    positive holds the labels and counts of the k active bins in input
    order. weights holds, per repetition, the uniforms of its injected
    weights, one per injected bin. uniforms gives the reps x k active-bin
    uniforms as blocks of rows; when there are several blocks, each is drawn
    as it is read. Once every block is read, rng is positioned at the labels
    of the first repetition.
    """

    positive: tuple[tuple[str, ...], np.ndarray]
    threshold: float
    uniforms: Iterable[np.ndarray]
    weights: list[np.ndarray]
    rng: Rng


def _draw_batch(config: CatHistConfig, h: Histogram, reps: int, sampler: DomainSampler, trials: int) -> _BatchDraws:
    """What reps releases draw: cat_hist's one, or a sweep cell's.

    trials is _absent_slots' count for h, which the caller works out once
    per batch or per sweep: only the absent in-domain slots can be injected,
    so m never exceeds them. No uniform handed out is 0.0: each one is replaced,
    in row-major order, by the stream's next nonzero draw, the redraw
    sample_laplace and sample_shifted_exponential make. A caller that never
    picks labels makes the same draws as one that does, because the labels
    come last on the stream.
    """
    epsilon = config.privacy.epsilon
    threshold = noisy_threshold(epsilon, config.privacy.rho, sampler.size)
    p = inclusion_probability(epsilon, threshold)

    # No draw depends on the active counts, so the injection draws (counts
    # and weights here, labels after the noise) depend only on the seed and
    # the active set.
    rng = make_rng(config.seed)
    weights = []
    for _ in range(reps):
        m = sample_binomial(rng, trials, p) if trials > 0 else 0
        if m:
            weights.append(_nonzero(rng, rng.random(m)))
        else:
            weights.append(_NO_DRAWS)
    uniforms = _uniform_blocks(rng, reps, len(h.active_domain()))
    return _BatchDraws(h._positive, threshold, uniforms, weights, rng)


# The weights of a repetition that injects nothing; never written to.
_NO_DRAWS = np.empty(0)


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
