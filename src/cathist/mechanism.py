"""The private histogram release mechanism.

Rather than adding noise to every category in a huge domain, the mechanism
noises only the active bins and models the rest of the domain analytically:

  1. Compute the threshold from (epsilon, rho, domain size).
  2. Add Laplace(1/epsilon) noise to each active bin; drop bins whose noisy
     count falls below the threshold.
  3. Draw how many untouched domain slots would have cleared the threshold
     from Binomial(trials, p) with p = (1/2)exp(-epsilon*threshold), where
     trials counts the absent in-domain slots: the domain size minus the
     active labels that are in the domain.
  4. Pick that many distinct categories uniformly from the domain (excluding
     the active ones) and weight each by threshold + Exponential(epsilon).

Step 3/4 is distributionally identical to brute-forcing the full domain (the
Laplace tail above the threshold is exactly a shifted exponential), which the
tests check against a brute-force reference on small domains. So the labels
and noisy counts are post-processing of the Laplace mechanism over the whole
domain, and epsilon-DP over the reals. With a active labels in a domain of n,
P(no injected bin) = rho^((n - a)/n) >= rho, with equality on an empty
column. This is the binomial-plus-uniform construction of Cormode,
Procopiuc, Srivastava & Tran ("Differentially Private Summaries for Sparse
Data", ICDT 2012).

Injected labels are drawn outside the active set, so they never meet the
true column: the fidelity of a release depends only on which active bins
survived, their noisy counts and the injected weights. The injection stream
therefore draws each release's injected count and weights first and its
labels last, and a sweep cell reads those draws without picking labels.

Unit sensitivity: neighboring datasets differ by adding or removing one
record, so one bin's count changes by one and the Laplace scale is
1/epsilon.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Iterable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (
    CatHistError,
    DomainSpec,
    Histogram,
    NoisyBin,
    NoisyHistogram,
    Origin,
    PrivacyParams,
    ValidityError,
    normalize,
)
from .domain import DomainSampler, load_domain
from .numerics import (
    Rng,
    inclusion_probability,
    make_rng,
    noisy_threshold,
    sample_binomial,
)
# Bound here although unused: bench/layers.py traces the samplers at the
# names the mechanism imports. Their arithmetic is inlined below.
from .numerics import sample_laplace, sample_shifted_exponential  # noqa: F401


@dataclass(frozen=True)
class CatHistConfig:
    privacy: PrivacyParams
    domain: DomainSpec
    seed: int
    allow_out_of_domain_active: bool = False


def _check_active_membership(config: CatHistConfig, outside: set[str]) -> None:
    """Reject (or, when allowed, warn about) active categories outside the domain."""
    if not outside:
        return
    listed = sorted(outside)
    if config.allow_out_of_domain_active:
        warnings.warn(
            f"{len(listed)} active categories are outside the declared domain "
            f"and are being treated as members: {listed[:10]}",
            stacklevel=3,
        )
        return
    raise ValidityError(
        f"active categories outside the declared domain: {listed}; "
        f"declare a larger domain or pass allow_out_of_domain_active"
    )


def _sampler_for(config: CatHistConfig, sampler: DomainSampler | None) -> DomainSampler:
    if sampler is None:
        return load_domain(config.domain)
    if sampler.spec != config.domain:
        raise ValueError("sampler was built for a different domain spec")
    return sampler


def cat_hist(config: CatHistConfig, h: Histogram, sampler: DomainSampler | None = None) -> NoisyHistogram:
    """Release a privatized histogram of h against the configured domain.

    Deterministic given (config, h): the same seed reproduces the same
    release. A pre-loaded sampler for config.domain may be passed to avoid
    re-reading wordlist files in tight loops. This is cat_hist_batch's batch
    of one.
    """
    return cat_hist_batch(config, h, 1, sampler)[0]


def cat_hist_batch(
    config: CatHistConfig, h: Histogram, reps: int, sampler: DomainSampler | None = None
) -> list[NoisyHistogram]:
    """reps independent releases of h from one seed and one stream pair.

    The domain check, the threshold and the two generators are set up once
    for the batch, and _draw_batch makes every draw but the injected labels:
    the noise stream gives the reps x k active-bin uniforms in row-major
    order; the injection stream gives, repetition by repetition, the injected
    count and then its weights, and after all of them the labels of each
    repetition in turn. Deterministic given (config, h, reps). cat_hist is
    the batch of one. A sweep cell reads the same draws without building
    releases (see sweep.py).
    """
    draws = _draw_batch(config, h, reps, sampler)
    epsilon, threshold = config.privacy.epsilon, draws.threshold
    scale = 1.0 / epsilon
    labels = [
        draws.sampler.sample_distinct(draws.rng_inject, w.size, exclude=draws.active) if w.size else ()
        for w in draws.weights
    ]
    rows = (row for block in draws.uniforms for row in block.tolist())
    releases = []
    for row, injected_labels, weights in zip(rows, labels, draws.weights):
        # sample_laplace's and sample_shifted_exponential's arithmetic, per
        # bin on the drawn uniforms (none of them 0.0).
        survivors = []
        for (label, count), u in zip(draws.positive, row):
            u -= 0.5
            magnitude = -math.log1p(-2.0 * abs(u))
            noisy = count + scale * magnitude if u > 0 else count - scale * magnitude
            if noisy >= threshold and noisy > 0:
                survivors.append(NoisyBin(label, noisy, Origin.ACTIVE))
        injected = [
            NoisyBin(label, threshold - math.log1p(-u) / epsilon, Origin.INJECTED)
            for label, u in zip(injected_labels, weights.tolist())
        ]
        releases.append(NoisyHistogram(survivors + injected))
    return releases


# Most active-bin uniforms a batch draws and holds at once: it draws its
# reps x k block in runs of whole rows, each of at most this many doubles
# (or one row, when a row is longer).
BLOCK_DRAWS = 1 << 20


class _BatchDraws(NamedTuple):
    """A batch's set-up and its draws, up to (not including) the labels.

    positive holds the k active bins in input order. uniforms gives the
    reps x k active-bin uniforms as blocks of rows; when there are several
    blocks, each is drawn as it is read. weights holds, per repetition, the
    uniforms of its injected weights, one per injected bin. rng_inject is
    positioned at the labels of the first repetition.
    """

    sampler: DomainSampler
    active: frozenset[str]
    positive: list[tuple[str, float]]
    threshold: float
    uniforms: Iterable[np.ndarray]
    weights: list[np.ndarray]
    rng_inject: Rng


def _draw_batch(config: CatHistConfig, h: Histogram, reps: int, sampler: DomainSampler | None) -> _BatchDraws:
    """What a batch draws, shared by cat_hist_batch and the sweep's cells.

    No uniform handed out is 0.0: each one is replaced, in row-major order,
    by the stream's next nonzero draw, the redraw sample_laplace and
    sample_shifted_exponential make. A caller that never picks labels makes
    the same draws as one that does, because the labels come last on the
    injection stream.
    """
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    sampler = _sampler_for(config, sampler)
    active = h.active_domain()
    outside = sampler.non_members(active)
    _check_active_membership(config, outside)
    members = len(active) - len(outside)

    epsilon = config.privacy.epsilon
    threshold = noisy_threshold(epsilon, config.privacy.rho, sampler.size)
    p = inclusion_probability(epsilon, threshold)
    # Only the absent in-domain slots can be injected, so m never exceeds them.
    trials = sampler.size - members

    # Independent streams so the injection draws depend only on the seed and
    # the active set, never on the active counts.
    rng_noise = make_rng(config.seed, 0)
    rng_inject = make_rng(config.seed, 1)
    weights = []
    for _ in range(reps):
        m = sample_binomial(rng_inject, trials, p) if trials > 0 else 0
        if m:
            weights.append(_nonzero(rng_inject, rng_inject.random(m)))
        else:
            weights.append(_NO_DRAWS)
    # Labels are unique, so len(active) bins are positive.
    positive = [item for item in h.items() if item[1] > 0]
    uniforms = _uniform_blocks(rng_noise, reps, len(positive))
    return _BatchDraws(sampler, active, positive, threshold, uniforms, weights, rng_inject)


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
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    if len(noisy) == 0:
        raise CatHistError("nothing to sample: the noisy histogram is empty")
    dist = normalize(noisy)
    labels = np.array(list(dist), dtype=object)
    probs = np.fromiter(dist.values(), dtype=float, count=len(dist))
    draws = rng.choice(len(labels), size=m, p=probs)
    return labels[draws].tolist()
