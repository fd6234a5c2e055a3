"""The private histogram release mechanism.

Rather than adding noise to every category in a huge domain, the mechanism
noises only the active bins and models the rest of the domain analytically:

  1. Compute the threshold from (epsilon, rho, domain size).
  2. Add Laplace(1/epsilon) noise to each active bin; drop bins whose noisy
     count falls below the threshold.
  3. Draw how many untouched domain slots would have cleared the threshold
     from Binomial(trials, p) with p = (1/2)exp(-epsilon*threshold).
  4. Pick that many distinct categories uniformly from the domain (excluding
     the active ones) and weight each by threshold + Exponential(epsilon).

Step 3/4 is distributionally identical to brute-forcing the full domain (the
Laplace tail above the threshold is exactly a shifted exponential), which is
what naive_full_domain_oracle does for small domains so the equivalence can
be tested.

Unit sensitivity: neighboring datasets differ by adding or removing one
record, so one bin's count changes by one and the Laplace scale is
1/epsilon.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass

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
    sample_laplace,
    sample_shifted_exponential,
)

# Largest domain the brute-force oracle will materialize.
ORACLE_MAX_DOMAIN = 10_000


class TrialsConvention(enum.Enum):
    """How many domain slots the injection draw treats as empty.

    FULL_N uses the whole domain size n, matching the threshold calibration
    (P(zero injected) = rho exactly) but slightly overcounting because active
    slots are not actually empty. N_MINUS_ACTIVE uses n - |active|, which
    makes the mechanism exactly equal in distribution to noising the full
    domain.
    """

    FULL_N = "full-n"
    N_MINUS_ACTIVE = "n-minus-active"


@dataclass(frozen=True)
class CatHistConfig:
    privacy: PrivacyParams
    domain: DomainSpec
    seed: int
    trials: TrialsConvention = TrialsConvention.FULL_N
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
    for the batch; each repetition then takes the next draws of each stream.
    Deterministic given (config, h, reps). The first repetition is the
    release cat_hist gives for the same config, unless a uniform draw is
    exactly 0.0 (probability 2**-53 per draw). A sweep runs each grid cell as
    one batch, so all repetitions of a cell share one seed and one stream
    pair.
    """
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    sampler = _sampler_for(config, sampler)
    active = h.active_domain()
    _check_active_membership(config, sampler.non_members(active))

    epsilon = config.privacy.epsilon
    threshold = noisy_threshold(epsilon, config.privacy.rho, sampler.size)
    p = inclusion_probability(epsilon, threshold)
    scale = 1.0 / epsilon
    if config.trials is TrialsConvention.FULL_N:
        trials = sampler.size
    else:
        trials = max(sampler.size - len(active), 0)

    # Independent streams so the injection draws depend only on the seed and
    # the active set, never on the active counts.
    rng_noise = make_rng(config.seed, 0)
    rng_inject = make_rng(config.seed, 1)

    # One uniform per active bin and repetition, drawn in one call: the same
    # doubles, in the same order, that one sample_laplace call per bin would
    # take, put through the same arithmetic. A 0.0 is redrawn by
    # sample_laplace. Labels are unique, so len(active) bins are positive.
    positive = [item for item in h.items() if item[1] > 0]
    uniforms = rng_noise.random((reps, len(active)))
    releases = []
    for row in uniforms:
        survivors = []
        for (label, count), u in zip(positive, row.tolist()):
            if u == 0.0:
                noisy = sample_laplace(rng_noise, count, scale)
            else:
                u -= 0.5
                magnitude = -math.log1p(-2.0 * abs(u))
                noisy = count + scale * magnitude if u > 0 else count - scale * magnitude
            if noisy >= threshold and noisy > 0:
                survivors.append(NoisyBin(label, noisy, Origin.ACTIVE))

        num_injected = sample_binomial(rng_inject, trials, p) if trials > 0 else 0
        labels = sampler.sample_distinct(rng_inject, num_injected, exclude=active)
        # As above: the doubles sample_shifted_exponential would take, one per label.
        injected = []
        for label, u in zip(labels, rng_inject.random(num_injected).tolist()):
            if u == 0.0:
                weight = sample_shifted_exponential(rng_inject, epsilon, threshold)
            else:
                weight = threshold - math.log1p(-u) / epsilon
            injected.append(NoisyBin(label, weight, Origin.INJECTED))

        releases.append(NoisyHistogram(survivors + injected))
    return releases


def naive_full_domain_oracle(
    config: CatHistConfig, h: Histogram, sampler: DomainSampler | None = None
) -> NoisyHistogram:
    """Brute-force reference: noise every category in the domain, threshold.

    Same output contract as cat_hist. Only usable on small domains; raises
    ValidityError when the domain size exceeds ORACLE_MAX_DOMAIN.
    """
    sampler = _sampler_for(config, sampler)
    if sampler.size > ORACLE_MAX_DOMAIN:
        raise ValidityError(
            f"domain size {sampler.size} exceeds the brute-force limit {ORACLE_MAX_DOMAIN}"
        )
    active = h.active_domain()
    _check_active_membership(config, sampler.non_members(active))

    epsilon = config.privacy.epsilon
    threshold = noisy_threshold(epsilon, config.privacy.rho, sampler.size)
    rng = make_rng(config.seed)

    counts = {label: count for label, count in h.items() if count > 0}
    domain_labels = [sampler.decode(i) for i in range(sampler.size)]
    out_of_domain = [label for label in h.labels() if counts.get(label, 0) > 0 and not sampler.contains(label)]
    all_labels = domain_labels + out_of_domain
    true_counts = np.array([counts.get(label, 0.0) for label in all_labels])
    noisy = rng.laplace(loc=true_counts, scale=1.0 / epsilon)

    noisy_by_label = dict(zip(all_labels, noisy))
    survivors = [
        NoisyBin(label, noisy_by_label[label], Origin.ACTIVE)
        for label, count in h.items()
        if count > 0 and noisy_by_label[label] >= threshold and noisy_by_label[label] > 0
    ]
    injected = [
        NoisyBin(label, float(value), Origin.INJECTED)
        for label, value in zip(domain_labels, noisy)
        if label not in active and value >= threshold and value > 0
    ]
    return NoisyHistogram(survivors + injected)


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
