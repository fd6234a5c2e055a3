"""Threshold calibration and the samplers behind the release mechanism.

The central relation: publishing a bin only when its Laplace(count, 1/epsilon)
noise draw clears a threshold t gives each empty domain slot an inclusion
probability p = (1/2) exp(-epsilon t). Choosing

    t = -(1/epsilon) * ln(2 * (1 - rho**(1/n)))

makes the probability that none of n empty slots clears the threshold equal
to rho, since (1 - p)**n = rho. The formula is only defined while
rho**(1/n) >= 1/2 (equivalently t >= 0); below that the requested rho is not
reachable with threshold noise alone.

Everything is evaluated in expm1/log1p form. The naive 1 - rho**(1/n)
subtraction loses most of its significant digits once n is large (the
difference sits many orders of magnitude below 1), which would break the
round-trip identity (1 - p)**n = rho long before n reaches the word-pair
domain sizes this package is used with.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .core import ValidityError

# Seedable generator with independent derived streams. All randomness in the
# package flows through one of these, injected by the caller.
Rng = np.random.Generator

_LN_HALF = math.log(0.5)

# Expected injected-bin count above this is refused rather than sampled.
BINOMIAL_MEAN_ENVELOPE = 1e6


def make_rng(seed: int, *key: int) -> Rng:
    """Build a generator from a base seed and an optional derivation key.

    Distinct keys give statistically independent streams for the same seed;
    the construction is deterministic and platform-stable.
    """
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def derive_seed(seed: int, *key: int) -> int:
    """Stable 64-bit seed derived from (seed, key), for handing to make_rng."""
    state = np.random.SeedSequence(entropy=seed, spawn_key=key).generate_state(2, np.uint32)
    return int(state[0]) | (int(state[1]) << 32)


def threshold_defined(rho: float, n: int) -> bool:
    """True when the threshold formula is defined, i.e. rho**(1/n) >= 1/2."""
    if not (0 < rho < 1):
        raise ValidityError(f"rho must be in (0, 1), got {rho}")
    if n < 1:
        raise ValidityError(f"domain size must be >= 1, got {n}")
    return math.log(rho) / n >= _LN_HALF


# A loop of releases asks for the same few thresholds over and over.
@functools.lru_cache(maxsize=256)
def noisy_threshold(epsilon: float, rho: float, n: int) -> float:
    """Threshold calibrated so P(no injected bins) = rho over a size-n domain.

    Raises ValidityError when rho**(1/n) < 1/2, reporting both values.
    """
    if epsilon <= 0 or not math.isfinite(epsilon):
        raise ValidityError(f"epsilon must be finite and > 0, got {epsilon}")
    if not threshold_defined(rho, n):
        log_root = math.log(rho) / n
        raise ValidityError(
            f"tau undefined: rho^(1/n) < 1/2 "
            f"(rho^(1/n) = {math.exp(log_root):.17g}, 1/2 = 0.5; rho={rho}, n={n})"
        )
    t = -math.log(-2.0 * math.expm1(math.log(rho) / n)) / epsilon
    if not math.isfinite(t):
        raise ValidityError(f"threshold not finite for epsilon={epsilon}, rho={rho}, n={n}")
    # Rounding can leave a tiny negative (or -0.0) at the rho**(1/n) = 1/2 boundary.
    return max(0.0, t)


def inclusion_probability(epsilon: float, threshold: float) -> float:
    """P(Laplace(0, 1/epsilon) >= threshold) for threshold >= 0."""
    if epsilon <= 0 or not math.isfinite(epsilon):
        raise ValueError(f"epsilon must be finite and > 0, got {epsilon}")
    if threshold < 0 or not math.isfinite(threshold):
        raise ValueError(f"threshold must be finite and >= 0, got {threshold}")
    return 0.5 * math.exp(-epsilon * threshold)


def sample_laplace(rng: Rng, location: float, scale: float) -> float:
    """One Laplace draw by inverse CDF: location - scale*sign(u)*ln(1-2|u|).

    A single uniform per sample, u in the open interval (-1/2, 1/2).
    """
    if scale <= 0:
        raise ValueError(f"scale must be > 0, got {scale}")
    u = rng.random() - 0.5
    while u == -0.5:
        u = rng.random() - 0.5
    magnitude = -math.log1p(-2.0 * abs(u))  # = -ln(1 - 2|u|) >= 0
    return location + scale * magnitude if u > 0 else location - scale * magnitude


def sample_shifted_exponential(rng: Rng, rate: float, shift: float) -> float:
    """One draw from shift + Exponential(rate); always strictly above shift."""
    if rate <= 0:
        raise ValueError(f"rate must be > 0, got {rate}")
    u = rng.random()
    while u == 0.0:
        u = rng.random()
    return shift - math.log1p(-u) / rate


def sample_binomial(rng: Rng, n: int, p: float) -> int:
    """Binomial(n, p) draw built for huge n with tiny p.

    Inverse-CDF inversion walking the PMF recurrence
        P(k+1)/P(k) = ((n - k) / (k + 1)) * (p / (1 - p))
    from log P(0) = n*log1p(-p), carried in log space so the walk stays exact
    even when P(0) underflows. Expected time is O(n*p); n*p above
    BINOMIAL_MEAN_ENVELOPE is refused.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not (0 <= p < 1):
        raise ValueError(f"p must be in [0, 1), got {p}")
    if p == 0.0:
        return 0
    mean = n * p
    if mean > BINOMIAL_MEAN_ENVELOPE:
        raise ValidityError(
            f"expected bin count out of envelope: n*p = {mean:.6g} > {BINOMIAL_MEAN_ENVELOPE:.0e}"
        )
    u = rng.random()
    log_p = math.log(p)
    log_q = math.log1p(-p)
    log_pmf = n * log_q
    cdf = 0.0
    k = 0
    while True:
        cdf += math.exp(log_pmf)
        if u < cdf:
            return k
        if k >= n:
            return int(n)
        # Past the mode with pmf far below the resolution of u, the remaining
        # tail mass is unreachable.
        if k > mean and log_pmf < -60.0:
            return k
        log_pmf += math.log((n - k) / (k + 1)) + log_p - log_q
        k += 1
