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

import bisect
import functools
import hashlib
import math
import operator
import sys

import numpy as np

from .core import ValidityError

# A seeded PCG64 generator with independent derived streams. All randomness
# in the package flows through one of these, injected by the caller; its
# state is a keyed hash of the seed words (see pcg64_state).
Rng = np.random.Generator

_LN_HALF = math.log(0.5)

# Expected injected-bin count above this is refused rather than sampled. A
# release never asks for more: (n - a) * p <= n * p <= -ln(rho) < 745 for any
# positive double rho. It also bounds a cached inversion table to 1 353
# entries (1 052 at n*p = 745).
BINOMIAL_MEAN_ENVELOPE = 1e3

# BLAKE2b's personalization tag for seed hashing: it keys the map from seed
# words to generator states to this package.
_SEED_PERSON = b"cathist.pcg64"


def pcg64_state(seed: int, *key: int) -> dict:
    """The PCG64 state make_rng(seed, *key) starts from, as bit_generator.state.

    One BLAKE2b hash (32-byte digest, personalized) of the words, each
    length-prefixed, so distinct word tuples hash distinct inputs: the
    digest's first 16 bytes are the 128-bit state, its last 16 (with the
    low bit set) the odd increment. Raises ValueError on a negative word.
    """
    h = hashlib.blake2b(digest_size=32, person=_SEED_PERSON)
    for word in map(operator.index, (seed, *key)):
        if word < 0:
            raise ValueError(f"seed words must be >= 0, got {word} in {(seed, *key)}")
        size = (word.bit_length() + 7) >> 3
        h.update(size.to_bytes(8, "little") + word.to_bytes(size, "little"))
    digest = h.digest()
    state = {"state": int.from_bytes(digest[:16], "little"), "inc": int.from_bytes(digest[16:], "little") | 1}
    return {"bit_generator": "PCG64", "state": state, "has_uint32": 0, "uinteger": 0}


def make_rng(seed: int, *key: int) -> Rng:
    """A fresh generator at pcg64_state(seed, *key).

    Distinct (seed, *key) tuples give statistically independent streams; the
    construction is deterministic and platform-stable. The generator's
    SeedSequence, which its spawn() draws children from, is keyed by the
    hashed state, so the children of distinct seeds differ too. Raises
    ValueError on a negative seed or key word.
    """
    state = pcg64_state(seed, *key)
    rng = Rng(np.random.PCG64(np.random.SeedSequence(state["state"]["state"])))
    rng.bit_generator.state = state
    return rng


def derive_seed(seed: int, *key: int) -> int:
    """Stable 64-bit seed derived from (seed, key), for handing to make_rng."""
    state = np.random.SeedSequence(entropy=seed, spawn_key=key).generate_state(2, np.uint32)
    return int(state[0]) | (int(state[1]) << 32)


def threshold_defined(rho: float, n: int) -> bool:
    """True when the threshold formula is defined, i.e. rho**(1/n) >= 1/2.
    The formula divides by n as a double, so n is at most the largest one."""
    if not (0 < rho < 1):
        raise ValidityError(f"rho must be in (0, 1), got {rho}")
    if n < 1:
        raise ValidityError(f"domain size must be >= 1, got {n}")
    if n > sys.float_info.max:
        raise ValidityError(f"domain size must be at most the largest double, {sys.float_info.max!r}, got {n}")
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
    even when P(0) underflows. The walk's running CDF sums are kept per
    (n, p): the first call for a pair walks in O(n*p), later calls bisect the
    table in O(log(n*p)). Either way one uniform is drawn and the same k
    returned. n*p above BINOMIAL_MEAN_ENVELOPE is refused.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not (0 <= p < 1):
        raise ValueError(f"p must be in [0, 1), got {p}")
    if p == 0.0:
        return 0
    cdf = _binomial_cdf(n, p)
    # The walk returns the first k with u < cdf[k], or its stopping k, the
    # table's last index, when no earlier entry exceeds u.
    return bisect.bisect_right(cdf, rng.random(), 0, len(cdf) - 1)


# A loop of releases, or a sweep cell's repetitions, asks for one (n, p) again
# and again.
@functools.lru_cache(maxsize=256)
def _binomial_cdf(n: int, p: float) -> tuple[float, ...]:
    """The running CDF sums of sample_binomial's walk, k = 0 up to the k
    where the walk stops whatever the uniform. Refuses, and keeps no table
    for, a mean n*p above BINOMIAL_MEAN_ENVELOPE."""
    mean = n * p
    if mean > BINOMIAL_MEAN_ENVELOPE:
        raise ValidityError(
            f"expected bin count out of envelope: n*p = {mean:.6g} > {BINOMIAL_MEAN_ENVELOPE:.0e}"
        )
    log_p = math.log(p)
    log_q = math.log1p(-p)
    log_pmf = n * log_q
    cdf = []
    total = 0.0
    k = 0
    while True:
        total += math.exp(log_pmf)
        cdf.append(total)
        # At k = n the support ends. Past the mode with pmf far below the
        # resolution of a uniform, the remaining tail mass is unreachable.
        if k >= n or (k > mean and log_pmf < -60.0):
            return tuple(cdf)
        log_pmf += math.log((n - k) / (k + 1)) + log_p - log_q
        k += 1
