"""Reference values and reference implementations for the tests.

The mpmath oracles compute expected values straight from the defining
formulas at 60 significant digits, sharing no code with the package under
test. The loop references below them are the plain per-row, per-bin and
per-call forms of code the package runs in bulk or from a cache; the tests
require the two to give identical results. Then comes the brute-force
reference the mechanism must equal in distribution, then the exact law
of a release's discrete part on tiny domains, for the privacy audit, and
last the check of which counts a released double can come from.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import math
import re
import weakref

import mpmath as mp
import numpy as np

from cathist.core import NoisyBin, NoisyHistogram, Origin, ValidityError
from cathist.domain import load_domain
from cathist.metrics import FidelityScore
from cathist.numerics import (
    inclusion_probability,
    make_rng,
    noisy_threshold,
    sample_binomial,
    sample_laplace,
    sample_shifted_exponential,
)

DPS = 60

# Largest domain the brute-force oracle will materialize.
ORACLE_MAX_DOMAIN = 10_000


def tau_oracle(epsilon: float, rho: float, n: int) -> float:
    """-(1/epsilon) * ln(2 * (1 - rho**(1/n))), evaluated at high precision."""
    with mp.workdps(DPS):
        root = mp.mpf(rho) ** (mp.mpf(1) / n)
        return float(-mp.log(2 * (1 - root)) / mp.mpf(epsilon))


def inclusion_oracle(epsilon: float, rho: float, n: int) -> float:
    """p = (1/2) exp(-epsilon * tau) = 1 - rho**(1/n)."""
    with mp.workdps(DPS):
        return float(1 - mp.mpf(rho) ** (mp.mpf(1) / n))


def expected_injected_oracle(epsilon: float, rho: float, n: int, trials: int) -> float:
    """Mean of Binomial(trials, p): trials * (1 - rho**(1/n))."""
    with mp.workdps(DPS):
        return float(trials * (1 - mp.mpf(rho) ** (mp.mpf(1) / n)))


def injected_sd_oracle(epsilon: float, rho: float, n: int, trials: int) -> float:
    """Standard deviation of Binomial(trials, p)."""
    with mp.workdps(DPS):
        p = 1 - mp.mpf(rho) ** (mp.mpf(1) / n)
        return float(mp.sqrt(trials * p * (1 - p)))


def zero_injection_oracle(rho: float, n: int, trials: int) -> float:
    """P(Binomial(trials, p) = 0) = rho**(trials/n)."""
    with mp.workdps(DPS):
        return float(mp.mpf(rho) ** (mp.mpf(trials) / n))


def survival_oracle(count: float, epsilon: float, rho: float, n: int) -> float:
    """P(Laplace(count, 1/epsilon) >= tau(epsilon, rho, n))."""
    with mp.workdps(DPS):
        eps = mp.mpf(epsilon)
        t = -mp.log(2 * (1 - mp.mpf(rho) ** (mp.mpf(1) / n))) / eps
        gap = eps * (mp.mpf(count) - t)
        if gap >= 0:
            return float(1 - mp.exp(-gap) / 2)
        return float(mp.exp(gap) / 2)


def sample_binomial_by_walk(rng, n, p):
    """sample_binomial as a plain inverse-CDF walk on every call: one uniform,
    then the PMF recurrence from k = 0 in log space until the running CDF
    exceeds it. The walk stops at k = n, or past the mean once the log-pmf is
    below -60."""
    mean = n * p
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
        if k > mean and log_pmf < -60.0:
            return k
        log_pmf += math.log((n - k) / (k + 1)) + log_p - log_q
        k += 1


def draw_batch_per_rep(rng, epsilon, rho, n, trials, reps, k):
    """_draw_batch as one loop over the repetitions: each draws its injected
    count with sample_binomial; then one random call draws the weight
    uniforms of every repetition in turn, and one random((reps, k)) call
    every active-bin uniform (one block while reps * k is at most
    BLOCK_DRAWS). Each 0.0 of those two calls is replaced, in row-major
    order, by the stream's next nonzero draw. Returns (threshold, weights
    split per repetition, uniforms)."""

    def nonzero(u):
        for i in np.flatnonzero(u == 0.0).tolist():
            v = rng.random()
            while v == 0.0:
                v = rng.random()
            u.flat[i] = v
        return u

    threshold = noisy_threshold(epsilon, rho, n)
    p = inclusion_probability(epsilon, threshold)
    counts = [sample_binomial(rng, trials, p) if trials > 0 else 0 for _ in range(reps)]
    weights = np.split(nonzero(rng.random(sum(counts))), np.cumsum(counts)[:-1])
    return threshold, weights, nonzero(rng.random((reps, k)))


# PCG64's 128-bit LCG multiplier (O'Neill 2014; numpy's PCG64).
PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def pcg64_doubles(k, seed, *key):
    """The first k doubles of make_rng(seed, *key), on Python ints: the
    BLAKE2b digest of the length-prefixed words gives the LCG state and odd
    increment; each double is the top 53 bits of an XSL-RR output taken
    after one LCG step."""
    data = b"".join(
        len(b).to_bytes(8, "little") + b
        for b in (w.to_bytes((w.bit_length() + 7) // 8, "little") for w in (seed, *key))
    )
    digest = hashlib.blake2b(data, digest_size=32, person=b"cathist.pcg64").digest()
    state, inc = int.from_bytes(digest[:16], "little"), int.from_bytes(digest[16:], "little") | 1
    mask = (1 << 64) - 1
    out = []
    for _ in range(k):
        state = (state * PCG64_MULTIPLIER + inc) % (1 << 128)
        x, rot = ((state >> 64) ^ state) & mask, state >> 122
        x = ((x >> rot) | (x << (64 - rot))) & mask
        out.append((x >> 11) * 2.0**-53)
    return out


def read_histogram_per_row(path, column, has_header=True, delimiter=",", drop_values=frozenset()):
    """read_histogram as one loop over the rows of a valid UTF-8 CSV file.

    Returns the (label, count) bins and the number of empty cells skipped.
    """
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        index = column
        if has_header:
            names = [name.strip() for name in next(reader)]
            if isinstance(column, str):
                index = names.index(column)
        counts: dict[str, int] = {}
        skipped_empty = 0
        for row in reader:
            if not row:
                continue
            cell = row[index].strip()
            if cell == "":
                skipped_empty += 1
                continue
            if cell in drop_values:
                continue
            counts[cell] = counts.get(cell, 0) + 1
    return tuple((label, float(count)) for label, count in counts.items()), skipped_empty


def merge_per_cell(cells, drop_values):
    """ingest._merge as one loop over (raw cell, count) pairs: the counts per
    trimmed cell, without drop_values, and the empty cells skipped."""
    counts = {}
    skipped_empty = 0
    for raw_cell, n in cells:
        cell = raw_cell.strip()
        if cell == "":
            skipped_empty += n
        elif cell not in drop_values:
            counts[cell] = counts.get(cell, 0) + n
    return counts, skipped_empty


def load_words_per_line(path):
    """A wordlist's words as one loop over the lines of the file."""
    words = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            word = line.strip()
            if word:
                words.setdefault(word, None)
    return tuple(words)


def word_pairs_by_format(words, indices):
    """The word-pair labels of an index array, one f-string per index: index
    i is the pair (i // m, i % m) of the m words."""
    m = len(words)
    return [f"{words[i // m]} {words[i % m]}" for i in indices.tolist()]


def size_only_index_by_parsing(prefix, size, label):
    """The index a SizeOnly(size, prefix) domain gives label, or None: the
    label must be prefix, "-" and an index below size as Python writes it."""
    match = re.fullmatch(re.escape(prefix) + r"-(0|[1-9][0-9]*)", label)
    return int(match[1]) if match and int(match[1]) < size else None


def sample_distinct_by_rejection(sampler, rng, k, exclude=frozenset()):
    """sample_distinct by rejection alone: uniform indices, decoded, redrawn
    while the label is excluded or already chosen. No attempt cap and no
    exhaustion check."""
    chosen = []
    rejected = set(exclude)
    while len(chosen) < k:
        label = sampler.decode(np.array([rng.integers(sampler.size)]))[0]
        if label not in rejected:
            rejected.add(label)
            chosen.append(label)
    return chosen


def refuse_outside_labels(sampler, active):
    """Raise ValidityError when an active label is not in the domain."""
    outside = sorted(label for label in active if not sampler.contains(label))
    if outside:
        raise ValidityError(f"active categories outside the declared domain: {outside}")


def cat_hist_per_bin(config, h, sampler):
    """cat_hist with one sample_laplace call per active bin and one
    sample_shifted_exponential call per injected label."""
    return cat_hist_per_rep(config, h, sampler, 1)[0]


def cat_hist_per_rep(config, h, sampler, reps):
    """reps cat_hist_per_bin releases, one per repetition, all of them
    drawing from one generator: every repetition's injected count first,
    then every repetition's weights, then every repetition's active-bin
    noise, then every repetition's labels. This is the stream layout of a sweep cell's repetitions, and at
    reps = 1 that of a release.

    Labels are picked by sample_distinct_by_rejection, one scalar
    rng.integers call per draw, not by the sampler's own sample_distinct, so
    a change in how the package draws labels shows. The two agree only on
    the rejection branch of sample_distinct. Every caller uses a domain with
    most of its slots absent, far from the dense branch (fewer than one slot
    in 100 absent), which lists the absent labels instead."""
    active = h.active_domain()
    refuse_outside_labels(sampler, active)
    epsilon = config.privacy.epsilon
    threshold = noisy_threshold(epsilon, config.privacy.rho, sampler.size)
    p = inclusion_probability(epsilon, threshold)
    trials = sampler.size - len(active)
    rng = make_rng(config.seed)
    counts = [sample_binomial(rng, trials, p) if trials > 0 else 0 for _ in range(reps)]
    weights_per_rep = [[sample_shifted_exponential(rng, epsilon, threshold) for _ in range(m)] for m in counts]
    survivors_per_rep = []
    for _ in range(reps):
        survivors = []
        for label, count in h.items():
            if count <= 0:
                continue
            noisy = sample_laplace(rng, count, 1.0 / epsilon)
            if noisy >= threshold and noisy > 0:
                survivors.append(NoisyBin(label, noisy, Origin.ACTIVE))
        survivors_per_rep.append(survivors)
    releases = []
    for survivors, weights in zip(survivors_per_rep, weights_per_rep):
        labels = sample_distinct_by_rejection(sampler, rng, len(weights), active)
        injected = [NoisyBin(label, weight, Origin.INJECTED) for label, weight in zip(labels, weights)]
        releases.append(NoisyHistogram(survivors + injected))
    return releases


def records_csv_per_row(records):
    """A records file as one csv.writer row per record, in bytes."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["category"])
    for record in records:
        writer.writerow([record])
    return out.getvalue().encode("utf-8")


def fidelity_by_dict(true_h, synth_h):
    """fidelity and fidelity_pointwise from the definition, over label dicts."""
    true_total = sum(count for _, count in true_h.items())
    true = {label: count / true_total for label, count in true_h.items() if count > 0}
    synth_total = sum(count for _, count in synth_h.items())
    synth = {label: count / synth_total for label, count in synth_h.items()}
    shared = [label for label in synth if label in true]
    true_mass = math.fsum(true[label] for label in shared)
    synth_mass = math.fsum(synth[label] for label in shared)
    pointwise = math.fsum(true[label] * synth[label] for label in shared)
    return FidelityScore(true_mass * synth_mass, len(shared), true_mass, synth_mass), pointwise


def naive_full_domain_oracle(config, h, sampler=None):
    """Brute-force reference for cat_hist: noise every category in the
    domain, then threshold.

    Same output contract as cat_hist. Only usable on small domains; raises
    ValidityError when the domain size exceeds ORACLE_MAX_DOMAIN.
    """
    sampler = load_domain(config.domain) if sampler is None else sampler
    if sampler.size > ORACLE_MAX_DOMAIN:
        raise ValidityError(
            f"domain size {sampler.size} exceeds the brute-force limit {ORACLE_MAX_DOMAIN}"
        )
    active = h.active_domain()
    refuse_outside_labels(sampler, active)

    epsilon = config.privacy.epsilon
    threshold = noisy_threshold(epsilon, config.privacy.rho, sampler.size)
    rng = make_rng(config.seed)

    domain_labels, index = _decoded_domain(sampler)
    active_labels = [label for label, count in h.items() if count > 0]
    at = np.array([index[label] for label in active_labels], dtype=np.intp)
    true_counts = np.zeros(sampler.size)
    true_counts[at] = [count for _, count in h.items() if count > 0]
    noisy = rng.laplace(loc=true_counts, scale=1.0 / epsilon)

    clears = (noisy >= threshold) & (noisy > 0)
    survivors = [
        NoisyBin(label, value, Origin.ACTIVE)
        for label, value, kept in zip(active_labels, noisy[at].tolist(), clears[at].tolist())
        if kept
    ]
    clears[at] = False
    slots = np.flatnonzero(clears)
    injected = [
        NoisyBin(domain_labels[i], value, Origin.INJECTED)
        for i, value in zip(slots.tolist(), noisy[slots].tolist())
    ]
    return NoisyHistogram(survivors + injected)


# Each sampler's labels in index order and their indices, decoded once.
_DECODED = weakref.WeakKeyDictionary()


def _decoded_domain(sampler):
    if sampler not in _DECODED:
        labels = sampler.decode(np.arange(sampler.size))
        _DECODED[sampler] = labels, dict(zip(labels, range(len(labels))))
    return _DECODED[sampler]


def release_law(epsilon, rho, domain, bins):
    """The exact law of a release file's discrete part, at DPS digits.

    domain is the tuple of domain labels and bins the histogram's (label,
    count) pairs in bin order. An outcome is what the file shows without its
    counts: its (label, origin) pairs in file order, the surviving active
    bins in bin order and then the injected labels in draw order. Each
    active bin survives on its own with P(count + Laplace(1/epsilon) >= tau),
    the injected count is Binomial(n - a, p) over the a active labels, and
    the injected labels are distinct and uniform over the absent ones, in
    draw order: an ordered m-tuple of them has probability
    C(n - a, m) p^m (1 - p)^(n - a - m) / (n - a)_m = p^m (1 - p)^(n - a - m) / m!.
    Returns {outcome: probability}, over the outcomes of nonzero probability.
    """
    with mp.workdps(DPS):
        n = len(domain)
        p = 1 - mp.mpf(rho) ** (mp.mpf(1) / n)  # = (1/2) exp(-epsilon * tau)
        tau = -mp.log(2 * p) / mp.mpf(epsilon)
        active = [(label, mp.mpf(count)) for label, count in bins if count > 0]
        absent = [label for label in domain if label not in dict(active)]
        survival = [_laplace_tail(count - tau, epsilon) for _, count in active]
        law = {}
        for kept in itertools.product((False, True), repeat=len(active)):
            p_kept = mp.fprod(s if k else 1 - s for s, k in zip(survival, kept))
            survivors = tuple((label, "active") for (label, _), k in zip(active, kept) if k)
            for m in range(len(absent) + 1):
                p_m = p**m * (1 - p) ** (len(absent) - m) / mp.factorial(m)
                for labels in itertools.permutations(absent, m):
                    law[survivors + tuple((label, "injected") for label in labels)] = p_kept * p_m
        return law


def _laplace_tail(gap, epsilon):
    """P(gap + Laplace(1/epsilon) >= 0)."""
    gap = mp.mpf(epsilon) * gap
    return 1 - mp.exp(-gap) / 2 if gap >= 0 else mp.exp(gap) / 2


def marginal_law(law, key):
    """The law of key(outcome)."""
    with mp.workdps(DPS):
        out = {}
        for outcome, prob in law.items():
            k = key(outcome)
            out[k] = out.get(k, 0) + prob
        return out


def worst_privacy_ratio(law, other):
    """The largest P(o) / P'(o) over both orders of the two laws, inf where
    one law gives an outcome probability 0 that the other does not."""
    with mp.workdps(DPS):
        worst = mp.mpf(0)
        for a, b in ((law, other), (other, law)):
            for outcome, prob in a.items():
                worst = max(worst, prob / b[outcome] if outcome in b else mp.inf)
        return worst


def neighbouring_counts(n, top):
    """Every pair of count vectors over n labels, counts 0..top, that differ
    by one record: by one in one place."""
    for counts in itertools.product(range(top + 1), repeat=n):
        for i in range(n):
            if counts[i] < top:
                yield counts, counts[:i] + (counts[i] + 1,) + counts[i + 1:]


# rng.random() returns k / 2**53 for an integer k, and a release redraws 0.0,
# so its uniforms are the k / 2**53 with 0 < k < 2**53.
UNIFORM_GRID = 2**53


def laplace_count(count, u, scale):
    """A count's released value from uniform u, as _few_survivors computes
    it: count plus sample_laplace's noise, with math.log1p."""
    v = u - 0.5
    magnitude = -math.log1p(-2.0 * abs(v))
    return count + scale * magnitude if v > 0 else count - scale * magnitude


def injected_weight(threshold, u, epsilon):
    """An injected bin's released weight from uniform u, as cat_hist
    computes it: threshold - log1p(-u) / epsilon."""
    return threshold - math.log1p(-u) / epsilon


def reachable(x, noisy):
    """Whether some uniform of the grid gives the double x through noisy, a
    non-decreasing map of the uniform: a binary search over k for the least
    k / 2**53 whose output is at least x."""
    lo, hi = 1, UNIFORM_GRID - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if noisy(mid / UNIFORM_GRID) < x:
            lo = mid + 1
        else:
            hi = mid
    return noisy(lo / UNIFORM_GRID) == x
