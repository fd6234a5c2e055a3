"""Exact privacy audit of a release's discrete part on tiny domains.

tests/oracles.py's release_law gives, in closed form, the law of which labels
a release file shows, in which order and with which origin. For every pair
of neighbouring columns (one record added or removed) over domains of up to
3 labels with counts up to 2, epsilon-DP bounds every probability ratio by
e^epsilon. The released label set keeps that bound; the file as written
does not. A chi-square test ties the law to cat_hist.
"""

from __future__ import annotations

import mpmath as mp
import pytest
import scipy.stats

from cathist.core import ExplicitList, Histogram, PrivacyParams
from cathist.domain import load_domain
from cathist.mechanism import CatHistConfig, cat_hist
from cathist.numerics import threshold_defined

from oracles import DPS, marginal_law, neighbouring_counts, release_law, worst_privacy_ratio

LABELS = ("a", "b", "c")
EPSILONS = (0.5, 1.0, 2.0)
RHOS = (0.2, 0.5, 0.9)
MAX_COUNT = 2

# Every (epsilon, rho, n) with a defined threshold.
SETTINGS = [
    (epsilon, rho, n)
    for n in range(1, len(LABELS) + 1)
    for epsilon in EPSILONS
    for rho in RHOS
    if threshold_defined(rho, n)
]


def laws(epsilon, rho, n, counts):
    domain = LABELS[:n]
    return release_law(epsilon, rho, domain, list(zip(domain, counts)))


def label_set(outcome):
    return frozenset(label for label, _ in outcome)


def assert_epsilon_dp(view):
    """Every probability ratio of view(law) over every neighbouring pair and
    setting is at most e^epsilon, up to the rounding of DPS digits."""
    checked = 0
    with mp.workdps(DPS):
        for epsilon, rho, n in SETTINGS:
            bound = mp.exp(epsilon) * (1 + mp.mpf(10) ** (10 - DPS))
            for counts, neighbour in neighbouring_counts(n, MAX_COUNT):
                law, other = view(laws(epsilon, rho, n, counts)), view(laws(epsilon, rho, n, neighbour))
                ratio = worst_privacy_ratio(law, other)
                assert ratio <= bound, (epsilon, rho, counts, neighbour, ratio)
                checked += 1
    assert checked > 100


def test_laws_sum_to_one():
    with mp.workdps(DPS):
        for epsilon, rho, n in SETTINGS:
            for counts in ((0,) * n, (MAX_COUNT,) * n, tuple(range(n))):
                assert abs(mp.fsum(laws(epsilon, rho, n, counts).values()) - 1) < mp.mpf(10) ** (10 - DPS)


def test_released_label_set_is_epsilon_dp():
    # Gate (a). Each domain label is in the set on its own with
    # P(count + Laplace >= tau), an absent one with p = P(Laplace >= tau):
    # the label set is post-processing of the Laplace mechanism.
    assert_epsilon_dp(lambda law: marginal_law(law, label_set))


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="defects 1-2: the file as written says which bins are real, by its origin column and its bin "
    "order, and its public seed makes its noise public",
)
def test_file_as_written_is_epsilon_dp():
    # Gate (b). A label with origin "active" has probability 0 when the
    # label is absent, so the ratio is unbounded.
    assert_epsilon_dp(lambda law: law)


def test_cat_hist_frequencies_match_the_law():
    # One active label and two absent ones, so the injected labels' draw
    # order shows; p is about 0.41.
    domain = ExplicitList(LABELS)
    sampler = load_domain(domain)
    h = Histogram([("b", 2.0), ("c", 0.0)])
    epsilon, rho, runs = 1.0, 0.2, 20_000
    law = release_law(epsilon, rho, LABELS, h.items())
    seen = dict.fromkeys(law, 0)
    for seed in range(runs):
        release = cat_hist(CatHistConfig(PrivacyParams(epsilon, rho), domain, seed), h, sampler=sampler)
        outcome = tuple(
            (label, "injected" if injected else "active") for label, injected in zip(release.labels(), release.injected)
        )
        seen[outcome] += 1  # a KeyError is an outcome the law gives probability 0
    expected = [float(law[outcome]) * runs for outcome in seen]
    assert len(expected) == 10 and min(expected) > 100
    statistic = sum((seen[outcome] - e) ** 2 / e for outcome, e in zip(seen, expected))
    assert statistic < scipy.stats.chi2.isf(0.001, df=len(expected) - 1), seen
