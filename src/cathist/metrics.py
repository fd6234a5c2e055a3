"""Fidelity between a true histogram and a synthetic release.

The score multiplies the probability mass each side places on the common
categories: with I = activeDomain(true) intersect categories(synth), and each
side normalized over its own full support,

    F = mass_true(I) * mass_synth(I)

F = 1 exactly when the two category sets agree (every released category is a
true active one and nothing was lost); F = 0 when they are disjoint. Counts
on either side only matter through their normalized masses, so the score is
scale-invariant.

Sums over the intersection use math.fsum: it is exact, so a score does not
depend on the order the intersection is summed in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

# normalize is bound here for bench/layers.py, which traces it at this name.
from .core import Histogram, NoisyHistogram, normalize, shares  # noqa: F401


@dataclass(frozen=True)
class FidelityScore:
    value: float
    intersection_size: int
    true_mass_in_intersection: float
    synth_mass_in_intersection: float


def _shared_shares(true_h: Histogram, synth_h: Histogram | NoisyHistogram) -> tuple[np.ndarray, np.ndarray]:
    """The true and the synth shares of the intersection, in synth bin order.

    The true histogram is normalized first, so an empty column is an error
    even against an empty release; an empty release shares nothing.
    """
    true_shares = shares(true_h)
    if len(synth_h) == 0:
        return np.empty(0), np.empty(0)
    synth_shares = shares(synth_h)
    # Each synth bin's index in the true histogram, or -1 where it has none.
    at = np.fromiter(map(true_h._index.get, synth_h.labels(), repeat(-1)), np.intp, len(synth_h))
    found = np.flatnonzero(at >= 0)
    shared = found[true_h.counts[at[found]] > 0]
    return true_shares[at[shared]], synth_shares[shared]


def fidelity(true_h: Histogram, synth_h: Histogram | NoisyHistogram) -> FidelityScore:
    """Score a release against the true histogram (see module docstring).

    An empty synthetic release scores 0, it is not an error.
    """
    true_shares, synth_shares = _shared_shares(true_h, synth_h)
    true_mass, synth_mass = math.fsum(true_shares.tolist()), math.fsum(synth_shares.tolist())
    return FidelityScore(true_mass * synth_mass, true_shares.size, true_mass, synth_mass)


def fidelity_pointwise(true_h: Histogram, synth_h: Histogram | NoisyHistogram) -> float:
    """Alternative reading: sum over the intersection of p_true * p_synth.

    Rewards matching the shape of the distribution, not just covering its
    support; kept separate because its value is not the product of the two
    intersection masses.
    """
    true_shares, synth_shares = _shared_shares(true_h, synth_h)
    return math.fsum((true_shares * synth_shares).tolist())
