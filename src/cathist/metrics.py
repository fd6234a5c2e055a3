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
depend on the set's iteration order, which follows the interpreter's hash
seed.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

from .core import Histogram, NoisyHistogram, normalize


@dataclass(frozen=True)
class FidelityScore:
    value: float
    intersection_size: int
    true_mass_in_intersection: float
    synth_mass_in_intersection: float


def _shared_shares(
    true_h: Histogram, synth_h: Histogram | NoisyHistogram
) -> tuple[list[float], list[float]]:
    """The true and the synth shares of the intersection, in the same order.

    The true histogram is normalized first, so an empty column is an error
    even against an empty release; an empty release shares nothing.
    """
    true_dist = normalize(true_h)
    if len(synth_h) == 0:
        return [], []
    synth_dist = normalize(synth_h)
    intersection = true_h.active_domain().intersection(synth_dist)
    return [true_dist[c] for c in intersection], [synth_dist[c] for c in intersection]


def fidelity(true_h: Histogram, synth_h: Histogram | NoisyHistogram) -> FidelityScore:
    """Score a release against the true histogram (see module docstring).

    An empty synthetic release scores 0, it is not an error.
    """
    true_shares, synth_shares = _shared_shares(true_h, synth_h)
    true_mass, synth_mass = math.fsum(true_shares), math.fsum(synth_shares)
    return FidelityScore(true_mass * synth_mass, len(true_shares), true_mass, synth_mass)


def fidelity_pointwise(true_h: Histogram, synth_h: Histogram | NoisyHistogram) -> float:
    """Alternative reading: sum over the intersection of p_true * p_synth.

    Rewards matching the shape of the distribution, not just covering its
    support; kept separate because its value is not the product of the two
    intersection masses.
    """
    return math.fsum(map(operator.mul, *_shared_shares(true_h, synth_h)))
