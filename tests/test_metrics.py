import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cathist.core import Histogram, NoisyBin, NoisyHistogram, Origin, ValidityError
from cathist.metrics import FidelityScore, fidelity, fidelity_pointwise

from oracles import fidelity_by_dict


def noisy(*bins):
    return NoisyHistogram([NoisyBin(label, count, Origin.ACTIVE) for label, count in bins])


# Seeded, few and small examples, so tier-1 stays deterministic and quick.
PROPERTY = settings(derandomize=True, max_examples=100, deadline=None)
# True labels from a small pool, so that true and synth labels often meet; a
# release may also hold labels that are not in the column at all.
TRUE_LABELS = [f"c{i}" for i in range(8)]
TRUE_BINS = st.dictionaries(st.sampled_from(TRUE_LABELS), st.integers(0, 40).map(float), max_size=8).filter(
    lambda bins: sum(bins.values()) > 0
)
SYNTH_BINS = st.dictionaries(
    st.sampled_from(TRUE_LABELS + ["x0", "x1", "x2"]), st.floats(1e-3, 1e6), max_size=11
)


class TestFidelity:
    def test_identical_histograms_score_one(self):
        h = Histogram([("a", 3.0), ("b", 1.0)])
        score = fidelity(h, h)
        assert score.value == 1.0
        assert score.intersection_size == 2

    def test_equal_supports_different_counts_still_one(self):
        true_h = Histogram([("a", 9.0), ("b", 1.0)])
        score = fidelity(true_h, noisy(("a", 1.0), ("b", 1.0)))
        assert score.value == 1.0
        assert score.true_mass_in_intersection == 1.0
        assert score.synth_mass_in_intersection == 1.0

    def test_disjoint_supports_score_zero(self):
        score = fidelity(Histogram([("a", 1.0)]), noisy(("x", 1.0)))
        assert score.value == 0.0
        assert score.intersection_size == 0

    def test_hand_case_quarter(self):
        true_h = Histogram([("a", 1.0), ("b", 1.0)])
        synth_h = noisy(("a", 1.0), ("x", 1.0))
        score = fidelity(true_h, synth_h)
        assert score.value == pytest.approx(0.25)
        # Independent recomputation straight from the definition.
        t = {"a": 0.5, "b": 0.5}
        s = {"a": 0.5, "x": 0.5}
        shared = set(t) & set(s)
        assert score.value == pytest.approx(
            sum(t[c] for c in shared) * sum(s[c] for c in shared)
        )

    def test_value_is_product_of_components(self):
        rng = np.random.default_rng(301)
        labels = [f"c{i}" for i in range(12)]
        for _ in range(200):
            t_lab = rng.choice(labels, size=rng.integers(1, 9), replace=False)
            s_lab = rng.choice(labels, size=rng.integers(1, 9), replace=False)
            true_h = Histogram([(str(l), float(rng.integers(1, 50))) for l in t_lab])
            synth_h = noisy(*[(str(l), float(rng.integers(1, 50))) for l in s_lab])
            score = fidelity(true_h, synth_h)
            assert 0.0 <= score.value <= 1.0
            assert score.value == pytest.approx(
                score.true_mass_in_intersection * score.synth_mass_in_intersection
            )

    def test_scale_invariance(self):
        true_h = Histogram([("a", 2.0), ("b", 6.0)])
        synth_a = noisy(("a", 1.0), ("x", 3.0))
        synth_b = noisy(("a", 250.0), ("x", 750.0))
        assert fidelity(true_h, synth_a).value == pytest.approx(
            fidelity(true_h, synth_b).value
        )
        scaled_true = Histogram([("a", 2000.0), ("b", 6000.0)])
        assert fidelity(scaled_true, synth_a).value == pytest.approx(
            fidelity(true_h, synth_a).value
        )

    def test_adding_true_category_to_synth_never_decreases(self):
        true_h = Histogram([("a", 4.0), ("b", 3.0), ("c", 3.0)])
        base = noisy(("a", 1.0), ("x", 1.0))
        wider = noisy(("a", 1.0), ("x", 1.0), ("b", 1.0))
        assert fidelity(true_h, wider).value >= fidelity(true_h, base).value

    def test_true_mass_one_when_synth_covers_active_domain(self):
        true_h = Histogram([("a", 4.0), ("b", 3.0)])
        synth_h = noisy(("a", 2.0), ("b", 2.0), ("junk", 1.0))
        score = fidelity(true_h, synth_h)
        assert score.true_mass_in_intersection == pytest.approx(1.0)
        assert score.value < 1.0  # the junk bin costs synth mass

    def test_empty_synth_scores_zero_not_error(self):
        score = fidelity(Histogram([("a", 1.0)]), NoisyHistogram([]))
        assert score == FidelityScore(0.0, 0, 0.0, 0.0)

    def test_zero_total_true_histogram_is_an_error(self):
        with pytest.raises(ValidityError, match="empty distribution"):
            fidelity(Histogram([("a", 0.0)]), noisy(("a", 1.0)))

    def test_overflowing_synth_total_is_an_error(self):
        # Each noisy count is finite, their sum is not: the score would be 0.
        with pytest.raises(ValidityError, match="total is not finite"):
            fidelity(Histogram([("a", 1.0)]), noisy(("a", 1.7e308), ("b", 1.7e308)))

    def test_zero_count_true_bins_do_not_enter_intersection(self):
        true_h = Histogram([("a", 5.0), ("b", 0.0)])
        synth_h = noisy(("a", 1.0), ("b", 1.0))
        score = fidelity(true_h, synth_h)
        assert score.intersection_size == 1
        assert score.synth_mass_in_intersection == pytest.approx(0.5)


class TestAgainstDictReference:
    @PROPERTY
    @given(TRUE_BINS, SYNTH_BINS)
    @example({"c0": 3.0, "c1": 0.0}, {"c1": 2.0, "x0": 1.0})  # a zero-count true bin
    @example({"c0": 3.0, "c1": 1.0}, {"x0": 2.0, "x1": 1.0})  # a disjoint release
    @example({"c0": 3.0}, {})  # an empty release
    def test_scores_equal_the_reference_exactly(self, true_bins, synth_bins):
        true_h = Histogram(true_bins.items())
        synth_h = noisy(*synth_bins.items())
        score, pointwise = fidelity_by_dict(true_h, synth_h)
        assert fidelity(true_h, synth_h) == score
        assert fidelity_pointwise(true_h, synth_h) == pointwise


class TestFidelityPointwise:
    def test_uniform_identical(self):
        h = Histogram([("a", 1.0), ("b", 1.0)])
        assert fidelity_pointwise(h, h) == pytest.approx(0.5)

    def test_differs_from_product_variant(self):
        true_h = Histogram([("a", 1.0), ("b", 1.0)])
        synth_h = noisy(("a", 1.0), ("x", 1.0))
        assert fidelity_pointwise(true_h, synth_h) == pytest.approx(0.25)
        true_h2 = Histogram([("a", 3.0), ("b", 1.0)])
        synth_h2 = noisy(("a", 3.0), ("b", 1.0))
        assert fidelity(true_h2, synth_h2).value == pytest.approx(1.0)
        assert fidelity_pointwise(true_h2, synth_h2) == pytest.approx(
            0.75 * 0.75 + 0.25 * 0.25
        )

    def test_empty_synth(self):
        assert fidelity_pointwise(Histogram([("a", 1.0)]), NoisyHistogram([])) == 0.0
