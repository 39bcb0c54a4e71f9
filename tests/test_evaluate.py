import random
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from camlpad.evaluate import (
    LengthMismatch,
    TooFewItems,
    adjusted_rand_index,
    pairwise_ari_report,
)


def oracle_ari(a, b):
    """Brute force: classify every pair into the four agreement cells, then
    apply the pair-count identity ARI = 2(ad - bc) / ((a+b)(b+d) + (a+c)(c+d)).

    Exact rational arithmetic throughout; independent of the contingency-table
    implementation under test.
    """
    ss = sd = ds = dd = 0
    for i, j in combinations(range(len(a)), 2):
        same_a, same_b = a[i] == a[j], b[i] == b[j]
        if same_a and same_b:
            ss += 1
        elif same_a:
            sd += 1
        elif same_b:
            ds += 1
        else:
            dd += 1
    denominator = (ss + sd) * (sd + dd) + (ss + ds) * (ds + dd)
    if denominator == 0:
        return 1.0
    return float(Fraction(2 * (ss * dd - sd * ds), denominator))


class TestAdjustedRandIndex:
    def test_identical_clusterings(self):
        assert adjusted_rand_index([0, 0, 1, 1], [0, 0, 1, 1]) == 1.0

    def test_permutation_invariance(self):
        assert adjusted_rand_index([0, 0, 1, 1], [1, 1, 0, 0]) == 1.0

    def test_hand_contingency_example(self):
        assert adjusted_rand_index([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(-0.5, abs=1e-12)

    def test_degenerate_all_singletons(self):
        assert adjusted_rand_index([0, 1, 2], [5, 6, 7]) == 1.0

    def test_degenerate_single_cluster_both(self):
        assert adjusted_rand_index([0, 0, 0], [1, 1, 1]) == 1.0

    def test_symmetry(self):
        rng = random.Random(5)
        for _ in range(50):
            n = rng.randint(2, 10)
            a = [rng.randint(0, 2) for _ in range(n)]
            b = [rng.randint(0, 2) for _ in range(n)]
            assert adjusted_rand_index(a, b) == pytest.approx(adjusted_rand_index(b, a), abs=1e-15)

    def test_label_permutation_invariance(self):
        rng = random.Random(7)
        for _ in range(50):
            n = rng.randint(2, 10)
            a = [rng.randint(0, 2) for _ in range(n)]
            b = [rng.randint(0, 2) for _ in range(n)]
            renamed = [{0: 7, 1: 3, 2: 11}[x] for x in b]
            assert adjusted_rand_index(a, b) == adjusted_rand_index(a, renamed)

    def test_matches_bruteforce_oracle_exactly(self):
        rng = random.Random(901)
        for _ in range(200):
            n = rng.randint(2, 8)
            a = [rng.randint(0, 3) for _ in range(n)]
            b = [rng.randint(0, 3) for _ in range(n)]
            assert adjusted_rand_index(a, b) == pytest.approx(oracle_ari(a, b), abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            adjusted_rand_index([0, 1], [0, 1, 2])

    def test_too_few_items(self):
        with pytest.raises(TooFewItems):
            adjusted_rand_index([0], [0])


def counter_ari(a, b):
    """The contingency table counted by collections.Counter over Python label pairs, then the same exact formula."""
    n = len(a)
    sum_cells = sum(comb(c, 2) for c in Counter(zip(a, b)).values())
    sum_a = sum(comb(c, 2) for c in Counter(a).values())
    sum_b = sum(comb(c, 2) for c in Counter(b).values())
    expected = Fraction(sum_a * sum_b, comb(n, 2))
    denominator = Fraction(sum_a + sum_b, 2) - expected
    return 1.0 if denominator == 0 else float((Fraction(sum_cells) - expected) / denominator)


# label values that are negative, non-contiguous and past int32
LABEL_VALUES = st.one_of(st.sampled_from([-(2**40), 2**31, 2**31 + 7, 2**62]), st.integers(-5, 5))


@st.composite
def label_pairs(draw):
    """Two equal-length vectors, each over its own few drawn label values, filled by a drawn seed."""
    n = draw(st.integers(2, 500))
    rng = random.Random(draw(st.integers(0, 2**32)))
    values = [draw(st.lists(LABEL_VALUES, min_size=1, max_size=n, unique=True)) for _ in range(2)]
    return tuple([rng.choice(vs) for _ in range(n)] for vs in values)


class TestContingencyMatchesCounter:
    @settings(max_examples=200, deadline=None)
    @given(label_pairs(), st.booleans(), st.booleans())
    def test_equals_counter_reference(self, pair, a_as_array, b_as_array):
        a, b = pair
        expected = counter_ari(a, b)
        got = adjusted_rand_index(np.array(a) if a_as_array else a, np.array(b) if b_as_array else b)
        assert got == expected

    def test_pipeline_label_arrays(self):
        rng = np.random.default_rng(14)
        a, b = (rng.random(2000) < 0.05).astype(int), (rng.random(2000) < 0.05).astype(int)
        assert adjusted_rand_index(a, b) == counter_ari(a.tolist(), b.tolist())


def mean_pairwise_ari(vectors):
    """Mean pairwise ARI of one source's label vectors, through the full report."""
    report = pairwise_ari_report({"yaf": {f"v{i}": v for i, v in enumerate(vectors)}})
    assert report["mean_pairwise_ari"] == report["per_source"]["yaf"]["mean_pairwise_ari"]
    return report["mean_pairwise_ari"]


class TestMeanPairwise:
    def test_identical_vectors_mean_one(self):
        assert mean_pairwise_ari([[0, 1, 0], [0, 1, 0], [0, 1, 0]]) == 1.0

    def test_two_vectors_is_their_ari(self):
        a, b = [0, 0, 1, 1], [0, 1, 0, 1]
        assert mean_pairwise_ari([a, b]) == adjusted_rand_index(a, b)

    def test_two_identical_one_different(self):
        a = [0, 0, 1, 1]
        c = [0, 1, 1, 1]
        cross = oracle_ari(a, c)
        expected = (1.0 + cross + cross) / 3
        assert mean_pairwise_ari([a, a, c]) == pytest.approx(expected, abs=1e-12)

    def test_needs_at_least_two(self):
        with pytest.raises(TooFewItems):
            mean_pairwise_ari([[0, 1]])

    def test_report_pairs_in_vector_order_and_averages_sources(self):
        a, b, c = [0, 0, 1, 1], [0, 1, 0, 1], [0, 0, 0, 1]
        report = pairwise_ari_report({"yaf": {"iforest": a, "hbos": b, "cblof": c}, "snort": {"iforest": a, "hbos": a}})
        assert list(report["per_source"]) == ["snort", "yaf"]
        assert list(report["per_source"]["yaf"]["pairwise_ari"]) == ["iforest|hbos", "iforest|cblof", "hbos|cblof"]
        yaf = report["per_source"]["yaf"]["mean_pairwise_ari"]
        assert report["mean_pairwise_ari"] == (1.0 + yaf) / 2

    def test_empty_report_has_no_mean(self):
        assert pairwise_ari_report({}) == {"per_source": {}, "mean_pairwise_ari": None}
