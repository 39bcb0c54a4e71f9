import math

import numpy as np
import pytest

from camlpad.detectors import (
    DimensionMismatch,
    TooFewRows,
    average_path_length,
    fit_iforest,
    score_iforest,
    score_iforest_rows,
)
from camlpad.detectors.iforest import EULER_MASCHERONI


class TestPathLengthCurve:
    def test_pinned_small_values(self):
        assert average_path_length(1) == 0.0
        assert average_path_length(2) == 1.0
        assert average_path_length(0) == 0.0

    def test_large_value_matches_formula(self):
        # oracle: direct evaluation of 2*H(n-1) - 2(n-1)/n with H(i) = ln(i) + gamma
        expected = 2 * (math.log(255) + EULER_MASCHERONI) - 2 * 255 / 256
        assert average_path_length(256) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(10.2448, abs=1e-4)

    def test_monotone_increasing(self):
        values = [average_path_length(n) for n in range(2, 500)]
        assert all(b > a for a, b in zip(values, values[1:]))


class TestTwoPointModel:
    def test_both_points_score_exactly_half(self):
        for seed in (0, 1, 99):
            model = fit_iforest(np.array([[0.0], [1.0]]), trees=25, seed=seed)
            assert score_iforest(model, [0.0]) == pytest.approx(0.5, abs=1e-12)
            assert score_iforest(model, [1.0]) == pytest.approx(0.5, abs=1e-12)

    def test_trees_isolate_both_at_depth_one(self):
        model = fit_iforest(np.array([[0.0], [1.0]]), trees=10, seed=3)
        for tree in model.trees:
            leaves = tree.size[tree.feature < 0]
            assert sorted(leaves.tolist()) == [1, 1]


class TestDegenerateData:
    def test_identical_rows_give_single_leaf_and_half_score(self):
        X = np.full((10, 3), 7.0)
        model = fit_iforest(X, trees=20, seed=5)
        for tree in model.trees:
            assert len(tree.feature) == 1 and tree.feature[0] == -1
            assert tree.size[0] == model.sample_size
        assert score_iforest(model, X[0]) == pytest.approx(0.5, abs=1e-12)

    def test_too_few_rows(self):
        with pytest.raises(TooFewRows):
            fit_iforest(np.array([[1.0]]))


class TestDeterminism:
    def test_same_seed_gives_identical_model(self):
        X = np.random.default_rng(2).normal(0, 1, (60, 4))
        first = fit_iforest(X, trees=15, subsample=32, seed=11)
        second = fit_iforest(X, trees=15, subsample=32, seed=11)
        assert len(first.trees) == len(second.trees) == 15
        for a, b in zip(first.trees, second.trees):
            for name in ("feature", "threshold", "left", "right", "size"):
                assert np.array_equal(getattr(a, name), getattr(b, name)), name


class TestScoreProperties:
    def test_outlier_attains_strict_maximum(self):
        X = np.array([[float(v)] for v in list(range(10)) + [100]])
        for seed in (0, 7, 123):
            model = fit_iforest(X, trees=100, subsample=11, seed=seed)
            scores = score_iforest_rows(model, X)
            assert scores.argmax() == 10
            assert scores[10] > scores[:10].max()

    def test_scores_bounded_in_open_unit_interval(self):
        rng = np.random.default_rng(31)
        X = rng.normal(0, 5, (200, 3))
        model = fit_iforest(X, trees=30, subsample=64, seed=1)
        scores = score_iforest_rows(model, rng.normal(0, 20, (500, 3)))
        assert (scores > 0).all() and (scores < 1).all()

    def test_score_strictly_decreasing_in_mean_path(self):
        c = average_path_length(256)
        paths = np.linspace(0.5, 16, 40)
        scores = np.power(2.0, -paths / c)
        assert all(b < a for a, b in zip(scores, scores[1:]))

    def test_dimension_mismatch(self):
        model = fit_iforest(np.array([[0.0, 1.0], [2.0, 3.0]]), trees=5, seed=0)
        with pytest.raises(DimensionMismatch):
            score_iforest(model, [1.0])


class TestTreeStructure:
    def test_depth_never_exceeds_cap(self):
        rng = np.random.default_rng(6)
        X = rng.normal(0, 1, (300, 2))
        model = fit_iforest(X, trees=10, subsample=256, seed=2)

        def max_depth(tree, node=0, depth=0):
            if tree.feature[node] < 0:
                return depth
            return max(
                max_depth(tree, tree.left[node], depth + 1),
                max_depth(tree, tree.right[node], depth + 1),
            )

        for tree in model.trees:
            assert max_depth(tree) <= model.max_depth

    def test_split_values_lie_within_training_range(self):
        rng = np.random.default_rng(12)
        X = rng.uniform(-3, 9, (100, 3))
        model = fit_iforest(X, trees=10, subsample=64, seed=9)
        lows, highs = X.min(axis=0), X.max(axis=0)
        for tree in model.trees:
            for node, feature in enumerate(tree.feature):
                if feature >= 0:
                    assert lows[feature] <= tree.threshold[node] <= highs[feature]
