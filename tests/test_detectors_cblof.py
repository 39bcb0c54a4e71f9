import math

import numpy as np
import pytest

from camlpad.detectors import (
    TooFewRows,
    fit_cblof,
    fit_kmeans,
    large_cluster_flags,
    score_cblof,
    score_cblof_rows,
)
from camlpad.detectors.kmeans import _lloyd

TWO_CLUSTERS = np.array([[0.0, 0.0]] * 5 + [[10.0, 10.0]])


class TestKMeans:
    def test_separated_clusters_find_exact_centroids(self):
        X = np.array([[0.0, 0.0]] * 3 + [[10.0, 10.0]] * 3)
        model = fit_kmeans(X, k=2, seed=0)
        centroids = sorted(model.centroids.tolist())
        assert centroids == [[0.0, 0.0], [10.0, 10.0]]

    def test_k_equals_n_gives_zero_inertia(self):
        rng = np.random.default_rng(2)
        X = rng.normal(0, 5, (6, 2))
        model = fit_kmeans(X, k=6, seed=1)
        assert model.inertia == pytest.approx(0.0, abs=1e-18)

    def test_same_seed_is_deterministic(self):
        rng = np.random.default_rng(3)
        X = rng.normal(0, 1, (50, 3))
        a = fit_kmeans(X, k=4, seed=9)
        b = fit_kmeans(X, k=4, seed=9)
        assert np.array_equal(a.centroids, b.centroids)

    def test_too_few_rows(self):
        with pytest.raises(TooFewRows):
            fit_kmeans(np.array([[1.0], [2.0]]), k=3)

    def test_lloyd_inertia_non_increasing(self):
        rng = np.random.default_rng(5)
        X = rng.normal(0, 2, (80, 2))
        init = X[rng.choice(80, 5, replace=False)]
        _, _, trace, _ = _lloyd(X, init.copy(), max_iterations=50, tolerance=0.0)
        for earlier, later in zip(trace, trace[1:]):
            assert later <= earlier + 1e-9

    def test_empty_cluster_reseeded_to_farthest_point(self):
        rng = np.random.default_rng(7)
        X = np.vstack([
            rng.normal(0, 0.1, (3, 2)),
            rng.normal(10, 0.1, (3, 2)),
        ])
        init = np.array([[0.0, 0.0], [10.0, 10.0], [100.0, 100.0]])
        centroids, assignment, _, _ = _lloyd(X, init, max_iterations=50, tolerance=1e-9)
        assert set(assignment.tolist()) == {0, 1, 2}


class TestLargeClusterRule:
    def test_beta_ratio_triggers_at_first_boundary(self):
        flags = large_cluster_flags(np.array([5, 1]), alpha=0.9, beta=5.0)
        assert flags.tolist() == [True, False]

    def test_equal_sizes_use_cumulative_alpha_prefix(self):
        flags = large_cluster_flags(np.array([25, 25, 25, 25]), alpha=0.9, beta=5.0)
        assert flags.tolist() == [True, True, True, True]

    def test_alpha_prefix_can_stop_early(self):
        flags = large_cluster_flags(np.array([60, 35, 5]), alpha=0.9, beta=100.0)
        assert flags.tolist() == [True, True, False]

    def test_ratio_can_stop_before_alpha(self):
        flags = large_cluster_flags(np.array([10, 1, 1]), alpha=0.99, beta=5.0)
        assert flags.tolist() == [True, False, False]

    def test_single_cluster_is_large(self):
        assert large_cluster_flags(np.array([12]), alpha=0.9, beta=5.0).tolist() == [True]

    def test_at_least_one_large_for_random_sizes(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            sizes = rng.integers(1, 50, size=rng.integers(1, 9))
            assert large_cluster_flags(sizes, alpha=0.9, beta=5.0).any()


class TestCblofScores:
    def test_small_cluster_scores_distance_to_large_centroid(self):
        model = fit_cblof(TWO_CLUSTERS, k=2, alpha=0.9, beta=5.0, seed=0)
        assert score_cblof(model, [10.0, 10.0]) == pytest.approx(math.sqrt(200.0), abs=1e-9)

    def test_point_at_large_centroid_scores_zero(self):
        model = fit_cblof(TWO_CLUSTERS, k=2, alpha=0.9, beta=5.0, seed=0)
        assert score_cblof(model, [0.0, 0.0]) == pytest.approx(0.0, abs=1e-12)

    def test_large_member_scores_distance_to_own_centroid(self):
        model = fit_cblof(TWO_CLUSTERS, k=2, alpha=0.9, beta=5.0, seed=0)
        assert score_cblof(model, [3.0, 4.0]) == pytest.approx(5.0, abs=1e-9)

    def test_weighted_variant_multiplies_by_cluster_size(self):
        plain = fit_cblof(TWO_CLUSTERS, k=2, seed=0)
        weighted = fit_cblof(TWO_CLUSTERS, k=2, seed=0, weighted=True)
        probe = np.array([[10.0, 10.0], [1.0, 1.0]])
        ratio = score_cblof_rows(weighted, probe) / score_cblof_rows(plain, probe)
        # probe rows are owned by the small (size 1) and large (size 5) clusters
        assert ratio.tolist() == [1.0, 5.0]

    def test_too_few_rows(self):
        with pytest.raises(TooFewRows):
            fit_cblof(np.array([[0.0], [1.0]]), k=4)

