import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from camlpad.detectors import (
    fit_cblof,
    fit_kmeans,
    large_cluster_flags,
    score_cblof,
    score_cblof_rows,
)
from camlpad.detectors.kmeans import _lloyd, _seed_centroids, assign_clusters, squared_distances
from camlpad.errors import CamlpadError

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
        assert squared_distances(X, model.centroids).min(axis=1).sum() == pytest.approx(0.0, abs=1e-18)

    def test_same_seed_is_deterministic(self):
        rng = np.random.default_rng(3)
        X = rng.normal(0, 1, (50, 3))
        a = fit_kmeans(X, k=4, seed=9)
        b = fit_kmeans(X, k=4, seed=9)
        assert np.array_equal(a.centroids, b.centroids)

    def test_too_few_rows(self):
        with pytest.raises(CamlpadError, match=r"^k-means needs >= k=3 rows, got 2$"):
            fit_kmeans(np.array([[1.0], [2.0]]), k=3)

    def test_lloyd_inertia_non_increasing(self):
        rng = np.random.default_rng(5)
        X = rng.normal(0, 2, (80, 2))
        init = X[rng.choice(80, 5, replace=False)]
        trace = [squared_distances(X, init).min(axis=1).sum()]
        for m in range(1, 51):
            centroids, _ = _lloyd(X, init.copy(), max_iterations=m, tolerance=0.0)
            trace.append(squared_distances(X, centroids).min(axis=1).sum())
        for earlier, later in zip(trace, trace[1:]):
            assert later <= earlier + 1e-9
        assert trace[-1] < trace[0]

    def test_empty_cluster_reseeded_to_farthest_point(self):
        rng = np.random.default_rng(7)
        X = np.vstack([
            rng.normal(0, 0.1, (3, 2)),
            rng.normal(10, 0.1, (3, 2)),
        ])
        init = np.array([[0.0, 0.0], [10.0, 10.0], [100.0, 100.0]])
        centroids, _ = _lloyd(X, init, max_iterations=50, tolerance=1e-9)
        assignment = squared_distances(X, centroids).argmin(axis=1)
        assert set(assignment.tolist()) == {0, 1, 2}


def reference_squared_distances(X, centroids):
    diff = X[:, None, :] - centroids[None, :, :]
    return np.einsum("nkd,nkd->nk", diff, diff)


def reference_lloyd(X, centroids, max_iterations, tolerance):
    """Lloyd loop with a masked mean per cluster; returns (centroids, iterations)."""
    k = centroids.shape[0]
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        d2 = reference_squared_distances(X, centroids)
        assignment = d2.argmin(axis=1)
        own = d2[np.arange(X.shape[0]), assignment].copy()
        updated = centroids.copy()
        for j in range(k):
            members = assignment == j
            if members.any():
                updated[j] = X[members].mean(axis=0)
        empties = [j for j in range(k) if not (assignment == j).any()]
        for j in empties:
            farthest = int(own.argmax())
            updated[j] = X[farthest]
            own[farthest] = -np.inf
        shift = np.sqrt(((updated - centroids) ** 2).sum(axis=1)).max()
        centroids = updated
        if shift <= tolerance:
            break
    return centroids, iterations


def reference_fit(X, k, seed, max_iterations=100, tolerance=1e-6):
    init = _seed_centroids(X, k, np.random.default_rng(seed))
    return reference_lloyd(X, init, max_iterations, tolerance)


class TestKMeansMatchesMaskedMeanReference:
    @pytest.mark.parametrize("n,d,k", [(60, 2, 3), (300, 3, 8), (2000, 5, 8), (500, 7, 4), (12000, 5, 8)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("offset", [0.0, 1e6])
    def test_centroids_and_iterations_bit_equal(self, n, d, k, seed, offset):
        rng = np.random.default_rng(100 + seed)
        X = rng.normal(0, 1, (n, d)) * rng.uniform(0.1, 5.0, d) + offset
        if seed == 2:
            X = np.round(X, 1)  # repeated values make ties in distances
        model = fit_kmeans(X, k=k, seed=seed)
        centroids, iterations = reference_fit(X, k, seed)
        assert np.array_equal(model.centroids, centroids)
        assert model.iterations == iterations
        assert np.array_equal(squared_distances(X, centroids), reference_squared_distances(X, centroids))

    def test_forced_empty_cluster_bit_equal(self):
        rng = np.random.default_rng(7)
        X = np.vstack([rng.normal(0, 0.1, (40, 3)), rng.normal(10, 0.1, (40, 3))])
        init = np.array([[0.0, 0.0, 0.0], [10.0, 10.0, 10.0], [100.0, 100.0, 100.0], [-90.0, 0.0, 0.0]])
        centroids, iterations = _lloyd(X, init.copy(), max_iterations=50, tolerance=1e-9)
        expected, expected_iterations = reference_lloyd(X, init.copy(), 50, 1e-9)
        assert np.array_equal(centroids, expected)
        assert iterations == expected_iterations >= 2

    def test_single_column_matches_to_rounding(self):
        # numpy sums a single masked column pairwise, bincount sums in row order
        X = np.random.default_rng(11).normal(0, 1, (500, 1))
        model = fit_kmeans(X, k=5, seed=3)
        centroids, iterations = reference_fit(X, 5, 3)
        assert model.iterations == iterations
        np.testing.assert_allclose(model.centroids, centroids, rtol=1e-12, atol=1e-15)


class TestAssignmentMatchesExactArgmin:
    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(1, 400),
        d=st.integers(1, 6),
        k=st.integers(1, 8),
        offset=st.sampled_from([0.0, 1e3, 1e6, 1e8]),
        rounded=st.booleans(),
        copies=st.sampled_from([None, 0.0, 1e-3]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_row_for_row(self, n, d, k, offset, rounded, copies, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(0, 1, (n, d)) * rng.uniform(0.1, 5.0, d) + offset
        if rounded:
            X = np.round(X, 1)  # repeated values make exact ties in distances
        # centroids as Lloyd's loop makes them: rows and means of row subsets
        centroids = X[rng.integers(n, size=k)]
        for j in np.flatnonzero(rng.random(k) < 0.5):
            centroids[j] = X[rng.choice(n, size=rng.integers(1, n + 1), replace=False)].mean(axis=0)
        if copies is not None and k > 1:
            # some centroids repeat another, exactly or shifted by +-1e-3 per cell
            source = rng.integers(k)
            for j in np.flatnonzero(rng.random(k) < 0.5):
                centroids[j] = centroids[source] + copies * rng.choice([-1.0, 1.0], d)
        expected = reference_squared_distances(X, centroids).argmin(axis=1)
        assert np.array_equal(assign_clusters(X, centroids), expected)


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

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        sizes=st.lists(st.integers(0, 12), min_size=1, max_size=10),
        alpha=st.one_of(st.sampled_from([0.25, 0.5, 0.9, 1.0]), st.floats(0.0, 1.5)),  # above 1 no prefix reaches it
        beta=st.floats(0.5, 20.0),
    )
    def test_matches_the_docstring_rule_walked_by_a_loop(self, sizes, alpha, beta):
        order = sorted(range(len(sizes)), key=lambda c: -sizes[c])  # descending, ties by index
        n = sum(sizes)
        cumulative, boundary = 0, len(order) - 1
        for i, cluster in enumerate(order):
            cumulative += sizes[cluster]
            if cumulative >= alpha * n or (i + 1 < len(order) and sizes[cluster] >= beta * sizes[order[i + 1]]):
                boundary = i
                break
        expected = [cluster in order[: boundary + 1] for cluster in range(len(sizes))]
        assert large_cluster_flags(np.array(sizes), alpha, beta).tolist() == expected


class TestCblofScores:
    def test_small_cluster_scores_distance_to_large_centroid(self):
        model = fit_cblof(TWO_CLUSTERS, k=2, seed=0)
        assert score_cblof(model, [10.0, 10.0]) == pytest.approx(math.sqrt(200.0), abs=1e-9)

    def test_point_at_large_centroid_scores_zero(self):
        model = fit_cblof(TWO_CLUSTERS, k=2, seed=0)
        assert score_cblof(model, [0.0, 0.0]) == pytest.approx(0.0, abs=1e-12)

    def test_large_member_scores_distance_to_own_centroid(self):
        model = fit_cblof(TWO_CLUSTERS, k=2, seed=0)
        assert score_cblof(model, [3.0, 4.0]) == pytest.approx(5.0, abs=1e-9)

    def test_too_few_rows(self):
        with pytest.raises(CamlpadError, match=r"^k-means needs >= k=4 rows, got 2$"):
            fit_cblof(np.array([[0.0], [1.0]]), k=4)

    def test_identical_rows_seed_uniformly_and_score_the_same_on_every_fit(self):
        X = np.full((20, 3), 1.5)  # after the first centroid every row lies at distance 0: k-means++ seeds uniformly
        scores = [score_cblof_rows(fit_cblof(X, k=4, seed=7), X) for _ in range(2)]
        assert np.isfinite(scores[0]).all()
        assert np.array_equal(*scores)

    @pytest.mark.parametrize(
        "X",
        [np.zeros((20, 3)), np.repeat([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]], 10, axis=0)],
        ids=["one_point", "two_points"],
    )
    def test_fewer_distinct_rows_than_k_stop_at_the_fixed_point(self, X):
        # each empty cluster is reseeded onto a point that already holds a centroid, so nothing moves after that
        models = [fit_cblof(X, k=4, seed=7) for _ in range(2)]
        assert models[0].kmeans.iterations <= 2
        assert np.array_equal(score_cblof_rows(models[0], X), score_cblof_rows(models[1], X))
