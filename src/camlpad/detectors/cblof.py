"""Cluster-based local outlier factor over a k-means partition.

Clusters are split into large and small by the size rules: walking sizes in
descending order, the boundary is the first index where the cumulative size
reaches alpha*n or where the size ratio to the next cluster reaches beta
(a fit uses alpha = 0.9 and beta = 5).
A row in a large cluster scores its distance to that centroid; a row in a
small cluster scores its distance to the nearest large centroid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import as_matrix, check_dimensions
from .kmeans import DEFAULT_CLUSTERS, KMeansModel, assign_clusters, fit_kmeans, squared_distances

DEFAULT_ALPHA = 0.9
DEFAULT_BETA = 5.0


@dataclass
class CblofModel:
    kmeans: KMeansModel
    large_flags: np.ndarray

    @property
    def n_features(self) -> int:
        return self.kmeans.n_features


def large_cluster_flags(sizes: np.ndarray, alpha: float, beta: float) -> np.ndarray:
    """Apply the alpha/beta boundary rule; at least one cluster is always large."""
    sizes = np.asarray(sizes)
    order = np.argsort(-sizes, kind="stable")
    ranked = sizes[order]
    ends = np.cumsum(ranked) >= alpha * ranked.sum()
    ends[:-1] |= ranked[:-1] >= beta * ranked[1:]
    ends[-1] = True  # the last cluster ends the large set when no rule holds (only with alpha > 1)
    return np.argsort(order) <= np.argmax(ends)  # each cluster's rank against the last large one's


def fit_cblof(data, k: int = DEFAULT_CLUSTERS, seed: int = 0) -> CblofModel:
    X = as_matrix(data)
    kmeans = fit_kmeans(X, k, seed)
    assignment = assign_clusters(X, kmeans.centroids)
    sizes = np.bincount(assignment, minlength=k)
    flags = large_cluster_flags(sizes, DEFAULT_ALPHA, DEFAULT_BETA)
    return CblofModel(kmeans=kmeans, large_flags=flags)


def score_cblof_rows(model: CblofModel, rows) -> np.ndarray:
    """Distance to the owning large centroid, or to the nearest large centroid
    for rows assigned to small clusters; cluster size does not scale it."""
    X = check_dimensions(model.n_features, np.asarray(rows, dtype=float))
    d2 = squared_distances(X, model.kmeans.centroids)
    assignment = d2.argmin(axis=1)
    own_distance = np.sqrt(d2[np.arange(X.shape[0]), assignment])
    large_distance = np.sqrt(d2[:, model.large_flags].min(axis=1))
    return np.where(model.large_flags[assignment], own_distance, large_distance)


def score_cblof(model: CblofModel, row) -> float:
    return float(score_cblof_rows(model, np.asarray(row, dtype=float))[0])
