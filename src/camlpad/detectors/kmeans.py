"""Lloyd's k-means with probabilistic farthest-point (squared-distance) seeding.

Deterministic under a fixed seed; empty clusters are reseeded during fitting
to the point lying farthest from its currently assigned centroid.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .base import TooFewRows, as_matrix

DEFAULT_CLUSTERS = 8
DEFAULT_MAX_ITERATIONS = 100
DEFAULT_TOLERANCE = 1e-6


@dataclass
class KMeansModel:
    centroids: np.ndarray
    iterations: int
    params: dict = field(default_factory=dict)

    @property
    def n_features(self) -> int:
        return self.centroids.shape[1]


def squared_distances(X: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """(n, k) squared Euclidean distances, one centroid at a time (no (n, k, d) temporary)."""
    d2 = np.empty((X.shape[0], centroids.shape[0]))
    for j, centroid in enumerate(centroids):
        diff = X - centroid
        d2[:, j] = np.einsum("nd,nd->n", diff, diff)
    return d2


def _seed_centroids(X: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = X.shape[0]
    centroids = np.empty((k, X.shape[1]))
    centroids[0] = X[rng.integers(n)]
    closest = ((X - centroids[0]) ** 2).sum(axis=1)
    for i in range(1, k):
        total = closest.sum()
        if total <= 0.0:
            # remaining points coincide with chosen centroids; fall back to uniform
            choice = int(rng.integers(n))
        else:
            choice = int(rng.choice(n, p=closest / total))
        centroids[i] = X[choice]
        closest = np.minimum(closest, ((X - centroids[i]) ** 2).sum(axis=1))
    return centroids


def _lloyd(
    X: np.ndarray,
    centroids: np.ndarray,
    max_iterations: int,
    tolerance: float,
) -> tuple[np.ndarray, int]:
    """Iterate assignment/update; returns (centroids, iterations)."""
    k = centroids.shape[0]
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        d2 = squared_distances(X, centroids)
        assignment = d2.argmin(axis=1)
        own = d2[np.arange(X.shape[0]), assignment]
        # bincount sums each cluster's rows in row order, as X[mask].mean(axis=0) does on 2+ columns
        counts = np.bincount(assignment, minlength=k)
        sums = np.stack([np.bincount(assignment, weights=column, minlength=k) for column in X.T], axis=1)
        updated = np.where(counts[:, None] > 0, sums / np.maximum(counts, 1)[:, None], centroids)
        empties = np.flatnonzero(counts == 0)
        for j in empties:
            farthest = int(own.argmax())
            updated[j] = X[farthest]
            own[farthest] = -np.inf
        shift = np.sqrt(((updated - centroids) ** 2).sum(axis=1)).max()
        centroids = updated
        if shift <= tolerance and empties.size == 0:
            break
    return centroids, iterations


def fit_kmeans(
    data,
    k: int = DEFAULT_CLUSTERS,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    tolerance: float = DEFAULT_TOLERANCE,
    seed: int = 0,
) -> KMeansModel:
    X = as_matrix(data)
    if X.shape[0] < k:
        raise TooFewRows(f"k-means needs >= k={k} rows, got {X.shape[0]}")
    rng = np.random.default_rng(seed)
    centroids = _seed_centroids(X, k, rng)
    centroids, iterations = _lloyd(X, centroids, max_iterations, tolerance)
    return KMeansModel(
        centroids=centroids,
        iterations=iterations,
        params={"k": k, "max_iterations": max_iterations, "tolerance": tolerance, "seed": seed},
    )

