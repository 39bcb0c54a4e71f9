"""Lloyd's k-means with probabilistic farthest-point (squared-distance) seeding.

Deterministic under a fixed seed; empty clusters are reseeded during fitting
to the point lying farthest from its currently assigned centroid.

Assignment gives each row its nearest centroid, lowest index on a tie: always
exactly ``squared_distances(X, C).argmin(axis=1)``, computed as one matrix
product. The columns are centred once per fit at their mean m; with
x' = x - m and c' = c - m, the (k, n) score ``S = ||c'||^2 - 2 c'.x'`` equals
``||x - c||^2 - ||x'||^2``, so a row's smallest score names its nearest
centroid. Centring keeps the product's cancellation at the scale of the
spread, not of the offset. A row with a second score within

    margin = 1e-9 * (||x'||^2 + max ||c'||^2)

of its best, or with no score at all within it, is reassigned from the exact
distances of that row alone. A score errs by less than a small multiple of
(d + 2) * eps * (||x'||^2 + ||c'||^2), with eps = 2.2e-16, because every
product term obeys |c'_i x'_i| <= (c'_i^2 + x'_i^2) / 2; an exact distance,
at most 2 * (||x'||^2 + ||c'||^2), errs by as little. Up to about 10^5
features the margin exceeds twice either error, so a row whose best score
beats the others by more than the margin has the same nearest centroid in
both forms, and rows inside it (ties on rounded data, duplicate centroids)
take the exact form's answer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import CamlpadError
from .base import as_matrix

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
    """(n, k) squared Euclidean distances, one centroid at a time (no (n, k, d) temporary).

    The exact form: CBLOF scores are its square roots, and assignment rechecks
    near-tied rows with it."""
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


def _centre(X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Once per fit: column mean m, (X - m)^T as a contiguous (d, n) array, ||x - m||^2 per row."""
    mean = X.mean(axis=0)
    centred_t = np.ascontiguousarray((X - mean).T)
    return mean, centred_t, np.einsum("dn,dn->n", centred_t, centred_t)


def _assign(X: np.ndarray, centred: tuple, centroids: np.ndarray) -> np.ndarray:
    """Nearest centroid per row from one (k, n) product; near ties rechecked exactly (module docstring)."""
    mean, centred_t, row_norms = centred
    shifted = centroids - mean
    centroid_norms = np.einsum("kd,kd->k", shifted, shifted)
    scores = (-2.0 * shifted) @ centred_t
    scores += centroid_norms[:, None]
    threshold = scores.min(axis=0)
    threshold += 1e-9 * (row_norms + centroid_norms.max())
    # argmin down the k axis costs more than the product; instead count the centroids within
    # the margin of each row's best and sum their indices, which is the nearest one where the count is 1
    count, index_sum = np.stack([np.ones(len(centroids)), np.arange(len(centroids))]) @ (scores <= threshold)
    assignment = index_sum.astype(np.intp)
    near_tied = np.flatnonzero(count != 1)
    if near_tied.size:
        assignment[near_tied] = squared_distances(X[near_tied], centroids).argmin(axis=1)
    return assignment


def assign_clusters(X: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Index of each row's nearest centroid, equal to ``squared_distances(X, centroids).argmin(axis=1)``."""
    return _assign(X, _centre(X), centroids)


def _lloyd(
    X: np.ndarray,
    centroids: np.ndarray,
    max_iterations: int,
    tolerance: float,
) -> tuple[np.ndarray, int]:
    """Iterate assignment/update until no centroid moves more than ``tolerance``; returns (centroids, iterations)."""
    k = centroids.shape[0]
    centred = _centre(X)
    # contiguous columns spare bincount a strided copy of each one per iteration
    columns = np.ascontiguousarray(X.T)
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        assignment = _assign(X, centred, centroids)
        # bincount sums each cluster's rows in row order, as X[mask].mean(axis=0) does on 2+ columns
        counts = np.bincount(assignment, minlength=k)
        sums = np.stack([np.bincount(assignment, weights=column, minlength=k) for column in columns], axis=1)
        updated = np.where(counts[:, None] > 0, sums / np.maximum(counts, 1)[:, None], centroids)
        empties = np.flatnonzero(counts == 0)
        if empties.size:
            own = squared_distances(X, centroids)[np.arange(X.shape[0]), assignment]
            for j in empties:
                farthest = int(own.argmax())
                updated[j] = X[farthest]
                own[farthest] = -np.inf
        shift = np.sqrt(((updated - centroids) ** 2).sum(axis=1)).max()
        centroids = updated
        if shift <= tolerance:
            break
    return centroids, iterations


def fit_kmeans(data, k: int = DEFAULT_CLUSTERS, seed: int = 0) -> KMeansModel:
    X = as_matrix(data)
    if X.shape[0] < k:
        raise CamlpadError(f"k-means needs >= k={k} rows, got {X.shape[0]}")
    rng = np.random.default_rng(seed)
    centroids = _seed_centroids(X, k, rng)
    centroids, iterations = _lloyd(X, centroids, DEFAULT_MAX_ITERATIONS, DEFAULT_TOLERANCE)
    return KMeansModel(
        centroids=centroids,
        iterations=iterations,
        params={"k": k, "max_iterations": DEFAULT_MAX_ITERATIONS, "tolerance": DEFAULT_TOLERANCE, "seed": seed},
    )

