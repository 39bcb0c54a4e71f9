"""Isolation forest: random-split trees where anomalies isolate in short paths.

Each tree is grown on a uniform random subsample; at each node a split
feature is drawn uniformly among the features that still vary in the node's
sample and the split value uniformly between that feature's node minimum and
maximum. A row's path length is the termination depth plus the average-path
correction for the leaf's sample size, and the anomaly score is
``2 ** (-mean_path / c(sample_size))``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .base import TooFewRows, as_matrix, check_dimensions

EULER_MASCHERONI = 0.5772156649

DEFAULT_TREES = 100
DEFAULT_SUBSAMPLE = 256


def average_path_length(n: int | float) -> float:
    """Expected unsuccessful-search path length in a binary search tree of n nodes.

    Uses the harmonic-number approximation H(i) = ln(i) + gamma; the n <= 2
    cases are pinned exactly because the approximation is poor there.
    """
    if n <= 1:
        return 0.0
    if n == 2:
        return 1.0
    harmonic = math.log(n - 1) + EULER_MASCHERONI
    return 2.0 * harmonic - 2.0 * (n - 1) / n


@dataclass
class IsolationTree:
    """Flat-array binary tree: feature[i] == -1 marks a leaf of ``size[i]`` rows."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    size: np.ndarray


@dataclass
class IsolationForestModel:
    trees: list[IsolationTree]
    n_features: int
    sample_size: int
    max_depth: int


class _TreeBuilder:
    def __init__(self, max_depth: int, rng: np.random.Generator):
        self.max_depth = max_depth
        self.rng = rng
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.size: list[int] = []

    def _new_node(self) -> int:
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.size.append(0)
        return len(self.feature) - 1

    def build(self, sample: np.ndarray, depth: int = 0) -> int:
        node = self._new_node()
        n = sample.shape[0]
        if depth >= self.max_depth or n <= 1:
            self.size[node] = n
            return node
        mins = sample.min(axis=0)
        maxs = sample.max(axis=0)
        varying = np.flatnonzero(maxs > mins)
        if varying.size == 0:
            self.size[node] = n
            return node
        feature = int(varying[self.rng.integers(varying.size)])
        value = float(self.rng.uniform(mins[feature], maxs[feature]))
        mask = sample[:, feature] < value
        self.feature[node] = feature
        self.threshold[node] = value
        self.left[node] = self.build(sample[mask], depth + 1)
        self.right[node] = self.build(sample[~mask], depth + 1)
        return node

    def finish(self) -> IsolationTree:
        return IsolationTree(
            feature=np.asarray(self.feature, dtype=int),
            threshold=np.asarray(self.threshold, dtype=float),
            left=np.asarray(self.left, dtype=int),
            right=np.asarray(self.right, dtype=int),
            size=np.asarray(self.size, dtype=int),
        )


def fit_iforest(
    data,
    trees: int = DEFAULT_TREES,
    subsample: int = DEFAULT_SUBSAMPLE,
    seed: int = 0,
) -> IsolationForestModel:
    """Grow ``trees`` isolation trees on random subsamples of the training rows."""
    X = as_matrix(data)
    n, d = X.shape
    if n < 2:
        raise TooFewRows(f"isolation forest needs >= 2 rows, got {n}")
    if trees < 1 or subsample < 2:
        raise ValueError("trees must be >= 1 and subsample >= 2")
    rng = np.random.default_rng(seed)
    sample_size = min(subsample, n)
    max_depth = math.ceil(math.log2(subsample))
    forest: list[IsolationTree] = []
    for _ in range(trees):
        rows = rng.choice(n, size=sample_size, replace=False)
        builder = _TreeBuilder(max_depth, rng)
        builder.build(X[rows])
        forest.append(builder.finish())
    return IsolationForestModel(
        trees=forest,
        n_features=d,
        sample_size=sample_size,
        max_depth=max_depth,
    )


def _tree_path_lengths(tree: IsolationTree, X: np.ndarray) -> np.ndarray:
    out = np.zeros(X.shape[0])
    stack: list[tuple[int, np.ndarray, int]] = [(0, np.arange(X.shape[0]), 0)]
    while stack:
        node, rows, depth = stack.pop()
        if rows.size == 0:
            continue
        feature = tree.feature[node]
        if feature < 0:
            out[rows] = depth + average_path_length(int(tree.size[node]))
            continue
        mask = X[rows, feature] < tree.threshold[node]
        stack.append((tree.left[node], rows[mask], depth + 1))
        stack.append((tree.right[node], rows[~mask], depth + 1))
    return out


def score_iforest_rows(model: IsolationForestModel, rows) -> np.ndarray:
    """Anomaly scores in (0,1); higher means shorter average isolation path."""
    X = check_dimensions(model.n_features, np.asarray(rows, dtype=float))
    totals = np.zeros(X.shape[0])
    for tree in model.trees:
        totals += _tree_path_lengths(tree, X)
    mean_path = totals / len(model.trees)
    return np.power(2.0, -mean_path / average_path_length(model.sample_size))


def score_iforest(model: IsolationForestModel, row) -> float:
    return float(score_iforest_rows(model, np.asarray(row, dtype=float))[0])
