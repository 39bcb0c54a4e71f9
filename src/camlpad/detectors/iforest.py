"""Isolation forest: random-split trees where anomalies isolate in short paths.

Each tree is grown on a uniform random subsample; at each node a split
feature is drawn uniformly among the features that still vary in the node's
sample and the split value uniformly between that feature's node minimum and
maximum. A node is a leaf at ``max_depth``, at one row or none, or when no
feature varies (Liu, Ting & Zhou, "Isolation Forest", ICDM 2008).

All trees grow together, one depth at a time. The subsamples are stacked
with each node's rows contiguous, so one vectorised pass per depth splits
every node of every tree: per-node minima and maxima by ``reduceat``, one
``rng.random((nodes, 2))`` draw for the features and values, one ``x < value``
routing, and a stable sort that regroups the rows by child. A row's path
length is the termination depth plus the average-path correction for the
leaf's sample size, and the anomaly score is ``2 ** (-mean_path / c(sample_size))``.

Scoring walks all rows down one tree at a time, one level per step, with no
per-node Python loop. The trees' arrays are first flattened into node tables
in which a leaf is its own child and tests feature 0 against +inf, so a row
stays on the leaf it reaches. A step gathers each row's node feature and
threshold, gathers the row's value by flat index ``row * d + feature``, and
moves every row to ``child[2 * node + (x < threshold)]``; a tree takes as many
steps as its deepest leaf. A row's path lengths are added up tree by tree,
in tree order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import CamlpadError
from .base import as_matrix, check_dimensions

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


def fit_iforest(
    data,
    trees: int = DEFAULT_TREES,
    subsample: int = DEFAULT_SUBSAMPLE,
    seed: int = 0,
) -> IsolationForestModel:
    """Grow ``trees`` isolation trees on random subsamples of the training rows, all at once."""
    X = as_matrix(data)
    n, d = X.shape
    if n < 2:
        raise CamlpadError(f"isolation forest needs >= 2 rows, got {n}")
    if trees < 1 or subsample < 2:
        raise ValueError("trees must be >= 1 and subsample >= 2")
    rng = np.random.default_rng(seed)
    sample_size = min(subsample, n)
    max_depth = math.ceil(math.log2(subsample))
    # The frontier is one depth's nodes over all trees, ordered by tree; `sample`
    # holds their rows, grouped by node in frontier order.
    sample = X[np.concatenate([rng.choice(n, size=sample_size, replace=False) for _ in range(trees)])]
    tree = np.arange(trees)
    counts = np.full(trees, sample_size)
    next_id = np.ones(trees, dtype=int)
    levels = []
    for depth in range(max_depth + 1):
        m = counts.size
        feature, threshold = np.full(m, -1), np.zeros(m)
        left, right, size = np.full(m, -1), np.full(m, -1), counts.copy()
        levels.append((tree, feature, threshold, left, right, size))
        filled = np.flatnonzero(counts)
        if depth == max_depth or filled.size == 0:
            break
        starts = np.cumsum(counts[filled]) - counts[filled]
        lo = np.minimum.reduceat(sample, starts)
        hi = np.maximum.reduceat(sample, starts)
        varying = hi > lo
        splits = varying.any(axis=1)
        nodes, lo, hi, varying = filled[splits], lo[splits], hi[splits], varying[splits]
        k = nodes.size
        at = np.arange(k)
        u = rng.random((k, 2))
        nth = (u[:, 0] * varying.sum(axis=1)).astype(int)  # < number varying, as u < 1
        chosen = np.argmax(np.cumsum(varying, axis=1) > nth[:, None], axis=1)
        value = lo[at, chosen] + (hi[at, chosen] - lo[at, chosen]) * u[:, 1]
        # Route: drop the rows of new leaves, then regroup the rest by child.
        rank = np.full(m, -1)
        rank[nodes] = at
        owner = rank[np.repeat(np.arange(m), counts)]
        sample, owner = sample[owner >= 0], owner[owner >= 0]
        child = 2 * owner + ~(sample[np.arange(owner.size), chosen[owner]] < value[owner])
        sample = sample[np.argsort(child, kind="stable")]
        counts = np.bincount(child, minlength=2 * k)
        # Number each tree's new children after its existing nodes, in frontier order.
        parent_tree = tree[nodes]
        per_tree = np.bincount(parent_tree, minlength=trees)
        first = next_id[parent_tree] + 2 * (at - (np.cumsum(per_tree) - per_tree)[parent_tree])
        next_id += 2 * per_tree
        feature[nodes], threshold[nodes], size[nodes] = chosen, value, 0
        left[nodes], right[nodes] = first, first + 1
        tree = np.repeat(parent_tree, 2)
    tree, feature, threshold, left, right, size = (np.concatenate(column) for column in zip(*levels))
    order = np.argsort(tree, kind="stable")
    bounds = np.cumsum(np.bincount(tree, minlength=trees))[:-1]
    return IsolationForestModel(
        trees=[
            IsolationTree(feature[ix], threshold[ix], left[ix], right[ix], size[ix])
            for ix in np.split(order, bounds)
        ],
        n_features=d,
        sample_size=sample_size,
        max_depth=max_depth,
    )


def _forest_tables(model: IsolationForestModel):
    """Node tables of all trees, numbered tree after tree, and each tree's root and height.

    Child pairs are stored (right, left), so a row goes right iff not x < threshold.
    ``value`` is a leaf's path length, its depth plus c(size).
    """
    sizes = np.array([len(tree.feature) for tree in model.trees])
    roots = np.cumsum(sizes) - sizes
    feature, threshold, left, right, size = (
        np.concatenate([getattr(tree, name) for tree in model.trees])
        for name in ("feature", "threshold", "left", "right", "size")
    )
    leaf = feature < 0
    node = np.arange(feature.size)
    shift = np.repeat(roots, sizes)
    child = np.column_stack([np.where(leaf, node, right + shift), np.where(leaf, node, left + shift)]).ravel()
    depth = np.zeros(feature.size)
    level, d = roots, 0
    while level.size:
        depth[level] = d
        level, d = child.reshape(-1, 2)[level[~leaf[level]]].ravel(), d + 1
    c = np.array([average_path_length(k) for k in range(int(size.max()) + 1)])
    height = np.maximum.reduceat(depth, roots).astype(int)
    return roots, height, child, np.where(leaf, 0, feature), np.where(leaf, np.inf, threshold), depth + c[size]


def score_iforest_rows(model: IsolationForestModel, rows) -> np.ndarray:
    """Anomaly scores in (0,1); higher means shorter average isolation path."""
    X = check_dimensions(model.n_features, np.asarray(rows, dtype=float))
    roots, height, child, feature, threshold, value = _forest_tables(model)
    n, d = X.shape
    flat, offset, totals = X.ravel(), np.arange(n) * d, np.zeros(n)
    for root, steps in zip(roots.tolist(), height.tolist()):
        node = np.full(n, root)
        for _ in range(steps):
            node = child[2 * node + (flat[offset + feature[node]] < threshold[node])]
        totals += value[node]
    mean_path = totals / len(model.trees)
    return np.power(2.0, -mean_path / average_path_length(model.sample_size))


def score_iforest(model: IsolationForestModel, row) -> float:
    return float(score_iforest_rows(model, np.asarray(row, dtype=float))[0])
