"""Histogram-based outlier score: per-feature equal-width histograms combined
under a feature-independence assumption, scored in linear time.

score(row) = sum over features of -log(count(bin(x))/n + eps); out-of-range
values clamp to the nearest edge bin, the last bin is right-inclusive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import as_matrix, check_dimensions

DEFAULT_BINS = 10
EPSILON = 1e-9


@dataclass
class FeatureHistogram:
    """Equal-width histogram; a constant feature collapses to one degenerate bin."""

    low: float
    high: float
    counts: np.ndarray

    @property
    def degenerate(self) -> bool:
        return self.high == self.low

    @property
    def edges(self) -> np.ndarray:
        if self.degenerate:
            return np.asarray([self.low, self.high])
        return np.linspace(self.low, self.high, len(self.counts) + 1)


@dataclass
class HbosModel:
    histograms: list[FeatureHistogram]
    n_training: int
    epsilon: float = EPSILON

    @property
    def n_features(self) -> int:
        return len(self.histograms)


def fit_hbos(data, bins: int = DEFAULT_BINS) -> HbosModel:
    """Per feature, ``bins`` equal-width bins over the training [min, max]."""
    X = as_matrix(data)
    n, d = X.shape
    if n < 1:
        raise ValueError("hbos needs at least one row")
    if bins < 1:
        raise ValueError("bins must be >= 1")
    histograms: list[FeatureHistogram] = []
    for col in range(d):
        column = X[:, col]
        low, high = float(column.min()), float(column.max())
        if low == high:
            histograms.append(FeatureHistogram(low=low, high=high, counts=np.asarray([n])))
            continue
        hist = FeatureHistogram(low=low, high=high, counts=np.zeros(bins, dtype=int))
        width = (high - low) / bins
        idx = np.floor((column - low) / width).astype(int)
        idx = np.clip(idx, 0, bins - 1)
        hist.counts = np.bincount(idx, minlength=bins)
        histograms.append(hist)
    return HbosModel(histograms=histograms, n_training=n)


def score_hbos_rows(model: HbosModel, rows) -> np.ndarray:
    """Sum of negative log bin occupancy ratios; higher = more anomalous."""
    X = check_dimensions(model.n_features, np.asarray(rows, dtype=float))
    totals = np.zeros(X.shape[0])
    for col, hist in enumerate(model.histograms):
        column = X[:, col]
        if hist.degenerate:
            counts = np.full(X.shape[0], float(hist.counts[0]))
        else:
            bins = len(hist.counts)
            width = (hist.high - hist.low) / bins
            idx = np.floor((column - hist.low) / width).astype(int)
            idx = np.clip(idx, 0, bins - 1)
            counts = hist.counts[idx].astype(float)
        totals += -np.log(counts / model.n_training + model.epsilon)
    # a row sitting in full-occupancy bins everywhere sums to -d*eps; keep >= 0
    return np.maximum(totals, 0.0)


def score_hbos(model: HbosModel, row) -> float:
    return float(score_hbos_rows(model, np.asarray(row, dtype=float))[0])
