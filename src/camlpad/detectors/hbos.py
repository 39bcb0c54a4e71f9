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

    def bin_index(self, values: np.ndarray) -> np.ndarray:
        """Each value's bin, out-of-range values clamped to the edge bins; bin 0 when degenerate."""
        if self.degenerate:
            return np.zeros(len(values), dtype=int)
        bins = len(self.counts)
        width = (self.high - self.low) / bins
        with np.errstate(over="ignore"):  # an offset past float range is +-inf and clamps the same way
            offsets = np.floor((values - self.low) / width)
        # clamped before the cast: an offset past int64 would otherwise wrap into bin 0
        return np.clip(offsets, 0, bins - 1).astype(int)


@dataclass
class HbosModel:
    histograms: list[FeatureHistogram]
    n_training: int

    @property
    def n_features(self) -> int:
        return len(self.histograms)


def fit_hbos(data, bins: int = DEFAULT_BINS) -> HbosModel:
    """Per feature, ``bins`` equal-width bins over the training [min, max]."""
    X = as_matrix(data)
    n = X.shape[0]
    if n < 1:
        raise ValueError("hbos needs at least one row")
    if bins < 1:
        raise ValueError("bins must be >= 1")
    histograms: list[FeatureHistogram] = []
    for column in X.T:
        low, high = float(column.min()), float(column.max())
        hist = FeatureHistogram(low=low, high=high, counts=np.zeros(1 if low == high else bins, dtype=int))
        hist.counts = np.bincount(hist.bin_index(column), minlength=len(hist.counts))
        histograms.append(hist)
    return HbosModel(histograms=histograms, n_training=n)


def score_hbos_rows(model: HbosModel, rows) -> np.ndarray:
    """Sum of negative log bin occupancy ratios; higher = more anomalous."""
    X = check_dimensions(model.n_features, np.asarray(rows, dtype=float))
    totals = np.zeros(X.shape[0])
    for column, hist in zip(X.T, model.histograms):
        counts = hist.counts[hist.bin_index(column)].astype(float)
        totals += -np.log(counts / model.n_training + EPSILON)
    # a row sitting in full-occupancy bins everywhere sums to -d*eps; keep >= 0
    return np.maximum(totals, 0.0)


def score_hbos(model: HbosModel, row) -> float:
    return float(score_hbos_rows(model, np.asarray(row, dtype=float))[0])
