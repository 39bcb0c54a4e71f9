"""Shared input checks for the detector implementations."""

from __future__ import annotations

import numpy as np

from ..errors import CamlpadError


def as_matrix(data) -> np.ndarray:
    """Accept a FeatureMatrix or a raw 2-D array; detectors fit only finite floats."""
    array = np.asarray(getattr(data, "values", data), dtype=float)
    if array.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {array.shape}")
    return check_dimensions(array.shape[1], array)


def check_dimensions(expected: int, row_or_matrix: np.ndarray) -> np.ndarray:
    """Rows to score as a 2-D float array; NaN and +-inf are refused."""
    array = np.asarray(row_or_matrix, dtype=float)
    if array.ndim == 1:
        array = array[None, :]
    if array.shape[1] != expected:
        raise CamlpadError(f"model expects {expected} features, got {array.shape[1]}")
    if np.isnan(array).any():
        raise ValueError("detector input contains missing values; impute first")
    if np.isinf(array).any():
        raise ValueError("detector input contains infinite values")
    return array
