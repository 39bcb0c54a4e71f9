"""Two-component PCA used to place rows on the heatmap plane.

Components come from an eigendecomposition of the mean-centered covariance;
the sign of each component is fixed so its largest-magnitude coordinate is
positive, which keeps rendered plots stable across linear-algebra backends.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import CamlpadError
from .base import as_matrix, check_dimensions


@dataclass
class PcaModel:
    mean: np.ndarray
    components: np.ndarray  # (2, d); second row is all-zero when d == 1

    @property
    def n_features(self) -> int:
        return self.mean.shape[0]


def _fix_sign(component: np.ndarray) -> np.ndarray:
    pivot = int(np.abs(component).argmax())
    return -component if component[pivot] < 0 else component


def fit_pca(data) -> PcaModel:
    X = as_matrix(data)
    n, d = X.shape
    if n < 2:
        raise CamlpadError(f"pca needs >= 2 rows, got {n}")
    if d < 1:
        raise ValueError("pca needs at least one column")
    mean = X.mean(axis=0)
    if d == 1:
        return PcaModel(mean=mean, components=np.asarray([[1.0], [0.0]]))
    centered = X - mean
    covariance = centered.T @ centered / (n - 1)
    eigenvalues, eigenvectors = np.linalg.eigh(covariance)
    top = np.argsort(eigenvalues)[::-1][:2]
    components = np.vstack([_fix_sign(eigenvectors[:, i]) for i in top])
    return PcaModel(mean=mean, components=components)


def project_pca_rows(model: PcaModel, rows) -> np.ndarray:
    """(n, 2) coordinates: components applied to mean-centered rows."""
    X = check_dimensions(model.n_features, np.asarray(rows, dtype=float))
    return (X - model.mean) @ model.components.T

