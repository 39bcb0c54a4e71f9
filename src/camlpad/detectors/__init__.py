"""Unsupervised outlier detectors and the PCA projector.

All fits are deterministic under a fixed seed. Fitted models are plain
dataclasses that no scoring function mutates.
"""

from __future__ import annotations

from .cblof import CblofModel, fit_cblof, large_cluster_flags, score_cblof, score_cblof_rows
from .hbos import HbosModel, fit_hbos, score_hbos, score_hbos_rows
from .iforest import (
    IsolationForestModel,
    average_path_length,
    fit_iforest,
    score_iforest,
    score_iforest_rows,
)
from .kmeans import KMeansModel, fit_kmeans
from .pca import PcaModel, fit_pca, project_pca_rows

__all__ = [
    "CblofModel",
    "HbosModel",
    "IsolationForestModel",
    "KMeansModel",
    "PcaModel",
    "average_path_length",
    "fit_cblof",
    "fit_hbos",
    "fit_iforest",
    "fit_kmeans",
    "fit_pca",
    "large_cluster_flags",
    "project_pca_rows",
    "score_cblof",
    "score_cblof_rows",
    "score_hbos",
    "score_hbos_rows",
    "score_iforest",
    "score_iforest_rows",
]
