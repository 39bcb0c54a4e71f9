"""Heatmap scatter plots as deterministic SVG.

Points are PCA projections shaded by outlier score on a dark background:
lighter fill means more anomalous. History rows draw first as small markers;
current rows draw on top as large ones. Identical inputs always produce
byte-identical SVG output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence
from xml.sax.saxutils import escape

import numpy as np

from .detectors.pca import PcaModel, project_pca_rows
from .errors import CamlpadError


class MisalignedScores(CamlpadError):
    pass


@dataclass(frozen=True)
class HeatmapPoints:
    """PCA coordinates ``xy`` (n, 2) and [0,1] shading scores of n rows; the
    first ``n_history`` rows are history rows, the rest current rows."""

    xy: np.ndarray
    scores: np.ndarray
    n_history: int

    def __post_init__(self) -> None:
        if self.xy.shape != (len(self.scores), 2) or not 0 <= self.n_history <= len(self.scores):
            raise MisalignedScores(
                f"{self.xy.shape} coordinates, {len(self.scores)} scores, {self.n_history} history rows"
            )
        if not ((self.scores >= 0.0) & (self.scores <= 1.0)).all():  # NaN fails too
            raise ValueError("heatmap scores must be in [0,1]")

    def __len__(self) -> int:
        return len(self.scores)

    @classmethod
    def concat(cls, parts: Sequence["HeatmapPoints"]) -> "HeatmapPoints":
        """Every part's history rows, in part order, then every part's current rows."""
        blocks = [(p, slice(None, p.n_history)) for p in parts]
        blocks += [(p, slice(p.n_history, None)) for p in parts]
        return cls(
            xy=np.concatenate([p.xy[rows] for p, rows in blocks]),
            scores=np.concatenate([p.scores[rows] for p, rows in blocks]),
            n_history=sum(p.n_history for p in parts),
        )


@dataclass(frozen=True)
class PlotSpec:
    width: int = 600
    height: int = 600
    margin: int = 40
    history_radius: float = 3.0
    current_radius: float = 8.0
    background: str = "#111111"
    title: str = ""

    def __post_init__(self) -> None:
        if self.history_radius <= 0 or self.current_radius <= self.history_radius:
            raise ValueError("radii must be positive with current_radius > history_radius")


def build_heatmap_points(
    pca: PcaModel,
    history_matrix,
    current_matrix,
    history_scores: Sequence[float],
    current_scores: Sequence[float],
) -> HeatmapPoints:
    """Project both windows onto the PCA plane, history rows first."""
    windows = []
    for matrix, scores, is_current in (
        (history_matrix, history_scores, False),
        (current_matrix, current_scores, True),
    ):
        values = np.asarray(getattr(matrix, "values", matrix), dtype=float)
        xy = project_pca_rows(pca, values) if len(values) else np.empty((0, 2))
        scores = np.asarray(scores, dtype=float)
        windows.append(HeatmapPoints(xy, scores, n_history=0 if is_current else len(scores)))
    return HeatmapPoints.concat(windows)


def _scale(values: np.ndarray, out_low: float, out_high: float) -> np.ndarray:
    low, high = values.min(), values.max()
    if high == low:
        return np.full_like(values, (out_low + out_high) / 2.0)
    return out_low + (values - low) / (high - low) * (out_high - out_low)


# grayscale luminance 25% + 70% * score: score 1 renders lightest
_FILLS = [f"#{c:02x}{c:02x}{c:02x}" for c in range(256)]


def render_svg(points: HeatmapPoints, spec: PlotSpec = PlotSpec()) -> bytes:
    """Render points into an SVG 1.1 document, deterministically."""
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        (
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{spec.width}" height="{spec.height}" '
            f'viewBox="0 0 {spec.width} {spec.height}">'
        ),
        f'<rect x="0" y="0" width="{spec.width}" height="{spec.height}" fill="{spec.background}"/>',
        (
            f'<text x="{spec.width // 2}" y="{spec.margin // 2 + 7}" fill="#cccccc" '
            f'font-family="monospace" font-size="14" text-anchor="middle">{escape(spec.title)}</text>'
        ),
    ]
    if len(points):
        xs = _scale(points.xy[:, 0], spec.margin, spec.width - spec.margin)
        # larger data-space y renders higher on the canvas
        ys = _scale(-points.xy[:, 1], spec.margin, spec.height - spec.margin)
        # np.rint rounds halves to even, as round() does
        channels = np.rint(255 * (0.25 + 0.70 * points.scores)).astype(int)
        radii = [f"{spec.history_radius:g}"] * points.n_history
        radii += [f"{spec.current_radius:g}"] * (len(points) - points.n_history)
        lines += [
            f'<circle cx="{x:.2f}" cy="{y:.2f}" r="{r}" fill="{_FILLS[c]}"/>'
            for x, y, r, c in zip(xs.tolist(), ys.tolist(), radii, channels.tolist())
        ]
    lines.append("</svg>")
    return ("\n".join(lines) + "\n").encode("utf-8")
