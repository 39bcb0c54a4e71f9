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
class HeatmapPoint:
    x: float
    y: float
    score: float
    is_current: bool

    def __post_init__(self) -> None:
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"heatmap score must be in [0,1], got {self.score}")


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
) -> list[HeatmapPoint]:
    """Project both windows onto the PCA plane, flagging current rows."""
    points: list[HeatmapPoint] = []
    for matrix, scores, is_current in (
        (history_matrix, history_scores, False),
        (current_matrix, current_scores, True),
    ):
        values = getattr(matrix, "values", matrix)
        values = np.asarray(values, dtype=float)
        scores = np.asarray(scores, dtype=float)
        if values.shape[0] != scores.shape[0]:
            raise MisalignedScores(
                f"{values.shape[0]} rows but {scores.shape[0]} scores ({'current' if is_current else 'history'})"
            )
        if values.shape[0] == 0:
            continue
        coords = project_pca_rows(pca, values)
        for (x, y), score in zip(coords, scores):
            points.append(HeatmapPoint(x=float(x), y=float(y), score=float(score), is_current=is_current))
    return points


def _scale(values: list[float], out_low: float, out_high: float) -> list[float]:
    low, high = min(values), max(values)
    if high == low:
        center = (out_low + out_high) / 2.0
        return [center for _ in values]
    span = out_high - out_low
    return [out_low + (v - low) / (high - low) * span for v in values]


def _fill_color(score: float) -> str:
    # luminance 25% + 70% * score, grayscale: score 1 renders lightest
    channel = int(round(255 * (0.25 + 0.70 * score)))
    return f"#{channel:02x}{channel:02x}{channel:02x}"


def render_svg(points: Sequence[HeatmapPoint], spec: PlotSpec = PlotSpec()) -> bytes:
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
    if points:
        xs = _scale([p.x for p in points], spec.margin, spec.width - spec.margin)
        # larger data-space y renders higher on the canvas
        ys = _scale([-p.y for p in points], spec.margin, spec.height - spec.margin)
        order = [i for i, p in enumerate(points) if not p.is_current]
        order += [i for i, p in enumerate(points) if p.is_current]
        for i in order:
            point = points[i]
            radius = spec.current_radius if point.is_current else spec.history_radius
            lines.append(
                f'<circle cx="{xs[i]:.2f}" cy="{ys[i]:.2f}" r="{radius:g}" '
                f'fill="{_fill_color(point.score)}"/>'
            )
    lines.append("</svg>")
    return ("\n".join(lines) + "\n").encode("utf-8")

