"""Heatmap scatter plots as deterministic SVG on one fixed canvas.

Every plot is 600x600 px on a #111111 background, with a 40 px margin around
the min-max scaled points. Points are PCA projections shaded by outlier
score: lighter fill means more anomalous. History rows draw first as small
markers (radius 3); current rows draw on top as large ones (radius 8).
Identical inputs always produce byte-identical SVG output.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, islice
from typing import Iterable, Iterator, Sequence
from xml.sax.saxutils import escape

import numpy as np

from .detectors.pca import PcaModel, project_pca_rows
from .ensemble import normalize_scores
from .errors import CamlpadError

WIDTH = HEIGHT = 600
MARGIN = 40
HISTORY_RADIUS = 3
CURRENT_RADIUS = 8
BACKGROUND = "#111111"


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


def build_heatmap_points(pca: PcaModel, rows, n_history: int, scores: Sequence[float]) -> HeatmapPoints:
    """Project history-first rows onto the PCA plane once; the first ``n_history`` are history rows."""
    return HeatmapPoints(project_pca_rows(pca, rows), np.asarray(scores, dtype=float), n_history)


def _scale(values: np.ndarray, out_low: float, out_high: float) -> np.ndarray:
    return out_low + normalize_scores(values) * (out_high - out_low)


# grayscale luminance 25% + 70% * score: score 1 renders lightest; each closes its circle
_FILL_TAILS = [f'#{c:02x}{c:02x}{c:02x}"/>' for c in range(256)]


def circle_heads(points: HeatmapPoints) -> Iterator[str]:
    """Each point's ``<circle cx=".." cy=".." r=".." fill="``, in drawing order, formatted lazily.

    Only the fill differs between shadings of one plane (same ``xy`` and
    ``n_history``), so a caller rendering several can list these once and
    pass them to each ``render_svg``.
    """
    if not len(points):
        return iter(())
    xs = _scale(points.xy[:, 0], MARGIN, WIDTH - MARGIN)
    # larger data-space y renders higher on the canvas
    ys = _scale(-points.xy[:, 1], MARGIN, HEIGHT - MARGIN)
    history = f'<circle cx="%.2f" cy="%.2f" r="{HISTORY_RADIUS}" fill="'
    current = f'<circle cx="%.2f" cy="%.2f" r="{CURRENT_RADIUS}" fill="'
    xy = zip(xs.tolist(), ys.tolist())
    return chain((history % p for p in islice(xy, points.n_history)), (current % p for p in xy))


def render_svg(points: HeatmapPoints, title: str = "", heads: Iterable[str] | None = None) -> bytes:
    """Render points onto the fixed canvas as an SVG 1.1 document, deterministically.

    ``heads``, when given, are ``circle_heads`` of a plane with the same
    ``xy`` and ``n_history`` as ``points`` (a count that differs raises
    ValueError); otherwise they are formatted here.
    """
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        (
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{WIDTH}" height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">'
        ),
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="{BACKGROUND}"/>',
        (
            f'<text x="{WIDTH // 2}" y="{MARGIN // 2 + 7}" fill="#cccccc" '
            f'font-family="monospace" font-size="14" text-anchor="middle">{escape(title)}</text>'
        ),
    ]
    if len(points):
        # np.rint rounds halves to even, as round() does
        channels = np.rint(255 * (0.25 + 0.70 * points.scores)).astype(int)
        tails = map(_FILL_TAILS.__getitem__, channels.tolist())
        heads = circle_heads(points) if heads is None else heads
        lines += [head + tail for head, tail in zip(heads, tails, strict=True)]
    lines.append("</svg>")
    return ("\n".join(lines) + "\n").encode("utf-8")
