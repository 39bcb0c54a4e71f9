"""Heatmap scatter plots as deterministic SVG on one fixed canvas.

Every plot is 600x600 px on a #111111 background, with a 40 px margin around
the min-max scaled points. Points are PCA projections shaded by outlier
score: lighter fill means more anomalous. History rows draw first as small
markers (radius 3); current rows draw on top as large ones (radius 8).
Identical inputs always produce byte-identical SVG output.

Circle lines are built as bytes, ``CHUNK_ROWS`` points at a time, in one
(points, 55) uint8 block copied from a template line. Into it go each
coordinate's text, looked up by its whole part and its hundredths, the
radius digit, and the fill's hex, looked up by its channel; a mask then
drops the leading zero of a coordinate below 100. ``HeatmapPoints``
refuses coordinates without a finite span, so every scaled coordinate
lies in [40, 560]. There ``np.rint(v * 100)`` rounds as ``"%.2f"`` does
unless ``v * 100`` lies within 1e-6 of a half; only those values are
formatted as text.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .detectors.pca import PcaModel, project_pca_rows
from .ensemble import normalize_scores
from .errors import CamlpadError

WIDTH = HEIGHT = 600
MARGIN = 40
HISTORY_RADIUS = 3
CURRENT_RADIUS = 8
BACKGROUND = "#111111"
# points whose circle lines are built at a time
CHUNK_ROWS = 4096


@dataclass(frozen=True)
class HeatmapPoints:
    """PCA coordinates ``xy`` (n, 2) and [0,1] shading scores of n rows; the
    first ``n_history`` rows are history rows, the rest current rows.

    Coordinates are finite and each axis spans a finite range, else
    ValueError: so each scales into [40, 560], the domain of the byte writer.
    """

    xy: np.ndarray
    scores: np.ndarray
    n_history: int

    def __post_init__(self) -> None:
        if self.xy.shape != (len(self.scores), 2) or not 0 <= self.n_history <= len(self.scores):
            raise CamlpadError(
                f"{self.xy.shape} coordinates, {len(self.scores)} scores, {self.n_history} history rows"
            )
        if not ((self.scores >= 0.0) & (self.scores <= 1.0)).all():  # NaN fails too
            raise ValueError("heatmap scores must be in [0,1]")
        with np.errstate(over="ignore", invalid="ignore"):
            spans = self.xy.max(axis=0) - self.xy.min(axis=0) if len(self) else np.zeros(2)
        if not np.isfinite(spans).all():  # a NaN or infinite coordinate gives a NaN or infinite span too
            raise ValueError("heatmap coordinates must be finite, each axis spanning a finite range")

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
    return out_low + normalize_scores(values, len(values)) * (out_high - out_low)  # min-max over the whole plane


# one circle's line: cx's text starts at _CX, cy's at _CY, the one-digit radius is at _R, the fill's hex at _FILL
_CIRCLE = np.frombuffer(b'<circle cx="000.00" cy="000.00" r="0" fill="#000000"/>\n', dtype=np.uint8)
_CX, _CY, _R, _FILL = 12, 24, 35, 45
# a coordinate's text by its whole part (3 digits and the point) and its hundredths
_WHOLES = np.frombuffer(b"".join(b"%03d." % whole for whole in range(WIDTH - MARGIN + 1)), dtype="V4")
_CENTS = np.frombuffer(b"".join(b"%02d" % cents for cents in range(100)), dtype="V2")
# grayscale luminance 25% + 70% * score: score 1 renders lightest
_FILLS = np.frombuffer(b"".join(b"%02x%02x%02x" % (c, c, c) for c in range(256)), dtype="V6")


def _hundredths(values: np.ndarray) -> np.ndarray:
    """Each value as its count of hundredths, rounded as ``"%.2f"`` rounds it.

    ``values * 100`` is off its exact value by less than 1e-11 below 1000, so
    ``np.rint`` (halves to even, as ``"%.2f"`` rounds exact ties) agrees with
    ``"%.2f"`` except where the product lies within that error of a half:
    those values alone are formatted.
    """
    scaled = values * 100
    counts = np.rint(scaled)
    near_half = np.abs(scaled - counts) > 0.5 - 1e-6  # far wider than the product's error
    counts[near_half] = [int(f"{value:.2f}".replace(".", "")) for value in values[near_half].tolist()]
    return counts.astype(np.int64)


def _circle_lines(xs: np.ndarray, ys: np.ndarray, scores: np.ndarray, n_history: int) -> np.ndarray:
    """The bytes of one chunk's circle lines; its first ``n_history`` points are history points."""
    lines = np.tile(_CIRCLE, (len(xs), 1))
    keep = np.ones(lines.shape, dtype=bool)
    for first, values in ((_CX, xs), (_CY, ys)):
        wholes, cents = np.divmod(_hundredths(values), 100)
        lines[:, first : first + 4] = _WHOLES[wholes, None].view(np.uint8)
        lines[:, first + 4 : first + 6] = _CENTS[cents, None].view(np.uint8)
        keep[:, first] = wholes >= 100  # below 100 the whole part has two digits
    lines[:n_history, _R] = ord(str(HISTORY_RADIUS))
    lines[n_history:, _R] = ord(str(CURRENT_RADIUS))
    # np.rint rounds halves to even, as round() does
    lines[:, _FILL : _FILL + 6] = _FILLS[np.rint(255 * (0.25 + 0.70 * scores)).astype(np.intp), None].view(np.uint8)
    return lines[keep]


def render_svg(points: HeatmapPoints, title: str = "") -> bytes:
    """Render points onto the fixed canvas as an SVG 1.1 document, deterministically.

    The plane is scaled once; its circles are then built and written
    ``CHUNK_ROWS`` at a time into one buffer, so no line is a Python string.
    """
    # what xml.sax.saxutils.escape writes; that module imports urllib.request, which the SVG needs none of
    text = title.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    chrome = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        (
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{WIDTH}" height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">'
        ),
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="{BACKGROUND}"/>',
        (
            f'<text x="{WIDTH // 2}" y="{MARGIN // 2 + 7}" fill="#cccccc" '
            f'font-family="monospace" font-size="14" text-anchor="middle">{text}</text>'
        ),
        "",
    ]
    out = io.BytesIO()
    out.write("\n".join(chrome).encode("utf-8"))
    if len(points):
        xs = _scale(points.xy[:, 0], MARGIN, WIDTH - MARGIN)
        # larger data-space y renders higher on the canvas
        ys = _scale(-points.xy[:, 1], MARGIN, HEIGHT - MARGIN)
        for start in range(0, len(points), CHUNK_ROWS):
            rows = slice(start, start + CHUNK_ROWS)
            out.write(_circle_lines(xs[rows], ys[rows], points.scores[rows], max(0, points.n_history - start)))
    out.write(b"</svg>\n")
    return out.getvalue()
