"""Heatmap scatter plots as deterministic SVG on one fixed canvas.

Every plot is 600x600 px on a #111111 background, with a 40 px margin around
the min-max scaled points. Points are PCA projections shaded by outlier
score: lighter fill means more anomalous. History rows draw first as small
markers (radius 3); current rows draw on top as large ones (radius 8).
Identical inputs always produce byte-identical SVG output. Circles are
formatted and encoded ``CHUNK_ROWS`` points at a time, so a large plane's
document is never held whole as text beside its bytes.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator, Sequence

import numpy as np

from .detectors.pca import PcaModel, project_pca_rows
from .ensemble import normalize_scores
from .errors import CamlpadError

WIDTH = HEIGHT = 600
MARGIN = 40
HISTORY_RADIUS = 3
CURRENT_RADIUS = 8
BACKGROUND = "#111111"
# points converted to floats, formatted and encoded at a time
CHUNK_ROWS = 4096


@dataclass(frozen=True)
class HeatmapPoints:
    """PCA coordinates ``xy`` (n, 2) and [0,1] shading scores of n rows; the
    first ``n_history`` rows are history rows, the rest current rows."""

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


# grayscale luminance 25% + 70% * score: score 1 renders lightest; each closes its circle and line
_FILL_TAILS = [f'#{c:02x}{c:02x}{c:02x}"/>\n' for c in range(256)]


def circle_heads(points: HeatmapPoints) -> Iterator[str]:
    """Each point's ``<circle cx=".." cy=".." r=".." fill="``, in drawing order.

    The plane is scaled once, then converted to Python floats and formatted
    ``CHUNK_ROWS`` points at a time as the heads are drawn. Only the fill
    differs between shadings of one plane (same ``xy`` and ``n_history``), so
    a caller rendering several can list these once and pass them to each
    ``render_svg``.
    """
    if not len(points):
        return
    xs = _scale(points.xy[:, 0], MARGIN, WIDTH - MARGIN)
    # larger data-space y renders higher on the canvas
    ys = _scale(-points.xy[:, 1], MARGIN, HEIGHT - MARGIN)
    history = f'<circle cx="%.2f" cy="%.2f" r="{HISTORY_RADIUS}" fill="'
    current = f'<circle cx="%.2f" cy="%.2f" r="{CURRENT_RADIUS}" fill="'
    for start in range(0, len(points), CHUNK_ROWS):
        stop = start + CHUNK_ROWS
        xy = zip(xs[start:stop].tolist(), ys[start:stop].tolist())
        yield from (history % p for p in islice(xy, max(0, points.n_history - start)))
        yield from (current % p for p in xy)


def render_svg(points: HeatmapPoints, title: str = "", heads: Iterable[str] | None = None) -> bytes:
    """Render points onto the fixed canvas as an SVG 1.1 document, deterministically.

    ``heads``, when given, are ``circle_heads`` of a plane with the same
    ``xy`` and ``n_history`` as ``points`` (a count that differs raises
    ValueError); otherwise they are formatted here. Circles are formatted
    and encoded ``CHUNK_ROWS`` at a time into one buffer, so the document's
    text is never held whole beside its bytes.
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
    heads = iter(circle_heads(points) if heads is None else heads)
    for start in range(0, len(points), CHUNK_ROWS):
        # np.rint rounds halves to even, as round() does
        channels = np.rint(255 * (0.25 + 0.70 * points.scores[start : start + CHUNK_ROWS])).astype(int)
        tails = map(_FILL_TAILS.__getitem__, channels.tolist())
        lines = [head + tail for head, tail in zip(islice(heads, len(channels)), tails, strict=True)]
        out.write("".join(lines).encode("utf-8"))
    if next(heads, None) is not None:
        raise ValueError(f"more circle heads than the {len(points)} points")
    out.write(b"</svg>\n")
    return out.getvalue()
