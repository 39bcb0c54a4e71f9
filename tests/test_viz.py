import dataclasses
import json
import tracemalloc
import xml.etree.ElementTree as ET
from pathlib import Path
from xml.sax.saxutils import escape

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from camlpad.detectors import fit_pca
from camlpad.gauge_alert import GaugeReading, gauge_json_bytes
from camlpad.viz import (
    CHUNK_ROWS,
    HeatmapPoints,
    MisalignedScores,
    build_heatmap_points,
    circle_heads,
    render_svg,
)

SVG_NS = "{http://www.w3.org/2000/svg}"
GOLDEN = Path(__file__).parent / "data" / "golden_heatmap.svg"


def points(*rows, n_history=None):
    """HeatmapPoints from (x, y, score) rows; all history unless n_history is given."""
    xy = np.asarray([(x, y) for x, y, _ in rows], dtype=float).reshape(-1, 2)
    scores = np.asarray([s for _, _, s in rows], dtype=float)
    return HeatmapPoints(xy=xy, scores=scores, n_history=len(rows) if n_history is None else n_history)


GOLDEN_POINTS = points(
    (-2.0, -1.0, 0.1), (0.0, 0.5, 0.4), (1.5, -0.5, 0.9), (2.0, 2.0, 1.0), (-1.0, 1.0, 0.0), n_history=3
)


def seeded_plane(n, n_history, seed):
    rng = np.random.default_rng(seed)
    return HeatmapPoints(xy=rng.normal(0, 1, (n, 2)), scores=rng.random(n), n_history=n_history)


def circles(svg: bytes):
    return ET.fromstring(svg).findall(f"{SVG_NS}circle")


def reference_svg(rows, title=""):
    """Per-point renderer: (x, y, score, is_current) rows, history drawn first.

    Its canvas geometry is spelled out here rather than read from viz, so these
    tests pin the canvas independently.
    """
    width = height = 600
    margin = 40

    def scale(values, out_low, out_high):
        low, high = min(values), max(values)
        if high == low:
            return [(out_low + out_high) / 2.0 for _ in values]
        return [out_low + (v - low) / (high - low) * (out_high - out_low) for v in values]

    def fill(score):
        channel = int(round(255 * (0.25 + 0.70 * score)))
        return f"#{channel:02x}{channel:02x}{channel:02x}"

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="#111111"/>',
        f'<text x="{width // 2}" y="{margin // 2 + 7}" fill="#cccccc" '
        f'font-family="monospace" font-size="14" text-anchor="middle">{escape(title)}</text>',
    ]
    if rows:
        xs = scale([r[0] for r in rows], margin, width - margin)
        ys = scale([-r[1] for r in rows], margin, height - margin)
        order = [i for i, r in enumerate(rows) if not r[3]] + [i for i, r in enumerate(rows) if r[3]]
        for i in order:
            radius = 8.0 if rows[i][3] else 3.0
            lines.append(
                f'<circle cx="{xs[i]:.2f}" cy="{ys[i]:.2f}" r="{radius:g}" fill="{fill(rows[i][2])}"/>'
            )
    lines.append("</svg>")
    return ("\n".join(lines) + "\n").encode("utf-8")


class TestBuildHeatmapPoints:
    def _pca(self):
        rng = np.random.default_rng(1)
        return fit_pca(rng.normal(0, 1, (30, 3)))

    def test_empty_current_gives_all_small_points(self):
        pca = self._pca()
        history = np.random.default_rng(2).normal(0, 1, (6, 3))
        built = build_heatmap_points(pca, history, 6, [0.5] * 6)
        assert len(built) == 6
        assert built.n_history == 6

    def test_flags_assigned_per_window(self):
        pca = self._pca()
        one = np.random.default_rng(3).normal(0, 1, (1, 3))
        built = build_heatmap_points(pca, np.vstack([one, one + 1.0]), 1, [0.2, 0.8])
        assert (len(built), built.n_history) == (2, 1)
        assert built.scores.tolist() == [0.2, 0.8]

    def test_pca_mean_maps_to_origin(self):
        pca = self._pca()
        built = build_heatmap_points(pca, pca.mean[None, :], 1, [0.0])
        assert built.xy[0, 0] == pytest.approx(0.0, abs=1e-9)
        assert built.xy[0, 1] == pytest.approx(0.0, abs=1e-9)

    def test_misaligned_scores_rejected(self):
        pca = self._pca()
        rows = np.random.default_rng(4).normal(0, 1, (3, 3))
        with pytest.raises(MisalignedScores):
            build_heatmap_points(pca, rows, 3, [0.1])


class TestRenderSvg:
    def test_zero_points_is_valid_svg_with_chrome_only(self):
        svg = render_svg(points(), "empty")
        root = ET.fromstring(svg)
        assert root.tag == f"{SVG_NS}svg"
        assert len(circles(svg)) == 0
        assert "empty" in svg.decode()

    def test_shading_monotone_in_score(self):
        svg_dark = render_svg(points((0, 0, 0.0)))
        svg_light = render_svg(points((0, 0, 1.0)))
        dark_fill = circles(svg_dark)[0].attrib["fill"]
        light_fill = circles(svg_light)[0].attrib["fill"]
        assert int(dark_fill[1:3], 16) < int(light_fill[1:3], 16)
        assert dark_fill == "#404040" and light_fill == "#f2f2f2"

    def test_circle_count_matches_points(self):
        rng = np.random.default_rng(8)
        scattered = HeatmapPoints(xy=rng.normal(0, 1, (23, 2)), scores=rng.random(23), n_history=11)
        assert len(circles(render_svg(scattered))) == 23

    def test_identical_inputs_identical_bytes(self):
        assert render_svg(GOLDEN_POINTS, "repeat") == render_svg(GOLDEN_POINTS, "repeat")

    def test_degenerate_single_point_centered(self):
        svg = render_svg(points((3.7, -9.9, 0.5), n_history=0))
        circle = circles(svg)[0]
        assert circle.attrib["cx"] == "300.00"
        assert circle.attrib["cy"] == "300.00"

    def test_current_points_drawn_after_history(self):
        combined = HeatmapPoints.concat([points((0, 0, 0.5), n_history=0), points((1, 1, 0.5))])
        rendered = circles(render_svg(combined))
        assert rendered[0].attrib["r"] == "3"  # history first
        assert rendered[1].attrib["r"] == "8"

    def test_shading_never_darkens_with_higher_score(self):
        fills = [
            int(circles(render_svg(points((0, 0, s / 100))))[0].attrib["fill"][1:3], 16)
            for s in range(0, 101, 5)
        ]
        assert fills == sorted(fills)

    def test_matches_committed_golden_file(self):
        svg = render_svg(GOLDEN_POINTS, "golden fixture")
        assert svg == GOLDEN.read_bytes()

    def test_peak_memory_stays_near_the_document(self):
        plane = seeded_plane(60_000, 52_500, seed=7)
        tracemalloc.start()
        try:
            svg = render_svg(plane, "memory")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(circles(svg)) == 60_000
        assert peak <= 2.5 * len(svg)


def _scores_with_half_fills():
    """Scores whose fill channel 255 * (0.25 + 0.70 * s) is exactly k + 0.5."""
    found = []
    for k in range(64, 242):
        s = ((k + 0.5) / 255 - 0.25) / 0.70
        for candidate in (np.nextafter(s, 0.0), s, np.nextafter(s, 1.0)):
            if 255 * (0.25 + 0.70 * float(candidate)) == k + 0.5:
                found.append(float(candidate))
    return found


HALF_FILL_SCORES = _scores_with_half_fills()

coordinate = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
score = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0] + HALF_FILL_SCORES))
# titles dense in what XML escapes, in both quote marks (left as they are) and in non-ASCII text
title = st.text(st.one_of(st.sampled_from("&<>\"'"), st.characters(blacklist_categories=("Cs",))), max_size=24)


@st.composite
def point_sets(draw):
    n = draw(st.integers(0, 30))
    n_history = draw(st.integers(0, n))
    xs = [draw(coordinate)] * n if draw(st.booleans()) else draw(st.lists(coordinate, min_size=n, max_size=n))
    ys = [draw(coordinate)] * n if draw(st.booleans()) else draw(st.lists(coordinate, min_size=n, max_size=n))
    scores = draw(st.lists(score, min_size=n, max_size=n))
    return [(x, y, s, i >= n_history) for i, (x, y, s) in enumerate(zip(xs, ys, scores))], n_history


class TestAgainstReferenceRenderer:
    def test_half_fill_scores_exist_and_round_to_even(self):
        assert len(HALF_FILL_SCORES) > 20
        rendered = [circles(render_svg(points((0, 0, s))))[0].attrib["fill"] for s in HALF_FILL_SCORES]
        expected = [reference_svg([(0, 0, s, False)]) for s in HALF_FILL_SCORES]
        assert rendered == [circles(svg)[0].attrib["fill"] for svg in expected]
        assert all(int(f[1:3], 16) % 2 == 0 for f in rendered)

    @settings(max_examples=300, deadline=None)
    @given(point_sets(), title)
    def test_render_matches_per_point_reference(self, drawn, title):
        rows, n_history = drawn
        value = points(*[(x, y, s) for x, y, s, _ in rows], n_history=n_history)
        assert render_svg(value, title) == reference_svg(rows, title)

    @settings(max_examples=100, deadline=None)
    @given(point_sets(), st.data())
    def test_four_shadings_sharing_heads_match_per_point_reference(self, drawn, data):
        rows, n_history = drawn
        plane = points(*[(x, y, s) for x, y, s, _ in rows], n_history=n_history)
        heads = list(circle_heads(plane))
        for model in ("iforest", "hbos", "cblof", "ensemble"):
            scores = data.draw(st.lists(score, min_size=len(rows), max_size=len(rows)))
            shading = dataclasses.replace(plane, scores=np.asarray(scores, dtype=float))
            shaded = [(x, y, s, current) for (x, y, _, current), s in zip(rows, scores)]
            assert render_svg(shading, model, heads) == reference_svg(shaded, model)

    # too few heads within the first chunk, too few past it, and heads left over
    @pytest.mark.parametrize(
        "n_points, n_heads", [(2, 1), (CHUNK_ROWS + 4, CHUNK_ROWS + 2), (CHUNK_ROWS + 4, CHUNK_ROWS + 6)]
    )
    def test_heads_of_another_point_count_are_refused(self, n_points, n_heads):
        plane = seeded_plane(n_points, 1, seed=5)
        with pytest.raises(ValueError):
            render_svg(plane, "", list(circle_heads(seeded_plane(n_heads, 1, seed=6))))

    @pytest.mark.parametrize("n", [CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1, 2 * CHUNK_ROWS + 1])
    @pytest.mark.parametrize("history_at", ["chunk_edge", "inside_chunk"])
    def test_planes_around_chunk_edges_match_per_point_reference(self, n, history_at):
        n_history = n // CHUNK_ROWS * CHUNK_ROWS if history_at == "chunk_edge" else n - 3
        plane = seeded_plane(n, n_history, seed=n + n_history)
        xy, scores = plane.xy.tolist(), plane.scores.tolist()
        rows = [(x, y, s, i >= n_history) for i, ((x, y), s) in enumerate(zip(xy, scores))]
        expected = reference_svg(rows, "chunked")
        assert render_svg(plane, "chunked") == expected
        assert render_svg(plane, "chunked", list(circle_heads(plane))) == expected
        assert render_svg(plane, "chunked", circle_heads(plane)) == expected

    def test_combined_keeps_history_blocks_before_current_blocks(self):
        a = points((0, 0, 0.1), (1, 0, 0.2), (2, 0, 0.3), n_history=2)
        b = points((3, 0, 0.4), (4, 0, 0.5), n_history=1)
        combined = HeatmapPoints.concat([a, b])
        assert combined.xy[:, 0].tolist() == [0, 1, 3, 2, 4]
        assert combined.n_history == 3
        rows = [
            (0, 0, 0.1, False), (1, 0, 0.2, False), (2, 0, 0.3, True), (3, 0, 0.4, False), (4, 0, 0.5, True)
        ]
        assert render_svg(combined) == reference_svg(rows)


class TestPointsValidation:
    @pytest.mark.parametrize("bad", [-0.01, 1.01, float("nan")])
    def test_score_outside_unit_interval_rejected(self, bad):
        with pytest.raises(ValueError):
            points((0, 0, 0.5), (1, 1, bad))

    def test_build_rejects_out_of_range_scores(self):
        pca = fit_pca(np.random.default_rng(1).normal(0, 1, (30, 3)))
        rows = np.random.default_rng(4).normal(0, 1, (2, 3))
        with pytest.raises(ValueError):
            build_heatmap_points(pca, np.vstack([rows, rows]), 2, [0.1, float("nan"), 0.2, 0.3])

    def test_misaligned_arrays_rejected(self):
        with pytest.raises(MisalignedScores):
            HeatmapPoints(xy=np.zeros((3, 2)), scores=np.array([0.1, 0.2]), n_history=0)
        with pytest.raises(MisalignedScores):
            HeatmapPoints(xy=np.zeros((2, 2)), scores=np.array([0.1, 0.2]), n_history=3)


class TestExportGaugeJson:
    def test_round_trip(self):
        reading = GaugeReading(scope="snort", window_id="2021-03-08", score=0.25, history_percentile=50.0)
        doc = json.loads(gauge_json_bytes(reading))
        assert GaugeReading(
            scope=doc["scope"],
            window_id=doc["window_id"],
            score=doc["score"],
            history_percentile=doc["history_percentile"],
        ) == reading

    def test_six_decimal_formatting(self):
        reading = GaugeReading(
            scope="snort", window_id="w", score=0.123456789, history_percentile=50.0
        )
        assert json.loads(gauge_json_bytes(reading))["score"] == 0.123457
