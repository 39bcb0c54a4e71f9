import json
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from camlpad.detectors import fit_pca
from camlpad.gauge_alert import GaugeReading, gauge_json_bytes
from camlpad.viz import (
    HeatmapPoint,
    MisalignedScores,
    PlotSpec,
    build_heatmap_points,
    render_svg,
)

SVG_NS = "{http://www.w3.org/2000/svg}"
GOLDEN = Path(__file__).parent / "data" / "golden_heatmap.svg"

GOLDEN_POINTS = [
    HeatmapPoint(x=-2.0, y=-1.0, score=0.1, is_current=False),
    HeatmapPoint(x=0.0, y=0.5, score=0.4, is_current=False),
    HeatmapPoint(x=1.5, y=-0.5, score=0.9, is_current=False),
    HeatmapPoint(x=2.0, y=2.0, score=1.0, is_current=True),
    HeatmapPoint(x=-1.0, y=1.0, score=0.0, is_current=True),
]


def circles(svg: bytes):
    return ET.fromstring(svg).findall(f"{SVG_NS}circle")


class TestBuildHeatmapPoints:
    def _pca(self):
        rng = np.random.default_rng(1)
        return fit_pca(rng.normal(0, 1, (30, 3)))

    def test_empty_current_gives_all_small_points(self):
        pca = self._pca()
        history = np.random.default_rng(2).normal(0, 1, (6, 3))
        points = build_heatmap_points(pca, history, np.empty((0, 3)), [0.5] * 6, [])
        assert len(points) == 6
        assert not any(p.is_current for p in points)

    def test_flags_assigned_per_window(self):
        pca = self._pca()
        one = np.random.default_rng(3).normal(0, 1, (1, 3))
        points = build_heatmap_points(pca, one, one + 1.0, [0.2], [0.8])
        assert [p.is_current for p in points] == [False, True]

    def test_pca_mean_maps_to_origin(self):
        pca = self._pca()
        points = build_heatmap_points(pca, pca.mean[None, :], np.empty((0, 3)), [0.0], [])
        assert points[0].x == pytest.approx(0.0, abs=1e-9)
        assert points[0].y == pytest.approx(0.0, abs=1e-9)

    def test_misaligned_scores_rejected(self):
        pca = self._pca()
        rows = np.random.default_rng(4).normal(0, 1, (3, 3))
        with pytest.raises(MisalignedScores):
            build_heatmap_points(pca, rows, np.empty((0, 3)), [0.1], [])


class TestRenderSvg:
    def test_zero_points_is_valid_svg_with_chrome_only(self):
        svg = render_svg([], PlotSpec(title="empty"))
        root = ET.fromstring(svg)
        assert root.tag == f"{SVG_NS}svg"
        assert len(circles(svg)) == 0
        assert "empty" in svg.decode()

    def test_shading_monotone_in_score(self):
        svg_dark = render_svg([HeatmapPoint(0, 0, 0.0, False)])
        svg_light = render_svg([HeatmapPoint(0, 0, 1.0, False)])
        dark_fill = circles(svg_dark)[0].attrib["fill"]
        light_fill = circles(svg_light)[0].attrib["fill"]
        assert int(dark_fill[1:3], 16) < int(light_fill[1:3], 16)
        assert dark_fill == "#404040" and light_fill == "#f2f2f2"

    def test_circle_count_matches_points(self):
        rng = np.random.default_rng(8)
        points = [
            HeatmapPoint(float(x), float(y), float(s), bool(c))
            for x, y, s, c in zip(
                rng.normal(0, 1, 23), rng.normal(0, 1, 23), rng.random(23), rng.integers(0, 2, 23)
            )
        ]
        assert len(circles(render_svg(points))) == 23

    def test_identical_inputs_identical_bytes(self):
        points = GOLDEN_POINTS
        spec = PlotSpec(title="repeat")
        assert render_svg(points, spec) == render_svg(points, spec)

    def test_degenerate_single_point_centered(self):
        svg = render_svg([HeatmapPoint(3.7, -9.9, 0.5, True)], PlotSpec())
        circle = circles(svg)[0]
        assert circle.attrib["cx"] == "300.00"
        assert circle.attrib["cy"] == "300.00"

    def test_current_points_drawn_after_history(self):
        points = [HeatmapPoint(0, 0, 0.5, True), HeatmapPoint(1, 1, 0.5, False)]
        rendered = circles(render_svg(points))
        assert rendered[0].attrib["r"] == "3"  # history first
        assert rendered[1].attrib["r"] == "8"

    def test_shading_never_darkens_with_higher_score(self):
        fills = [
            int(circles(render_svg([HeatmapPoint(0, 0, s / 100, False)]))[0].attrib["fill"][1:3], 16)
            for s in range(0, 101, 5)
        ]
        assert fills == sorted(fills)

    def test_matches_committed_golden_file(self):
        svg = render_svg(GOLDEN_POINTS, PlotSpec(title="golden fixture"))
        assert svg == GOLDEN.read_bytes()


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

    def test_absent_percentile_is_null(self):
        reading = GaugeReading(scope="snort", window_id="w", score=0.1, history_percentile=None)
        assert json.loads(gauge_json_bytes(reading))["history_percentile"] is None

    def test_six_decimal_formatting(self):
        reading = GaugeReading(
            scope="snort", window_id="w", score=0.123456789, history_percentile=None
        )
        assert json.loads(gauge_json_bytes(reading))["score"] == 0.123457
