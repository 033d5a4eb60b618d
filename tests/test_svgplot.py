"""Rendering checks for the native SVG plotter."""

import math
import xml.etree.ElementTree as ET

import pytest

from nvmag.errors import ConfigError
from nvmag.svgplot import line_plot


def parse(svg: str) -> ET.Element:
    return ET.fromstring(svg)


def count_tags(svg: str, tag: str) -> int:
    root = parse(svg)
    return len(root.findall(f".//{{http://www.w3.org/2000/svg}}{tag}"))


class TestLinePlot:
    def test_basic_document(self):
        svg = line_plot(
            [("coherence", [0.0, 1.0, 2.0], [1.0, 0.4, 0.7])],
            title="demo",
            x_label="time",
            y_label="signal",
        )
        assert svg.startswith("<svg")
        assert svg.endswith("</svg>")
        root = parse(svg)
        assert root.attrib["width"] == "640"
        texts = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
        assert "demo" in texts
        assert "time" in texts and "signal" in texts
        assert "coherence" in texts
        assert count_tags(svg, "polyline") == 1
        assert count_tags(svg, "circle") == 3

    def test_same_input_same_bytes(self):
        args = ([("a", [0.1, 0.2, 0.3], [3.0, 1.0, 2.0])],)
        assert line_plot(*args) == line_plot(*args)

    def test_empty_series_rejected(self):
        with pytest.raises(ConfigError):
            line_plot([])

    def test_all_points_unusable_rejected(self):
        with pytest.raises(ConfigError):
            line_plot([("a", [0.0, 1.0], [math.nan, math.inf])])
        with pytest.raises(ConfigError):
            line_plot([("a", [-1.0, 0.0], [1.0, 2.0])], log_x=True)

    def test_nan_breaks_polyline(self):
        svg = line_plot(
            [("a", [0, 1, 2, 3, 4], [1.0, 0.5, math.nan, 2.0, 3.0])]
        )
        assert count_tags(svg, "polyline") == 2
        assert count_tags(svg, "circle") == 4

    def test_single_point_renders_marker_only(self):
        svg = line_plot([("a", [1.0], [2.0])])
        assert count_tags(svg, "polyline") == 0
        assert count_tags(svg, "circle") == 1

    def test_markers_can_be_disabled(self):
        svg = line_plot([("a", [0, 1], [1, 2])], markers=False)
        assert count_tags(svg, "circle") == 0
        assert count_tags(svg, "polyline") == 1

    def test_log_axes_use_decade_ticks(self):
        svg = line_plot(
            [("a", [0.1, 1.0, 10.0], [1e-3, 1.0, 1e3])],
            log_x=True,
            log_y=True,
        )
        texts = [t.text for t in parse(svg).iter("{http://www.w3.org/2000/svg}text")]
        for label in ("0.1", "1", "10", "0.001", "1000"):
            assert label in texts

    def test_log_axis_drops_nonpositive_points(self):
        svg = line_plot(
            [("a", [1.0, 2.0, 3.0, 4.0], [0.5, 0.0, 2.0, 1.0])], log_y=True
        )
        assert count_tags(svg, "circle") == 3

    def test_series_colors_cycle_palette(self):
        svg = line_plot(
            [
                ("first", [0, 1], [1, 2]),
                ("second", [0, 1], [2, 1]),
            ]
        )
        assert "#1f77b4" in svg and "#d62728" in svg

    def test_constant_series_pads_range(self):
        svg = line_plot([("a", [0, 1, 2], [5.0, 5.0, 5.0])])
        parse(svg)
        assert count_tags(svg, "polyline") == 1
        # on a log axis a pad of 0.5 took the range below zero, and log10
        # raised a bare ValueError
        svg = line_plot([("a", [1.0, 2.0], [0.3, 0.3])], log_y=True)
        parse(svg)
        assert count_tags(svg, "polyline") == 1
