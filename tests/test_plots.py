"""Structural checks on the SVG plot writers."""

import dataclasses
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from ratelab import parse_config_text, run_rate_study
from ratelab.plots import (escape, exceedance_plot_svg, rates_plot_svg,
                           render_plots)

_NS = "{http://www.w3.org/2000/svg}"

PLOT_STUDY = """
[truth]
kind = constant
level = 0.4

[run]
n_grid = 50, 100, 200
draws = 4
seed = 21
variants = prop7, remark8
"""


@pytest.fixture(scope="module")
def result():
    return run_rate_study(parse_config_text(PLOT_STUDY))


def _elements(svg_text, tag, cls=None):
    root = ET.fromstring(svg_text)
    found = root.iter(_NS + tag)
    if cls is None:
        return list(found)
    return [el for el in found if el.get("class") == cls]


class TestRatesPlot:
    def test_one_series_per_variant_plus_median(self, result):
        svg = rates_plot_svg(result)
        series = _elements(svg, "polyline", "series")
        names = {el.get("data-name") for el in series}
        assert names == {"median_d2", "epsilon_prop7", "epsilon_remark8"}

    def test_point_markers_cover_the_grid(self, result):
        svg = rates_plot_svg(result)
        points = _elements(svg, "circle", "pt")
        assert len(points) == 3 * len(result.config.n_grid)

    def test_axes_group_present(self, result):
        assert _elements(rates_plot_svg(result), "g", "axes")


class TestExceedancePlot:
    def test_series_names(self, result):
        svg = exceedance_plot_svg(result)
        names = {el.get("data-name")
                 for el in _elements(svg, "polyline", "series")}
        assert names == {"exceedance_prop7", "exceedance_remark8"}

    def test_five_percent_guide_line(self, result):
        assert len(_elements(exceedance_plot_svg(result), "line", "guide")) == 1

    def test_point_markers(self, result):
        svg = exceedance_plot_svg(result)
        assert len(_elements(svg, "circle", "pt")) == (
            2 * len(result.config.n_grid))


def test_single_n_grid_draws_one_point_series():
    cfg = parse_config_text("""
[truth]
kind = constant
level = 0.4

[run]
n_grid = 64
draws = 4
seed = 21
variants = prop7, remark8
""")
    svg = rates_plot_svg(run_rate_study(cfg))
    series = _elements(svg, "polyline", "series")
    assert [el.get("data-name") for el in series] == [
        "median_d2", "epsilon_prop7", "epsilon_remark8"]
    assert len(_elements(svg, "circle", "pt")) == 3
    assert not _elements(svg, "rect", "bar")
    # on the log axis d2 stays visible beside the bounds it sits far under
    y = {el.get("data-name"): float(el.get("points").split(",")[1])
         for el in series}
    for variant in ("prop7", "remark8"):
        assert abs(y["median_d2"] - y[f"epsilon_{variant}"]) >= 100.0


def test_render_plots_writes_both_files(result, tmp_path):
    prefix = str(tmp_path / "study")
    rates_path, exceed_path = render_plots(result, prefix)
    assert rates_path == prefix + "_rates.svg"
    assert exceed_path == prefix + "_exceedance.svg"
    for path in (rates_path, exceed_path):
        ET.fromstring(Path(path).read_text(encoding="utf-8"))


def test_empty_results_are_rejected(result, tmp_path):
    empty = dataclasses.replace(result, rows=())
    with pytest.raises(ValueError):
        rates_plot_svg(empty)
    with pytest.raises(ValueError):
        exceedance_plot_svg(empty)
    with pytest.raises(ValueError):
        render_plots(empty, str(tmp_path / "x"))


def test_escape_matches_the_xml_rules():
    # & first, so the entities of > and < are not escaped twice
    assert escape("a&b<c>d") == "a&amp;b&lt;c&gt;d"
    assert escape('say "hi"') == 'say "hi"'
