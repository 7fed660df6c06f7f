"""Self-contained SVG plots for study results.

The writer emits plain SVG 1.1 with a fixed element vocabulary so
tests can parse the files structurally: every data series is a
<polyline class="series" data-name="..."> with matching <circle
class="pt"> markers, and axes live in <g class="axes">.
"""

from __future__ import annotations

import math

from .study import StudyResult

__all__ = ["render_plots", "rates_plot_svg", "exceedance_plot_svg"]

_WIDTH, _HEIGHT = 640.0, 420.0
_LEFT, _RIGHT, _TOP, _BOTTOM = 70.0, 20.0, 30.0, 50.0
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def escape(text: str) -> str:
    # xml.sax.saxutils.escape without its import, which loads urllib and ssl
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


class _Canvas:
    def __init__(self, title: str):
        self._parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH:.0f}" '
            f'height="{_HEIGHT:.0f}" viewBox="0 0 {_WIDTH:.0f} {_HEIGHT:.0f}">',
            f'<rect x="0" y="0" width="{_WIDTH:.0f}" height="{_HEIGHT:.0f}" '
            'fill="white"/>',
            f'<text x="{_WIDTH / 2:.0f}" y="20" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{escape(title)}</text>',
        ]

    def open_group(self, cls: str):
        self._parts.append(f'<g class="{cls}">')

    def close_group(self):
        self._parts.append("</g>")

    def line(self, x1, y1, x2, y2, color="#333333", width=1.0, cls=None):
        cls_attr = f' class="{cls}"' if cls else ""
        self._parts.append(
            f'<line{cls_attr} x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" '
            f'y2="{_fmt(y2)}" stroke="{color}" stroke-width="{width}"/>')

    def text(self, x, y, content, size=11, anchor="middle"):
        self._parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(y)}" text-anchor="{anchor}" '
            f'font-family="sans-serif" font-size="{size}">{escape(content)}</text>')

    def polyline(self, points, name, color):
        coords = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in points)
        self._parts.append(
            f'<polyline class="series" data-name="{escape(name)}" fill="none" '
            f'stroke="{color}" stroke-width="1.5" points="{coords}"/>')
        for x, y in points:
            self._parts.append(
                f'<circle class="pt" cx="{_fmt(x)}" cy="{_fmt(y)}" r="3" '
                f'fill="{color}"/>')

    def render(self) -> str:
        return "\n".join(self._parts + ["</svg>"]) + "\n"


class _LogAxis:
    """Maps positive values onto pixels through log10 with padded range."""

    def __init__(self, values, lo_px, hi_px):
        finite = [v for v in values if v > 0 and math.isfinite(v)]
        if not finite:
            finite = [1.0]
        lo, hi = min(finite), max(finite)
        if hi / lo < 4.0:
            lo, hi = lo / 2.0, hi * 2.0
        self.lo, self.hi = math.log10(lo), math.log10(hi)
        self.lo_px, self.hi_px = lo_px, hi_px

    def __call__(self, value: float) -> float:
        frac = (math.log10(value) - self.lo) / (self.hi - self.lo)
        return self.lo_px + frac * (self.hi_px - self.lo_px)

    def ticks(self):
        out = []
        for k in range(math.floor(self.lo), math.ceil(self.hi) + 1):
            if self.lo - 0.01 <= k <= self.hi + 0.01:
                out.append((10.0 ** k, f"1e{k}"))
        if not out:
            mid = 10.0 ** ((self.lo + self.hi) / 2.0)
            out.append((mid, f"{mid:.3g}"))
        return out


class _LinearAxis:
    def __init__(self, values, lo_px, hi_px):
        hi = max([v for v in values if math.isfinite(v)] + [0.0])
        if hi <= 0.0:
            hi = 1.0
        self.lo, self.hi = 0.0, hi * 1.1
        self.lo_px, self.hi_px = lo_px, hi_px

    def __call__(self, value: float) -> float:
        frac = (value - self.lo) / (self.hi - self.lo)
        return self.lo_px + frac * (self.hi_px - self.lo_px)

    def ticks(self):
        step = (self.hi - self.lo) / 4.0
        return [(self.lo + i * step, f"{self.lo + i * step:.3g}")
                for i in range(5)]


def _draw_axes(canvas: _Canvas, x_axis, y_axis, x_label: str, y_label: str):
    x0, x1 = _LEFT, _WIDTH - _RIGHT
    y0, y1 = _HEIGHT - _BOTTOM, _TOP
    canvas.open_group("axes")
    canvas.line(x0, y0, x1, y0)
    canvas.line(x0, y0, x0, y1)
    for value, label in x_axis.ticks():
        px = x_axis(value)
        canvas.line(px, y0, px, y0 + 4)
        canvas.text(px, y0 + 18, label)
    for value, label in y_axis.ticks():
        py = y_axis(value)
        canvas.line(x0 - 4, py, x0, py)
        canvas.text(x0 - 8, py + 4, label, anchor="end")
    canvas.text((x0 + x1) / 2.0, _HEIGHT - 12, x_label)
    canvas.text(16, _TOP - 8, y_label, anchor="start")
    canvas.close_group()


def _series_by_variant(result: StudyResult):
    """Per-variant per-n epsilon and worst-replicate exceedance."""
    eps = {}
    exceed = {}
    for variant in result.config.variants:
        eps[variant] = []
        exceed[variant] = []
        for n in result.config.n_grid:
            rows = [r for r in result.rows
                    if r.variant == variant and r.n == n]
            eps[variant].append(rows[0].epsilon_n)
            exceed[variant].append(max(r.exceedance for r in rows))
    return eps, exceed


def rates_plot_svg(result: StudyResult) -> str:
    if not result.rows:
        raise ValueError("no rows to plot")
    n_grid = result.config.n_grid
    medians = result.summary.pooled_medians
    eps, _ = _series_by_variant(result)
    canvas = _Canvas("median divergence and bound vs sample size")
    values = list(medians)
    for series in eps.values():
        values.extend(v for v in series if math.isfinite(v))
    x_axis = _LogAxis(n_grid, _LEFT, _WIDTH - _RIGHT)
    y_axis = _LogAxis(values, _HEIGHT - _BOTTOM, _TOP)
    _draw_axes(canvas, x_axis, y_axis, "n", "d2")
    floor = 10.0 ** y_axis.lo
    canvas.polyline(
        [(x_axis(n), y_axis(max(v, floor))) for n, v in zip(n_grid, medians)],
        "median_d2", _PALETTE[0])
    for i, (variant, series) in enumerate(eps.items()):
        pts = [(x_axis(n), y_axis(max(min(v, 10.0 ** y_axis.hi), floor)))
               for n, v in zip(n_grid, series)]
        canvas.polyline(pts, f"epsilon_{variant}", _PALETTE[(i + 1) % len(_PALETTE)])
    return canvas.render()


def exceedance_plot_svg(result: StudyResult) -> str:
    if not result.rows:
        raise ValueError("no rows to plot")
    n_grid = result.config.n_grid
    _, exceed = _series_by_variant(result)
    canvas = _Canvas("exceedance fraction vs sample size")
    x_axis = _LogAxis(n_grid, _LEFT, _WIDTH - _RIGHT)
    all_vals = [v for series in exceed.values() for v in series] + [0.05]
    y_axis = _LinearAxis(all_vals, _HEIGHT - _BOTTOM, _TOP)
    _draw_axes(canvas, x_axis, y_axis, "n", "exceedance")
    guide_y = y_axis(0.05)
    canvas.line(_LEFT, guide_y, _WIDTH - _RIGHT, guide_y, color="#999999",
                width=0.8, cls="guide")
    for i, (variant, series) in enumerate(exceed.items()):
        pts = [(x_axis(n), y_axis(v)) for n, v in zip(n_grid, series)]
        canvas.polyline(pts, f"exceedance_{variant}", _PALETTE[i % len(_PALETTE)])
    return canvas.render()


def render_plots(result: StudyResult, prefix: str) -> tuple:
    """Write the rates and exceedance plots; returns the file paths."""
    paths = f"{prefix}_rates.svg", f"{prefix}_exceedance.svg"
    for path, plot in zip(paths, (rates_plot_svg, exceedance_plot_svg)):
        text = plot(result)
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    return paths
