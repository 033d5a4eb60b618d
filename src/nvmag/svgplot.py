"""Minimal native SVG line plots.

Just enough plotting for sweep outputs: polylines over linear or log axes
with ticks and a legend, emitted as a deterministic string so re-rendering
the same data yields byte-identical files.  Not a plotting library.
"""

from __future__ import annotations

import itertools
import math

from .errors import ConfigError

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_WIDTH, _HEIGHT = 640, 420
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 64, 16, 34, 46


def _nice_ticks(lo: float, hi: float, target: int = 5) -> list[float]:
    if not (math.isfinite(lo) and math.isfinite(hi)) or hi <= lo:
        return [lo]
    raw = (hi - lo) / max(target, 2)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return ticks


def _log_ticks(lo: float, hi: float) -> list[float]:
    ticks = []
    d = math.floor(math.log10(lo))
    while 10.0**d <= hi * (1 + 1e-9):
        if 10.0**d >= lo * (1 - 1e-9):
            ticks.append(10.0**d)
        d += 1
    return ticks or [lo]


def _axis(lo: float, hi: float, log: bool):
    """The fraction of the span [lo, hi] at a value, and the axis ticks."""
    if log:
        log_lo, log_span = math.log10(lo), math.log10(hi) - math.log10(lo)
        return (lambda v: (math.log10(v) - log_lo) / log_span), _log_ticks(lo, hi)
    return (lambda v: (v - lo) / (hi - lo)), _nice_ticks(lo, hi)


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def line_plot(
    series: list[tuple[str, list[float], list[float]]],
    title: str = "",
    x_label: str = "",
    y_label: str = "",
    log_x: bool = False,
    log_y: bool = False,
    markers: bool = True,
) -> str:
    """Render labeled (x, y) series to an SVG document string.

    Non-finite points (and, on log axes, non-positive ones) break the
    polyline rather than being interpolated over.
    """
    if not series:
        raise ConfigError("line_plot needs at least one series")

    def usable(x, y):
        ok = math.isfinite(x) and math.isfinite(y)
        if log_x:
            ok = ok and x > 0
        if log_y:
            ok = ok and y > 0
        return ok

    xs = [x for _, sx, sy in series for x, y in zip(sx, sy) if usable(x, y)]
    ys = [y for _, sx, sy in series for x, y in zip(sx, sy) if usable(x, y)]
    if not xs:
        raise ConfigError("line_plot got no plottable points")

    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    # a flat log axis is widened by a factor: a pad of 0.5 could reach zero
    if x_hi == x_lo:
        x_lo, x_hi = (x_lo / 2, x_hi * 2) if log_x else (x_lo - 0.5, x_hi + 0.5)
    if y_hi == y_lo:
        y_lo, y_hi = (y_lo / 2, y_hi * 2) if log_y else (y_lo - 0.5, y_hi + 0.5)
    if not log_y:
        pad = 0.06 * (y_hi - y_lo)
        y_lo, y_hi = y_lo - pad, y_hi + pad

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    x_frac, x_ticks = _axis(x_lo, x_hi, log_x)
    y_frac, y_ticks = _axis(y_lo, y_hi, log_y)

    def sx(x: float) -> float:
        return _MARGIN_L + x_frac(x) * plot_w

    def sy(y: float) -> float:
        return _MARGIN_T + (1.0 - y_frac(y)) * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="sans-serif" font-size="11">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#333" stroke-width="1"/>',
    ]
    if title:
        out.append(
            f'<text x="{_WIDTH / 2:.1f}" y="20" text-anchor="middle" '
            f'font-size="13">{title}</text>'
        )

    for t in x_ticks:
        px = sx(t)
        out.append(
            f'<line x1="{px:.1f}" y1="{_MARGIN_T + plot_h}" x2="{px:.1f}" '
            f'y2="{_MARGIN_T + plot_h + 4}" stroke="#333"/>'
        )
        out.append(
            f'<text x="{px:.1f}" y="{_MARGIN_T + plot_h + 16}" '
            f'text-anchor="middle">{_fmt(t)}</text>'
        )
    for t in y_ticks:
        py = sy(t)
        out.append(
            f'<line x1="{_MARGIN_L - 4}" y1="{py:.1f}" x2="{_MARGIN_L}" '
            f'y2="{py:.1f}" stroke="#333"/>'
        )
        out.append(
            f'<text x="{_MARGIN_L - 7}" y="{py + 3.5:.1f}" '
            f'text-anchor="end">{_fmt(t)}</text>'
        )
    if x_label:
        out.append(
            f'<text x="{_MARGIN_L + plot_w / 2:.1f}" y="{_HEIGHT - 10}" '
            f'text-anchor="middle">{x_label}</text>'
        )
    if y_label:
        cy = _MARGIN_T + plot_h / 2
        out.append(
            f'<text x="15" y="{cy:.1f}" text-anchor="middle" '
            f'transform="rotate(-90 15 {cy:.1f})">{y_label}</text>'
        )

    for k, (label, series_x, series_y) in enumerate(series):
        color = _PALETTE[k % len(_PALETTE)]
        pts = [(sx(x), sy(y)) if usable(x, y) else None for x, y in zip(series_x, series_y)]
        for plotted, run in itertools.groupby(pts, key=lambda p: p is not None):
            run = list(run)
            if plotted and len(run) > 1:
                points = " ".join(f"{px:.2f},{py:.2f}" for px, py in run)
                out.append(
                    f'<polyline points="{points}" fill="none" '
                    f'stroke="{color}" stroke-width="1.5"/>'
                )
        if markers:
            for px, py in filter(None, pts):
                out.append(f'<circle cx="{px:.2f}" cy="{py:.2f}" r="2.2" fill="{color}"/>')
        ly = _MARGIN_T + 14 + 15 * k
        lx = _MARGIN_L + plot_w - 130
        out.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 18}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        out.append(f'<text x="{lx + 23}" y="{ly}">{label}</text>')

    out.append("</svg>")
    return "\n".join(out)
