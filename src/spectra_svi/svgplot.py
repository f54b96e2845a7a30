"""Static SVG charts of gap trajectories, no plotting dependency.

One line per (method, lambda) pair: x is the iteration, y the log10 of
the gap averaged over every record at that iteration (sample paths, and
grid cells if several are present). Zero gaps are clamped at 1e-16
before the log, and a mean whose sum overflows at the largest float.
"""

from __future__ import annotations

import math
import os
import sys
from collections import defaultdict
from typing import Iterable

from .harness import GapRecord, replacing

GAP_LOG_FLOOR = 1e-16

_PALETTE = (
    "#1b6ca8", "#d1495b", "#2e933c", "#8338ec",
    "#f18701", "#118ab2", "#6a4c93", "#495057",
)

_WIDTH, _HEIGHT = 800, 520
_MARGIN_LEFT, _MARGIN_RIGHT, _MARGIN_TOP, _MARGIN_BOTTOM = 70, 185, 45, 55


def _escape(text: str) -> str:
    """Text as XML character data: &, < and > as entity references."""
    return (text.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;"))


def _series_from_records(records: list[GapRecord]):
    groups: dict[tuple[str, float], dict[int, list[float]]] = \
        defaultdict(lambda: defaultdict(list))
    for r in records:
        groups[(r.method, r.lam)][r.iteration].append(r.gap)
    series = []
    for method, lam in sorted(groups):
        cells = groups[(method, lam)]
        pts = [
            (it, math.log10(min(max(sum(v) / len(v), GAP_LOG_FLOOR),
                                sys.float_info.max)))
            for it, v in sorted(cells.items())
        ]
        label = method if lam == 0 else f"{method} lambda={lam:g}"
        series.append((label, pts))
    return series


def _spread(lo: float, hi: float) -> tuple[float, float]:
    """A range of positive width: one value widens to +-1, in ints for
    ints, which stay exact where a float's unit exceeds 1."""
    if hi > lo:
        return lo, hi
    return lo - 1, hi + 1


def _tick_values(lo: float, hi: float, count: int = 5) -> list[float]:
    step = (hi - lo) / (count - 1)
    return [lo + k * step for k in range(count)]


def _fmt_tick(v: float) -> str:
    if abs(v - round(v)) < 1e-9:
        return str(int(round(v)))
    return f"{v:.2f}"


def render_svg(records: Iterable[GapRecord], path: str | os.PathLike,
               title: str = "mean strong gap (log scale)") -> None:
    series = _series_from_records(list(records))
    if not series:
        raise ValueError("no records to plot")

    xs = [p[0] for _, pts in series for p in pts]
    ys = [p[1] for _, pts in series for p in pts]
    xmin, xmax = _spread(min(xs), max(xs))
    ymin, ymax = _spread(min(ys), max(ys))
    pad = 0.05 * (ymax - ymin)
    ymin, ymax = ymin - pad, ymax + pad

    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    def sx(x: float) -> float:
        return _MARGIN_LEFT + (x - xmin) / (xmax - xmin) * plot_w

    def sy(y: float) -> float:
        return _MARGIN_TOP + (ymax - y) / (ymax - ymin) * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH // 2}" y="24" text-anchor="middle" '
        f'font-family="monospace" font-size="15">{_escape(title)}</text>',
    ]

    for xv in _tick_values(xmin, xmax):
        x = sx(xv)
        out.append(
            f'<line x1="{x:.2f}" y1="{_MARGIN_TOP}" x2="{x:.2f}" '
            f'y2="{_MARGIN_TOP + plot_h}" stroke="#dddddd" stroke-width="1"/>')
        out.append(
            f'<text x="{x:.2f}" y="{_MARGIN_TOP + plot_h + 18}" '
            f'text-anchor="middle" font-family="monospace" font-size="11">'
            f'{_fmt_tick(xv)}</text>')
    for yv in _tick_values(ymin, ymax):
        y = sy(yv)
        out.append(
            f'<line x1="{_MARGIN_LEFT}" y1="{y:.2f}" '
            f'x2="{_MARGIN_LEFT + plot_w}" y2="{y:.2f}" '
            f'stroke="#dddddd" stroke-width="1"/>')
        out.append(
            f'<text x="{_MARGIN_LEFT - 8}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-family="monospace" font-size="11">{_fmt_tick(yv)}</text>')

    out.append(
        f'<rect x="{_MARGIN_LEFT}" y="{_MARGIN_TOP}" width="{plot_w}" '
        f'height="{plot_h}" fill="none" stroke="#333333" stroke-width="1"/>')
    out.append(
        f'<text x="{_MARGIN_LEFT + plot_w / 2:.0f}" y="{_HEIGHT - 12}" '
        f'text-anchor="middle" font-family="monospace" font-size="12">'
        'iteration</text>')
    out.append(
        f'<text x="20" y="{_MARGIN_TOP + plot_h / 2:.0f}" '
        f'text-anchor="middle" font-family="monospace" font-size="12" '
        f'transform="rotate(-90 20 {_MARGIN_TOP + plot_h / 2:.0f})">'
        'log10 gap</text>')

    legend_x = _MARGIN_LEFT + plot_w + 14
    legend_y = _MARGIN_TOP + 10
    for k, (label, pts) in enumerate(series):
        color = _PALETTE[k % len(_PALETTE)]
        if len(pts) == 1:
            x, y = pts[0]
            out.append(
                f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="4" '
                f'fill="{color}"/>')
        else:
            coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts)
            out.append(
                f'<polyline points="{coords}" fill="none" stroke="{color}" '
                f'stroke-width="1.6"/>')
        ly = legend_y + 20 * k
        out.append(
            f'<line x1="{legend_x}" y1="{ly}" x2="{legend_x + 22}" '
            f'y2="{ly}" stroke="{color}" stroke-width="3"/>')
        out.append(
            f'<text x="{legend_x + 28}" y="{ly + 4}" font-family="monospace" '
            f'font-size="11">{_escape(label)}</text>')

    out.append("</svg>")
    with replacing(path) as f:
        f.write("\n".join(out) + "\n")
