"""Tiny SVG chart writer.

Hand-rolled so chart output is a pure function of its inputs: same data,
same bytes. Only what the pipeline needs: a grouped bar chart (monthwise
means) and a multi-series line chart (forecast paths vs actuals).
"""

from __future__ import annotations

import itertools
import math

_COLORS = ("#4477aa", "#ee6677", "#228833", "#ccbb44")
_W, _H = 760, 420
# The plot area's left, top, right and bottom edges, in pixels.
_X0, _Y0, _X1, _Y1 = 64, 40, _W - 16, _H - 56


def _fmt(v: float) -> str:
    return f"{v:.2f}".rstrip("0").rstrip(".")


def _ticks(lo: float, hi: float) -> list[float]:
    step = (hi - lo) / 4
    return [lo + i * step for i in range(5)]


def _ypix(v: float, lo: float, hi: float) -> float:
    return _Y1 - (v - lo) / (hi - lo) * (_Y1 - _Y0)


def _frame(title: str, lo: float, hi: float, body: list[str], names: list[str]) -> str:
    """The chart around body: title, y grid, x axis and a legend entry per series name."""
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2}" y="20" text-anchor="middle" font-size="15">{title}</text>',
    ]
    for tick in _ticks(lo, hi):
        y = _ypix(tick, lo, hi)
        parts.append(f'<line x1="{_X0}" y1="{_fmt(y)}" x2="{_X1}" y2="{_fmt(y)}" stroke="#ddd"/>')
        parts.append(
            f'<text x="{_X0 - 6}" y="{_fmt(y + 4)}" text-anchor="end">{_fmt(tick)}</text>'
        )
    parts.extend(body)
    parts.append(f'<line x1="{_X0}" y1="{_Y1}" x2="{_X1}" y2="{_Y1}" stroke="#333"/>')
    x = _X0
    for i, name in enumerate(names):
        color = _COLORS[i % len(_COLORS)]
        parts.append(f'<rect x="{x}" y="{_H - 22}" width="12" height="12" fill="{color}"/>')
        parts.append(f'<text x="{x + 16}" y="{_H - 12}">{name}</text>')
        x += 16 + 8 * len(name) + 24
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _bounds(series: dict[str, list[float]], labels: list[str]) -> tuple[float, float]:
    """The padded value range of every finite value, once each series has one per label."""
    for name, vs in series.items():
        if len(vs) != len(labels):
            raise ValueError(f"series {name!r} has {len(vs)} values for {len(labels)} labels")
    values = [v for vs in series.values() for v in vs if math.isfinite(v)]
    if not values:
        raise ValueError("no finite values to plot")
    lo, hi = min(values), max(values)
    pad = (hi - lo) * 0.05 or abs(hi) * 0.05 or 1.0
    return lo - pad, hi + pad


def bar_chart_svg(title: str, labels: list[str], series: dict[str, list[float]]) -> str:
    """Grouped vertical bars; one group per label, one bar per series."""
    if not series or not labels:
        raise ValueError("bar chart needs at least one label and one series")
    lo, hi = _bounds(series, labels)
    lo = min(lo, 0.0)
    group_w = (_X1 - _X0) / len(labels)
    bar_w = group_w * 0.8 / len(series)
    base = _ypix(0.0, lo, hi)

    body = []
    for gi, label in enumerate(labels):
        gx = _X0 + gi * group_w
        for si, (name, vs) in enumerate(series.items()):
            bx = gx + group_w * 0.1 + si * bar_w
            top = _ypix(vs[gi], lo, hi)
            y, h = (top, base - top) if top <= base else (base, top - base)
            body.append(
                f'<rect x="{_fmt(bx)}" y="{_fmt(y)}" width="{_fmt(bar_w)}" '
                f'height="{_fmt(h)}" fill="{_COLORS[si % len(_COLORS)]}"/>'
            )
        body.append(
            f'<text x="{_fmt(gx + group_w / 2)}" y="{_Y1 + 16}" text-anchor="middle">{label}</text>'
        )
    return _frame(title, lo, hi, body, list(series))


def line_chart_svg(title: str, x_labels: list[str], series: dict[str, list[float]]) -> str:
    """One polyline per series over a shared categorical x axis."""
    if not series or len(x_labels) < 2:
        raise ValueError("line chart needs at least one series and two x positions")
    lo, hi = _bounds(series, x_labels)
    dx = (_X1 - _X0) / (len(x_labels) - 1)

    body = []
    for si, vs in enumerate(series.values()):
        color = _COLORS[si % len(_COLORS)]
        # non-finite values break the line into separate segments
        runs = itertools.groupby(enumerate(vs), key=lambda iv: math.isfinite(iv[1]))
        for finite, run in runs:
            if not finite:
                continue
            points = [(_fmt(_X0 + i * dx), _fmt(_ypix(v, lo, hi))) for i, v in run]
            if len(points) == 1:
                [(cx, cy)] = points
                body.append(f'<circle cx="{cx}" cy="{cy}" r="2" fill="{color}"/>')
            else:
                coords = " ".join(f"{x},{y}" for x, y in points)
                body.append(
                    f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>'
                )
    step = max(1, len(x_labels) // 8)
    for i in range(0, len(x_labels), step):
        body.append(
            f'<text x="{_fmt(_X0 + i * dx)}" y="{_Y1 + 16}" text-anchor="middle" '
            f'font-size="10">{x_labels[i]}</text>'
        )
    return _frame(title, lo, hi, body, list(series))
