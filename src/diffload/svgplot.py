"""Minimal standalone SVG line plots, so reports need no plotting stack."""

from __future__ import annotations

import math
from pathlib import Path

from .scenario import ValidationError

PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b",
           "#17becf", "#7f7f7f"]

WIDTH, HEIGHT = 640, 420
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 160, 30, 50


def _extent(values: list[float]) -> tuple[float, float]:
    """The least and greatest of `values`, an empty range widened: one unit up,
    or where a unit rounds away at its magnitude, by 1/1024 of it toward zero."""
    lo, hi = min(values), max(values)
    if hi == lo:
        hi = lo + 1.0
        if hi == lo:
            lo, hi = sorted((lo, lo - lo / 1024))
    return lo, hi


def _ticks(lo: float, hi: float) -> list[float]:
    """Five evenly spaced ticks from lo to hi; `_extent` has widened an empty axis."""
    span = hi - lo
    return [lo + span * i / 4 for i in range(5)]


def line_plot(series: dict[str, list[tuple[float, float]]], path: str | Path,
              title: str, x_label: str, y_label: str) -> None:
    """Write one SVG with a polyline per named series, a title and both axis labels.

    An axis whose padded extent spans more than the floating-point range
    raises `ValidationError`, as it has no finite scale.
    """
    xs = [x for pts in series.values() for x, _ in pts]
    ys = [y for pts in series.values() for _, y in pts]
    if not xs:
        raise ValueError("nothing to plot")
    x_lo, x_hi = _extent(xs)
    y_lo, y_hi = _extent(ys)
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    for label, lo, hi in ((x_label, x_lo, x_hi), (y_label, y_lo, y_hi)):
        if not math.isfinite(hi - lo):
            raise ValidationError(
                f"{label}: the plotted values span more than the floating-point range")
    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def px(x: float) -> float:
        return MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return MARGIN_T + (y_hi - y) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#444"/>',
    ]
    parts.append(f'<text x="{WIDTH / 2}" y="20" text-anchor="middle" '
                 f'font-size="14" font-family="sans-serif">{title}</text>')
    for tick in _ticks(x_lo, x_hi):
        x = px(tick)
        parts.append(f'<line x1="{x:.1f}" y1="{MARGIN_T + plot_h}" x2="{x:.1f}" '
                     f'y2="{MARGIN_T + plot_h + 5}" stroke="#444"/>')
        parts.append(f'<text x="{x:.1f}" y="{MARGIN_T + plot_h + 18}" text-anchor="middle" '
                     f'font-size="11" font-family="sans-serif">{tick:.6g}</text>')
    for tick in _ticks(y_lo, y_hi):
        y = py(tick)
        parts.append(f'<line x1="{MARGIN_L - 5}" y1="{y:.1f}" x2="{MARGIN_L}" '
                     f'y2="{y:.1f}" stroke="#444"/>')
        parts.append(f'<text x="{MARGIN_L - 8}" y="{y + 4:.1f}" text-anchor="end" '
                     f'font-size="11" font-family="sans-serif">{tick:.6g}</text>')
    parts.append(f'<text x="{MARGIN_L + plot_w / 2}" y="{HEIGHT - 10}" '
                 f'text-anchor="middle" font-size="12" font-family="sans-serif">'
                 f'{x_label}</text>')
    parts.append(f'<text x="16" y="{MARGIN_T + plot_h / 2}" text-anchor="middle" '
                 f'font-size="12" font-family="sans-serif" '
                 f'transform="rotate(-90 16 {MARGIN_T + plot_h / 2})">{y_label}</text>')
    for idx, (name, pts) in enumerate(series.items()):
        color = PALETTE[idx % len(PALETTE)]
        coords = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in sorted(pts))
        parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" '
                     f'stroke-width="1.8"/>')
        for x, y in pts:
            parts.append(f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="2.6" '
                         f'fill="{color}"/>')
        ly = MARGIN_T + 14 + idx * 18
        lx = MARGIN_L + plot_w + 12
        parts.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
                     f'stroke="{color}" stroke-width="1.8"/>')
        parts.append(f'<text x="{lx + 28}" y="{ly}" font-size="12" '
                     f'font-family="sans-serif">{name}</text>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")
