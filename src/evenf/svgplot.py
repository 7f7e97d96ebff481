"""Minimal self-contained SVG line charts (no plotting dependency)."""

from __future__ import annotations

import math
from html import escape

import numpy as np

from .ingest import _lines

__all__ = ["render_line_chart"]

_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd",
            "#8c564b", "#17becf"]


def _nice_ticks(lo: float, hi: float, target: int = 6) -> list[float]:
    if hi <= lo:
        return [lo]
    raw = (hi - lo) / max(target - 1, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    ticks, v = [], math.ceil(lo / step) * step
    while v <= hi + 1e-12 * step:
        ticks.append(round(v, 12))
        v += step
    return ticks


def render_line_chart(series, path, title: str = "") -> None:
    """Write a polyline chart of frequency over time to an SVG file.

    series: list of (label, x array, y array) triples.
    """
    if not series:
        raise ValueError("nothing to plot")
    width, height = 960, 420
    xlabel, ylabel = "time (s)", "frequency (Hz)"
    ml, mr, mt, mb = 74, 16, 34, 46
    pw, ph = width - ml - mr, height - mt - mb
    xs = np.concatenate([np.asarray(s[1], dtype=float) for s in series])
    ys = np.concatenate([np.asarray(s[2], dtype=float) for s in series])
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
        raise ValueError("values to plot must be finite")
    x_lo, x_hi = float(xs.min()), float(xs.max())
    y_lo, y_hi = float(ys.min()), float(ys.max())
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    pad = 0.04 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def sx(v):
        return ml + (v - x_lo) / (x_hi - x_lo) * pw

    def sy(v):
        return mt + (y_hi - v) / (y_hi - y_lo) * ph

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
           f'height="{height}" viewBox="0 0 {width} {height}">',
           f'<rect width="{width}" height="{height}" fill="white"/>',
           '<g font-family="sans-serif" font-size="12" fill="#333">']
    if title:
        out.append(f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" '
                   f'font-size="14">{escape(title)}</text>')
    for tv in _nice_ticks(x_lo, x_hi):
        px = sx(tv)
        out.append(f'<line x1="{px:.2f}" y1="{mt}" x2="{px:.2f}" '
                   f'y2="{mt + ph}" stroke="#ddd"/>')
        out.append(f'<text x="{px:.2f}" y="{mt + ph + 16}" '
                   f'text-anchor="middle">{tv:g}</text>')
    for tv in _nice_ticks(y_lo, y_hi):
        py = sy(tv)
        out.append(f'<line x1="{ml}" y1="{py:.2f}" x2="{ml + pw}" '
                   f'y2="{py:.2f}" stroke="#ddd"/>')
        out.append(f'<text x="{ml - 6}" y="{py + 4:.2f}" '
                   f'text-anchor="end">{tv:g}</text>')
    out.append(f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" '
               'fill="none" stroke="#888"/>')
    out.append(f'<text x="{ml + pw / 2:.1f}" y="{height - 10}" '
               f'text-anchor="middle">{xlabel}</text>')
    out.append(f'<text x="16" y="{mt + ph / 2:.1f}" text-anchor="middle" '
               f'transform="rotate(-90 16 {mt + ph / 2:.1f})">{ylabel}</text>')
    for i, (label, x, y) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        pts = "".join(_lines(2, sx(np.asarray(x, dtype=float)),   # x,y x,y
                             sy(np.asarray(y, dtype=float)), end=" "))[:-1]
        out.append(f'<polyline points="{pts}" fill="none" '
                   f'stroke="{color}" stroke-width="1.4"/>')
        ly = mt + 16 + 16 * i
        out.append(f'<line x1="{ml + pw - 150}" y1="{ly - 4}" '
                   f'x2="{ml + pw - 126}" y2="{ly - 4}" stroke="{color}" '
                   'stroke-width="2"/>')
        out.append(f'<text x="{ml + pw - 120}" y="{ly}">{escape(label)}</text>')
    out.append("</g></svg>\n")
    with open(path, "w") as fh:
        fh.write("\n".join(out))
