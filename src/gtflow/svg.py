"""Minimal self-contained SVG writers (line charts and heat maps).

No plotting runtime: the artifact emits plain SVG text so plots render
anywhere, and the CSV next to them stays the ground truth. No timestamps or
other volatile fields are written, keeping outputs byte-reproducible.
"""

from __future__ import annotations

import math
import sys

import numpy as np

__all__ = ["line_chart", "heat_map"]

_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
           "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf"]

_W, _H = 640, 420
_ML, _MR, _MT, _MB = 64, 16, 28, 44
_PW, _PH = _W - _ML - _MR, _H - _MT - _MB  # the plot area


def _frame(body: list[str], title: str, x_label: str, y_label: str) -> str:
    """The svg element around the plot's body: background, title and axis labels."""
    return "\n".join([
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="11">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W/2:.0f}" y="16" text-anchor="middle" font-size="13">{title}</text>',
        *body,
        f'<text x="{_W/2:.0f}" y="{_H-8}" text-anchor="middle">{x_label}</text>',
        f'<text x="14" y="{_MT+_PH/2:.0f}" text-anchor="middle" '
        f'transform="rotate(-90 14 {_MT+_PH/2:.0f})">{y_label}</text>',
        "</svg>",
    ]) + "\n"


def _axis(values: np.ndarray):
    """Axis limits lo < hi and the map of [lo, hi] onto [0, 1].

    A lone value spans one unit, or reaches to zero where adding one unit
    rounds away. Where hi - lo overflows, the map halves every value first
    (exact for normal floats), so its span is finite.
    """
    lo, hi = float(values.min()), float(values.max())
    if lo == hi:
        hi = lo + 1.0
    if lo == hi:
        lo, hi = min(lo, 0.0), max(lo, 0.0)
    s = 0.5 if math.isinf(hi - lo) else 1.0
    return lo, hi, lambda v: (v * s - lo * s) / (hi * s - lo * s)


def _ticks(lo: float, hi: float) -> list[float]:
    raw = (hi - lo) / 5
    if not sys.float_info.min <= raw < math.inf:  # overflowed, or below a normal float
        return [lo, hi]
    mag = 10 ** math.floor(math.log10(abs(raw)))
    step = min(s * mag for s in (1, 2, 5, 10) if s * mag >= raw)
    top = max(abs(lo), abs(hi))
    if top + step == top:  # a span of a few ulps: v += step would not advance
        return [lo, hi]
    first = math.ceil(lo / step) * step
    out = []
    v = first
    while v <= hi + 1e-12 * abs(step):
        out.append(v)
        v += step
    return out


def line_chart(
    series: dict[str, tuple[np.ndarray, np.ndarray]],
    title: str = "",
    x_label: str = "",
    y_label: str = "",
    log_y: bool = False,
) -> str:
    """Polyline chart of named (x, y) series; log_y drops non-positive points."""
    cleaned = {}
    for name, (xs, ys) in series.items():
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        keep = np.isfinite(xs) & np.isfinite(ys)
        if log_y:
            keep &= ys > 0
        if keep.any():
            cleaned[name] = (xs[keep], np.log10(ys[keep]) if log_y else ys[keep])
    if not cleaned:
        cleaned = {"empty": (np.array([0.0, 1.0]), np.array([0.0, 0.0]))}

    x_lo, x_hi, fx = _axis(np.concatenate([v[0] for v in cleaned.values()]))
    y_lo, y_hi, fy = _axis(np.concatenate([v[1] for v in cleaned.values()]))

    def px(x):
        return _ML + fx(x) * _PW

    def py(y):
        return _MT + (1 - fy(y)) * _PH

    parts = []
    for tx in _ticks(x_lo, x_hi):
        parts.append(f'<line x1="{px(tx):.1f}" y1="{_MT}" x2="{px(tx):.1f}" '
                     f'y2="{_MT+_PH}" stroke="#ddd"/>')
        parts.append(f'<text x="{px(tx):.1f}" y="{_MT+_PH+14}" text-anchor="middle">{tx:g}</text>')
    for ty in _ticks(y_lo, y_hi):
        label = f"1e{ty:g}" if log_y else f"{ty:g}"
        parts.append(f'<line x1="{_ML}" y1="{py(ty):.1f}" x2="{_ML+_PW}" '
                     f'y2="{py(ty):.1f}" stroke="#ddd"/>')
        parts.append(f'<text x="{_ML-6}" y="{py(ty)+4:.1f}" text-anchor="end">{label}</text>')
    parts.append(f'<rect x="{_ML}" y="{_MT}" width="{_PW}" height="{_PH}" '
                 f'fill="none" stroke="#333"/>')
    for idx, (name, (xs, ys)) in enumerate(cleaned.items()):
        color = _COLORS[idx % len(_COLORS)]
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.3"/>')
        parts.append(f'<text x="{_ML+8}" y="{_MT+14+13*idx}" fill="{color}">{name}</text>')
    return _frame(parts, title, x_label, y_label)


def heat_map(
    values: np.ndarray,
    x_labels: list,
    y_labels: list,
    title: str = "",
    x_label: str = "",
    y_label: str = "",
) -> str:
    """Grid of values in [0, 1] colored from blue (0) through white to red (1).

    The scale is fixed, so one color means one value across maps; a
    non-finite cell is grey.
    """
    vals = np.asarray(values, dtype=float)
    ny, nx = vals.shape
    if len(x_labels) != nx or len(y_labels) != ny:
        raise ValueError("label counts must match the value grid")
    cw, ch = _PW / nx, _PH / ny

    def color(f):
        if not math.isfinite(f):
            return "#999999"
        if f < 0.5:
            t = f / 0.5
            r, g, b = int(49 + t * (255 - 49)), int(54 + t * (255 - 54)), 149 + int(t * (255 - 149))
        else:
            t = (f - 0.5) / 0.5
            r, g, b = 255, int(255 - t * (255 - 29)), int(255 - t * (255 - 38))
        return f"#{r:02x}{g:02x}{b:02x}"

    parts = []
    for iy in range(ny):
        for ix in range(nx):
            parts.append(
                f'<rect x="{_ML+ix*cw:.1f}" y="{_MT+iy*ch:.1f}" width="{cw:.1f}" '
                f'height="{ch:.1f}" fill="{color(vals[iy, ix])}" stroke="#fff"/>'
            )
    for ix, lab in enumerate(x_labels):
        parts.append(f'<text x="{_ML+(ix+0.5)*cw:.1f}" y="{_MT+_PH+14}" '
                     f'text-anchor="middle">{lab}</text>')
    for iy, lab in enumerate(y_labels):
        parts.append(f'<text x="{_ML-6}" y="{_MT+(iy+0.5)*ch+4:.1f}" '
                     f'text-anchor="end">{lab}</text>')
    return _frame(parts, title, x_label, y_label)
