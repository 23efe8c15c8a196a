"""Standalone SVG line plots, written by hand — no plotting dependencies.

The output is deliberately plain: axes, ticks, polylines and a legend, one
element per line, everything formatted through fixed-precision strings so
the same data always produces the same bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#17becf",
    "#7f7f7f",
)

_WIDTH = 840
_HEIGHT = 520
_MARGIN_LEFT = 74.0
_MARGIN_RIGHT = 22.0
_MARGIN_TOP = 42.0
_MARGIN_BOTTOM = 56.0


@dataclass(frozen=True)
class Series:
    """One named polyline of (x, y) samples."""

    name: str
    x: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=np.float64)
        y = np.asarray(self.y, dtype=np.float64)
        if x.ndim != 1 or y.ndim != 1 or x.size != y.size:
            raise ValueError(
                f"series {self.name!r}: x and y must be 1D arrays of equal length"
            )
        if x.size == 0:
            raise ValueError(f"series {self.name!r} is empty")
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise ValueError(f"series {self.name!r} contains non-finite values")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)


def _num(v: float) -> str:
    """Pixel coordinate with fixed two-decimal precision."""
    return f"{v:.2f}"


def _linear_ticks(lo: float, hi: float) -> list[float]:
    """A handful of round tick values spanning [lo, hi]."""
    span = hi - lo
    raw = span / 5.0
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        step = mult * mag
        if span / step <= 6.0:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    value = first
    while value <= hi + step * 1e-9:
        ticks.append(0.0 if value == 0 else value)
        value += step
    return ticks


def _prepare_axis(values: np.ndarray, log: bool) -> tuple[float, float]:
    """Padded data range for one axis, in plot coordinates (log10 if log)."""
    if log:
        if np.any(values <= 0.0):
            raise ValueError("log-scale y axis requires positive values")
        values = np.log10(values)
    lo = float(values.min())
    hi = float(values.max())
    if lo == hi:
        pad = 1.0 if log else (0.5 if lo == 0.0 else abs(lo) * 0.5)
        lo, hi = lo - pad, hi + pad
    return lo, hi


def _axis_ticks(lo: float, hi: float, log: bool) -> list[tuple[float, str]]:
    """(position-in-plot-coords, label) pairs for an axis."""
    if log:
        first = math.ceil(lo - 1e-9)
        last = math.floor(hi + 1e-9)
        exps = list(range(first, last + 1))
        if not exps:
            exps = [round((lo + hi) / 2.0)]
        return [(float(e), f"{10.0 ** e:g}") for e in exps]
    return [(t, f"{t:.6g}") for t in _linear_ticks(lo, hi)]


def write_line_plot(
    series: Sequence[Series],
    path: str,
    *,
    title: str = "",
    x_label: str = "",
    y_label: str = "",
    log_y: bool = False,
) -> None:
    """Write a multi-series line plot as a self-contained SVG file.

    Series are drawn in the given order, cycling through a fixed palette,
    with a legend in the upper-right corner of the plot area.  A log y axis
    uses decade ticks and requires strictly positive y data.
    """
    if not series:
        raise ValueError("at least one series is required")

    all_x = np.concatenate([s.x for s in series])
    all_y = np.concatenate([s.y for s in series])
    x_lo, x_hi = _prepare_axis(all_x, False)
    y_lo, y_hi = _prepare_axis(all_y, log_y)

    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    def px(v: float) -> float:
        return _MARGIN_LEFT + (v - x_lo) / (x_hi - x_lo) * plot_w

    def py(v: float) -> float:
        c = math.log10(v) if log_y else v
        return _MARGIN_TOP + plot_h - (c - y_lo) / (y_hi - y_lo) * plot_h

    left = _MARGIN_LEFT
    right = _MARGIN_LEFT + plot_w
    top = _MARGIN_TOP
    bottom = _MARGIN_TOP + plot_h

    out: list[str] = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">'
    )
    out.append(f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>')
    if title:
        out.append(
            f'<text x="{_num(_WIDTH / 2)}" y="24" font-family="sans-serif" '
            f'font-size="15" text-anchor="middle">{_escape(title)}</text>'
        )

    # Axes
    for x1, y1, x2, y2 in (
        (left, bottom, right, bottom),
        (left, top, left, bottom),
    ):
        out.append(
            f'<line x1="{_num(x1)}" y1="{_num(y1)}" x2="{_num(x2)}" y2="{_num(y2)}" '
            f'stroke="black" stroke-width="1"/>'
        )

    # Ticks, labels and faint gridlines
    for pos, label in _axis_ticks(x_lo, x_hi, False):
        x = px(pos)
        out.append(
            f'<line x1="{_num(x)}" y1="{_num(top)}" x2="{_num(x)}" y2="{_num(bottom)}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        out.append(
            f'<line x1="{_num(x)}" y1="{_num(bottom)}" x2="{_num(x)}" y2="{_num(bottom + 5)}" '
            f'stroke="black" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_num(x)}" y="{_num(bottom + 19)}" font-family="sans-serif" '
            f'font-size="11" text-anchor="middle">{_escape(label)}</text>'
        )
    for pos, label in _axis_ticks(y_lo, y_hi, log_y):
        y = _MARGIN_TOP + plot_h - (pos - y_lo) / (y_hi - y_lo) * plot_h
        out.append(
            f'<line x1="{_num(left)}" y1="{_num(y)}" x2="{_num(right)}" y2="{_num(y)}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        out.append(
            f'<line x1="{_num(left - 5)}" y1="{_num(y)}" x2="{_num(left)}" y2="{_num(y)}" '
            f'stroke="black" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_num(left - 8)}" y="{_num(y + 4)}" font-family="sans-serif" '
            f'font-size="11" text-anchor="end">{_escape(label)}</text>'
        )

    if x_label:
        out.append(
            f'<text x="{_num(left + plot_w / 2)}" y="{_num(_HEIGHT - 14)}" '
            f'font-family="sans-serif" font-size="13" text-anchor="middle">'
            f"{_escape(x_label)}</text>"
        )
    if y_label:
        cx, cy = 18.0, top + plot_h / 2
        out.append(
            f'<text x="{_num(cx)}" y="{_num(cy)}" font-family="sans-serif" '
            f'font-size="13" text-anchor="middle" '
            f'transform="rotate(-90 {_num(cx)} {_num(cy)})">{_escape(y_label)}</text>'
        )

    # Data
    for idx, s in enumerate(series):
        color = PALETTE[idx % len(PALETTE)]
        points = " ".join(f"{_num(px(x))},{_num(py(y))}" for x, y in zip(s.x, s.y))
        out.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" '
            f'stroke-width="1.5"/>'
        )

    # Legend
    lx = right - 150.0
    ly = top + 10.0
    box_h = 16.0 * len(series) + 8.0
    out.append(
        f'<rect x="{_num(lx - 6)}" y="{_num(ly - 4)}" width="150" height="{_num(box_h)}" '
        f'fill="white" fill-opacity="0.85" stroke="#999999" stroke-width="0.5"/>'
    )
    for idx, s in enumerate(series):
        color = PALETTE[idx % len(PALETTE)]
        y = ly + 16.0 * idx + 8.0
        out.append(
            f'<line x1="{_num(lx)}" y1="{_num(y)}" x2="{_num(lx + 22)}" y2="{_num(y)}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        out.append(
            f'<text x="{_num(lx + 28)}" y="{_num(y + 4)}" font-family="sans-serif" '
            f'font-size="11">{_escape(s.name)}</text>'
        )

    out.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(out))
        fh.write("\n")


def _escape(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )
