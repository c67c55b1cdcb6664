"""Minimal deterministic SVG line charts.

Hand-rolled on purpose: the report files must be byte-identical across
runs, so no plotting library metadata (timestamps, generated ids) can
leak into the output.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_W, _H = 860, 520
_ML, _MR, _MT, _MB = 80, 24, 42, 58


def _ticks(lo: float, hi: float) -> list[float]:
    """Five evenly spaced ticks over [lo, hi]; `line_chart` widens an
    empty range before it calls this."""
    return [lo + (hi - lo) * k / 4 for k in range(5)]


def _fmt(v: float) -> str:
    return f"{v:.4g}"


def line_chart(
    path: str | Path,
    series: list[tuple[str, np.ndarray, np.ndarray]],
    title: str,
    xlabel: str,
    ylabel: str,
) -> None:
    """Write a fixed-size SVG with one polyline per (label, x, y) series."""
    xs = np.concatenate([np.asarray(s[1], dtype=float) for s in series])
    ys = np.concatenate([np.asarray(s[2], dtype=float) for s in series])
    x0, x1 = float(xs.min()), float(xs.max())
    y0, y1 = float(ys.min()), float(ys.max())
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y0, y1 = y0 - 0.5, y1 + 0.5
    pad = 0.05 * (y1 - y0)
    y0, y1 = y0 - pad, y1 + pad

    pw = _W - _ML - _MR
    ph = _H - _MT - _MB

    def px(x):
        return _ML + pw * (x - x0) / (x1 - x0)

    def py(y):
        return _MT + ph * (1.0 - (y - y0) / (y1 - y0))

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15" font-weight="bold">{title}</text>',
    ]
    # frame and grid
    out.append(
        f'<rect x="{_ML}" y="{_MT}" width="{pw}" height="{ph}" fill="none" '
        f'stroke="#444444" stroke-width="1"/>'
    )
    for tx in _ticks(x0, x1):
        x = px(tx)
        out.append(
            f'<line x1="{x:.2f}" y1="{_MT}" x2="{x:.2f}" y2="{_MT + ph}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{x:.2f}" y="{_MT + ph + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_fmt(tx)}</text>'
        )
    for ty in _ticks(y0, y1):
        y = py(ty)
        out.append(
            f'<line x1="{_ML}" y1="{y:.2f}" x2="{_ML + pw}" y2="{y:.2f}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_ML - 6}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_fmt(ty)}</text>'
        )
    out.append(
        f'<text x="{_ML + pw / 2:.1f}" y="{_H - 16}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{xlabel}</text>'
    )
    out.append(
        f'<text x="20" y="{_MT + ph / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 20 {_MT + ph / 2:.1f})">{ylabel}</text>'
    )
    for i, (label, sx, sy) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        pts = " ".join(
            f"{px(float(x)):.2f},{py(float(y)):.2f}" for x, y in zip(sx, sy)
        )
        out.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        ly = _MT + 16 + 16 * i
        out.append(
            f'<line x1="{_ML + pw - 130}" y1="{ly - 4}" x2="{_ML + pw - 106}" '
            f'y2="{ly - 4}" stroke="{color}" stroke-width="2"/>'
        )
        out.append(
            f'<text x="{_ML + pw - 100}" y="{ly}" font-family="sans-serif" '
            f'font-size="11">{label}</text>'
        )
    out.append("</svg>")
    Path(path).write_text("\n".join(out) + "\n")
