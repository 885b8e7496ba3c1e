"""Minimal self-contained SVG rendering of threshold curves.

A convenience view only: CSV/JSON artifacts are canonical. The output is a
fixed 800x600 viewbox with axes and a polyline, no external assets.
"""

from __future__ import annotations

_WIDTH, _HEIGHT = 800, 600
_MARGIN = 60

_AXIS_LABELS = {"ROC": ("fallout", "sensitivity"), "PR": ("recall", "precision")}


def _px(x, y):
    span_x = _WIDTH - 2 * _MARGIN
    span_y = _HEIGHT - 2 * _MARGIN
    return _MARGIN + x * span_x, _HEIGHT - _MARGIN - y * span_y


def curve_svg(curve):
    """Render a ThresholdCurve to an SVG document string."""
    x_label, y_label = _AXIS_LABELS.get(curve.space, ("x", "y"))
    pts = " ".join(f"{_px(x, y)[0]:.2f},{_px(x, y)[1]:.2f}" for x, y in curve.points)
    x0, y0 = _px(0, 0)
    x1, y1 = _px(1, 1)
    ticks = []
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        tx, _ = _px(frac, 0)
        _, ty = _px(0, frac)
        ticks.append(f'<line x1="{tx:.1f}" y1="{y0:.1f}" x2="{tx:.1f}" '
                     f'y2="{y0 + 5:.1f}" stroke="black"/>')
        ticks.append(f'<text x="{tx:.1f}" y="{y0 + 20:.1f}" font-size="12" '
                     f'text-anchor="middle">{frac:g}</text>')
        ticks.append(f'<line x1="{x0 - 5:.1f}" y1="{ty:.1f}" x2="{x0:.1f}" '
                     f'y2="{ty:.1f}" stroke="black"/>')
        ticks.append(f'<text x="{x0 - 10:.1f}" y="{ty + 4:.1f}" font-size="12" '
                     f'text-anchor="end">{frac:g}</text>')
    title = f"{curve.space} curve, area={curve.area:.6f}"
    return f"""<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_WIDTH} {_HEIGHT}">
<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>
<line x1="{x0:.1f}" y1="{y0:.1f}" x2="{x1:.1f}" y2="{y0:.1f}" stroke="black"/>
<line x1="{x0:.1f}" y1="{y0:.1f}" x2="{x0:.1f}" y2="{y1:.1f}" stroke="black"/>
{''.join(ticks)}
<text x="{(_WIDTH / 2):.1f}" y="{_HEIGHT - 15:.1f}" font-size="14" text-anchor="middle">{x_label}</text>
<text x="18" y="{(_HEIGHT / 2):.1f}" font-size="14" text-anchor="middle" transform="rotate(-90 18 {(_HEIGHT / 2):.1f})">{y_label}</text>
<text x="{(_WIDTH / 2):.1f}" y="30" font-size="16" text-anchor="middle">{title}</text>
<polyline points="{pts}" fill="none" stroke="steelblue" stroke-width="2"/>
</svg>
"""
