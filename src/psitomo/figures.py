"""Deterministic SVG renderers for sweep results.

Pure string assembly: identical inputs give byte-identical files, which the
reproducibility checks rely on.
"""

from __future__ import annotations

import numpy as np

from .harness import _histogram_edges
from .states import PureState, bloch_vector

# Five-stop blue-to-yellow ramp, interpolated linearly in RGB.
_RAMP = (
    (68, 1, 84),
    (59, 82, 139),
    (33, 145, 140),
    (94, 201, 98),
    (253, 231, 37),
)


def _ramp_color(t: float) -> str:
    """The ramp's color at ``t`` in [0, 1]."""
    pos = t * (len(_RAMP) - 1)
    i = min(int(pos), len(_RAMP) - 2)
    frac = pos - i
    r, g, b = (
        round(_RAMP[i][c] + frac * (_RAMP[i + 1][c] - _RAMP[i][c])) for c in range(3)
    )
    return f"#{r:02x}{g:02x}{b:02x}"


def _svg_document(width: int, height: int, body: list[str]) -> str:
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">\n'
        f'<rect width="{width}" height="{height}" fill="white"/>\n'
    )
    return head + "\n".join(body) + "\n</svg>\n"


def _text(x, y, size: int, content, anchor: str | None = None) -> str:
    """One monospace ``<text>`` element; ``anchor`` sets its text-anchor."""
    end = f' text-anchor="{anchor}"' if anchor else ""
    return f'<text x="{x}" y="{y}" font-family="monospace" font-size="{size}"{end}>{content}</text>'


def _summary(fids: np.ndarray) -> str:
    """The summary line both figures carry: mean, sd and count of ``fids``."""
    return f"mean F = {float(fids.mean()):.4f}, sd = {float(fids.std()):.4f}, n = {fids.size}"


def _fidelities(fidelities) -> np.ndarray:
    """``fidelities`` as a float array, refused unless finite numbers in [0, 1]."""
    fids = np.asarray(fidelities, dtype=float)
    if not np.all((fids >= 0.0) & (fids <= 1.0)):  # written so that NaN fails too
        raise ValueError("fidelities must be finite numbers in [0, 1]")
    return fids


def bloch_figure(states: list[PureState], fidelities) -> str:
    """Orthographic Bloch-sphere scatter, one marker per state, colored by fidelity.

    The view looks down the +x axis: markers sit at (y, z); back-hemisphere
    points are drawn first so the near side overplots them.  The annotation
    gives the mean and sd of ``fidelities``.
    """
    fids = _fidelities(fidelities)
    if len(states) != fids.size:
        raise ValueError("need one fidelity per state")
    size, radius = 480, 190
    cx, cy = size // 2, size // 2 + 10
    lo, hi = float(fids.min()), float(fids.max())
    span = hi - lo if hi > lo else 1.0

    body = [
        f'<circle cx="{cx}" cy="{cy}" r="{radius}" fill="none" '
        'stroke="#888888" stroke-width="1"/>',
        f'<ellipse cx="{cx}" cy="{cy}" rx="{radius}" ry="{radius / 4:.1f}" '
        'fill="none" stroke="#cccccc" stroke-width="1"/>',
        _text(16, 28, 15, _summary(fids)),
    ]
    points = sorted((x, i, y, z) for i, (x, y, z) in enumerate(map(bloch_vector, states)))
    for x, i, y, z in points:  # back to front: by x, then by index
        px = cx + y * radius
        py = cy - z * radius
        color = _ramp_color((float(fids[i]) - lo) / span)
        body.append(
            f'<circle class="pt" cx="{px:.2f}" cy="{py:.2f}" r="3" '
            f'fill="{color}" fill-opacity="0.85"/>'
        )
    body.append(_text(16, size - 14, 13, f"color: F in [{lo:.4f}, {hi:.4f}]"))
    return _svg_document(size, size, body)


def histogram_figure(fidelities) -> str:
    """Bar histogram of fidelities in summary.json's HISTOGRAM_BINS bins, with summary text."""
    fids = _fidelities(fidelities)
    if fids.size == 0:
        raise ValueError("need at least one fidelity")
    edges = _histogram_edges(fids)
    counts, _ = np.histogram(fids, bins=edges)
    peak = max(int(counts.max()), 1)

    width, height = 560, 360
    left, right, top, bottom = 56, 16, 48, 48
    plot_w = width - left - right
    plot_h = height - top - bottom
    bar_w = plot_w / len(counts)

    body = [
        _text(left, 26, 15, _summary(fids)),
        f'<line x1="{left}" y1="{top + plot_h}" x2="{left + plot_w}" '
        f'y2="{top + plot_h}" stroke="#333333" stroke-width="1"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{top + plot_h}" '
        'stroke="#333333" stroke-width="1"/>',
    ]
    for i, count in enumerate(counts):
        h = plot_h * (int(count) / peak)
        x = left + i * bar_w
        y = top + plot_h - h
        body.append(
            f'<rect class="bar" x="{x:.2f}" y="{y:.2f}" width="{bar_w:.2f}" '
            f'height="{h:.2f}" fill="#4472a8" stroke="white" stroke-width="0.5"/>'
        )
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        value = edges[0] + frac * (1.0 - edges[0])
        x = left + frac * plot_w
        body.append(_text(f"{x:.2f}", top + plot_h + 18, 11, f"{value:.4f}", "middle"))
    body += [_text(left - 8, top + 4, 11, peak, "end"),
             _text(left - 8, top + plot_h + 4, 11, 0, "end")]
    return _svg_document(width, height, body)
