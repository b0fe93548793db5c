"""SVG rendering of a 2-D solve: bounding circle, constraint lines, and the
ellipse sequence.

Output is deterministic for a given input.  Coordinates are written in
problem units inside a y-flipped group, so the rx/ry attributes of each
``<ellipse>`` are exactly the ellipse's semi-axes.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .solver import LinearSystem, TraceRecord


def ellipse_axes(shape: np.ndarray) -> tuple[float, float, float]:
    """Principal semi-axes and orientation of a 2x2 symmetric shape matrix.

    Returns (major, minor, angle) with semi-axes sqrt of the eigenvalues and
    ``angle`` (radians) the direction of the major axis.  A minor eigenvalue
    that cancels to zero or below at float precision is clamped to zero, so
    an extremely flattened ellipsoid draws as a segment instead of failing.
    """
    K = np.asarray(shape, dtype=float)
    if K.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {K.shape}")
    half_diff = 0.5 * (K[0, 0] - K[1, 1])
    mean = 0.5 * (K[0, 0] + K[1, 1])
    root = math.hypot(half_diff, K[0, 1])
    lam_max, lam_min = mean + root, max(mean - root, 0.0)
    if not lam_max > 0.0:
        raise ValueError("shape matrix has no positive direction")
    angle = 0.5 * math.atan2(2.0 * K[0, 1], K[0, 0] - K[1, 1])
    return math.sqrt(lam_max), math.sqrt(lam_min), angle


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _color(i: int, total: int) -> str:
    # Cold-to-warm grade across the iteration sequence.
    t = i / (total - 1) if total > 1 else 0.0
    r = round(40 + t * (214 - 40))
    g = round(80 + t * (69 - 80))
    b = round(200 + t * (55 - 200))
    return f"#{r:02x}{g:02x}{b:02x}"


def _constraint_line(con, extent: float) -> str:
    a = con.normal
    a0, a1 = a.tolist()
    # np.linalg.norm of a 1-D array is the root of its dot product; the rest
    # is float arithmetic on the two entries.
    norm = math.sqrt(a.dot(a))
    # Closest point of a^T x = b to the origin, then stretch along the line.
    scale = con.bound / (norm * norm)
    px, py = a0 * scale, a1 * scale
    dx, dy = -a1 / norm, a0 / norm
    return (
        f'<line x1="{_fmt(px - extent * dx)}" y1="{_fmt(py - extent * dy)}" '
        f'x2="{_fmt(px + extent * dx)}" y2="{_fmt(py + extent * dy)}" '
        'stroke="#555555" stroke-width="0.6%" stroke-dasharray="2% 1%"/>'
    )


def emit_svg_trace(
    sys: LinearSystem,
    records: Sequence[TraceRecord],
    shapes: Sequence[tuple[np.ndarray, np.ndarray]],
    out,
) -> None:
    """Write one SVG document (bytes) to ``out``.

    ``shapes`` is the ellipsoid sequence as (center, shape-matrix) pairs in
    iteration order; one ``<ellipse>`` element is emitted per entry, colored
    by position in the sequence.  Plotting is only defined for dim == 2.
    """
    if sys.dim != 2:
        raise ValueError(
            f"SVG plotting is limited to 2-D problems (got dim = {sys.dim}); "
            "higher dimensions get trace records only"
        )
    R = sys.radius
    view = 1.15 * R
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{_fmt(-view)} {_fmt(-view)} {_fmt(2 * view)} {_fmt(2 * view)}" '
        f'width="640" height="640">',
        '<g transform="scale(1,-1)">',
        f'<circle cx="0" cy="0" r="{_fmt(R)}" fill="none" '
        'stroke="#999999" stroke-width="0.5%"/>',
    ]
    for con in sys.constraints:
        lines.append(_constraint_line(con, 4.0 * view))
    total = len(shapes)
    for i, (center, shape) in enumerate(shapes):
        major, minor, angle = ellipse_axes(shape)
        cx, cy = float(center[0]), float(center[1])
        deg = math.degrees(angle)
        label = f"ellipsoid {i}"
        # shapes[0] is the initial ball; shapes[i >= 1] came from records[i-1].
        if 1 <= i <= len(records) and records[i - 1].violated_index is not None:
            label += f" (cut on row {records[i - 1].violated_index})"
        lines.append(
            f'<ellipse cx="0" cy="0" rx="{_fmt(major)}" ry="{_fmt(minor)}" '
            f'transform="translate({_fmt(cx)} {_fmt(cy)}) rotate({_fmt(deg)})" '
            f'fill="none" stroke="{_color(i, total)}" stroke-width="0.4%">'
            f"<title>{label}</title></ellipse>"
        )
    lines.append("</g>")
    lines.append("</svg>")
    out.write(("\n".join(lines) + "\n").encode("utf-8"))


__all__ = ["ellipse_axes", "emit_svg_trace"]
