"""SVG rendering of sweep states for debugging.

``draw_frames`` runs the sweep ``simplify`` runs (``simplify.sweep_rows``)
and renders one frame per step from that sweep's own state.  A disk frame
(L2) holds the wedge rays as <line>, each wavefront arc as one <path>
sampled about its centre, the circle being processed as a <path> and the
case label as <text>.  A square frame (L-inf, and L1 in its L-inf image)
holds each live cone's two rays as <line>, the faces each cone's wavefront
shows as one <path> per cone, the square being processed and the label.
Element order is deterministic: rays (right, left; cone by cone), wavefront
paths in the sweep's order, shape, label.
"""
from __future__ import annotations

import math
from typing import Sequence

from .geometry import Metric
from .simplify import sweep_rows

_ARC_SAMPLES = 24
_CIRCLE_SAMPLES = 64


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def _path(points: Sequence[tuple[float, float]], color: str, width: float) -> str:
    coords = " L ".join(f"{_fmt(x)} {_fmt(y)}" for x, y in points)
    return (f'<path d="M {coords}" fill="none" stroke="{color}" '
            f'stroke-width="{_fmt(width)}" />')


def _sample_arc(ax, ay, a, delta) -> list[tuple[float, float]]:
    """Arc a of ``_disk`` (apex-relative) as a polyline, clockwise about its centre."""
    x0, y0, x1, y1, cx, cy = a
    t0 = math.atan2(y0 - cy, x0 - cx)
    span = (t0 - math.atan2(y1 - cy, x1 - cx)) % (2.0 * math.pi)
    if span > math.pi:          # a near arc spans less than pi: a point-like arc
        span = 0.0
    pts = [(ax + x0, ay + y0)]
    if span > 0.0:
        for s in range(1, _ARC_SAMPLES):
            t = t0 - span * s / _ARC_SAMPLES
            pts.append((ax + cx + delta * math.cos(t), ay + cy + delta * math.sin(t)))
    pts.append((ax + x1, ay + y1))
    return pts


def _cone_front(ax, ay, faces, cone) -> list[tuple[float, float]]:
    """The wavefront of one ``_square`` cone: where its rays and its corner
    meet the near faces, mirrored back into the cone's quadrant."""
    xp, xm, yp, ym = faces
    q, rx, ry, lx, ly = cone
    sx = -1.0 if q & 1 else 1.0
    sy = -1.0 if q & 2 else 1.0
    xn = -xm if q & 1 else xp
    yn = -ym if q & 2 else yp

    def entry(ux, uy):
        t = 0.0
        for near, u in ((xn, ux), (yn, uy)):
            if near > 0.0:
                t = max(t, near / u if u > 0.0 else math.inf)
        return t * ux, t * uy

    chain = [entry(rx, ry)]
    if xn > 0.0 and yn > 0.0 and rx * yn > ry * xn and xn * ly > yn * lx:
        chain.append((xn, yn))
    chain.append(entry(lx, ly))
    return [(ax + sx * x, ay + sy * y) for x, y in chain
            if math.isfinite(x) and math.isfinite(y)]


def _svg(i, j, case, delta, apex, centre, rays, fronts, outline) -> str:
    """One frame: ``rays`` are unit directions from ``apex``, ``fronts`` the
    wavefront polylines and ``outline`` the shape of vertex j."""
    ax, ay = apex
    cx, cy = centre
    xs = [ax, cx - delta, cx + delta]
    ys = [ay, cy - delta, cy + delta]
    for front in fronts:
        xs += [p[0] for p in front]
        ys += [p[1] for p in front]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    pad = 0.1 * max(x1 - x0, y1 - y0, delta)
    x0 -= pad
    y0 -= pad
    w = (x1 - x0) + 2 * pad
    h = (y1 - y0) + 2 * pad
    stroke = max(w, h) / 400.0
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{_fmt(x0)} {_fmt(-y0 - h)} '
        f'{_fmt(w)} {_fmt(h)}">',
        '<g transform="scale(1,-1)">',
    ]
    ray_len = 2.0 * max(w, h)
    for ux, uy in rays:
        parts.append(
            f'<line x1="{_fmt(ax)}" y1="{_fmt(ay)}" '
            f'x2="{_fmt(ax + ray_len * ux)}" y2="{_fmt(ay + ray_len * uy)}" '
            f'stroke="#999999" stroke-width="{_fmt(stroke)}" />')
    for front in fronts:
        parts.append(_path(front, "#1f6fd0", 2.0 * stroke))
    parts.append(_path(outline, "#2ca02c", stroke))
    parts.append('</g>')
    parts.append(
        f'<text x="{_fmt(x0 + pad)}" y="{_fmt(-y0 - h + 3 * pad)}" '
        f'font-size="{_fmt(8 * stroke)}">i={i} j={j} case={case}</text>')
    parts.append('</svg>')
    return "\n".join(parts)


def _unit(x, y):
    d = math.hypot(x, y)
    return x / d, y / d


def _disk_frame(X, Y, i, j, delta, case, arcs, wedge) -> str:
    ax, ay = X[i], Y[i]
    cx, cy = X[j], Y[j]
    rx, ry, lx, ly = wedge
    rays = [_unit(rx, ry), _unit(lx, ly)] if arcs else []
    circle = [(cx + delta * math.cos(2 * math.pi * s / _CIRCLE_SAMPLES),
               cy + delta * math.sin(2 * math.pi * s / _CIRCLE_SAMPLES))
              for s in range(_CIRCLE_SAMPLES + 1)]
    return _svg(i, j, case, delta, (ax, ay), (cx, cy), rays,
                [_sample_arc(ax, ay, a, delta) for a in arcs], circle)


def _square_frame(X, Y, i, j, delta, case, faces, cones) -> str:
    ax, ay = X[i], Y[i]
    cx, cy = X[j], Y[j]
    rays = []
    fronts = []
    for c in cones or ():
        q, rx, ry, lx, ly = c
        sx = -1.0 if q & 1 else 1.0
        sy = -1.0 if q & 2 else 1.0
        rays += [_unit(sx * rx, sy * ry), _unit(sx * lx, sy * ly)]
        front = _cone_front(ax, ay, faces, c)
        if len(front) > 1:
            fronts.append(front)
    d = delta
    square = [(cx - d, cy - d), (cx + d, cy - d), (cx + d, cy + d),
              (cx - d, cy + d), (cx - d, cy - d)]
    return _svg(i, j, case, delta, (ax, ay), (cx, cy), rays, fronts, square)


def draw_frames(points: Sequence[Sequence[float]], metric, starts, delta: float, sink) -> None:
    """Runs, from each start vertex i of ``starts``, the sweep ``simplify``
    runs, and hands ``sink(i, j, svg)`` the frame of every step j, drawn in
    the sweep's working coordinates."""
    frame = _disk_frame if Metric(metric) is Metric.L2 else _square_frame

    def watch(X, Y, i, delta):
        return lambda j, case, *state: sink(i, j, frame(X, Y, i, j, delta, case, *state))

    for _ in sweep_rows(points, metric, starts, delta, watch=watch):
        pass


def file_sink(directory):
    """Sink writing frame_{i}_{j}.svg files into ``directory``."""
    import os
    os.makedirs(directory, exist_ok=True)

    def sink(i: int, j: int, svg: str):
        with open(os.path.join(directory, f"frame_{i}_{j}.svg"), "w") as fh:
            fh.write(svg)

    return sink
