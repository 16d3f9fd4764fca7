"""SVG rendering of sweep states for debugging.

``draw_frames`` renders one frame per step of the generic sweep: the wedge
rays as <line>, each wavefront arc as one <path> (sampled polyline,
metric-agnostic), the circle being processed as a <path>, and the case label
as <text>.  Element order is deterministic: rays (right, left), arcs in
angular order, circle, label.
"""
from __future__ import annotations

import logging
import math
from typing import Sequence

from ._engine import Sweep, prepare
from .geometry import InternalGeometryError

_log = logging.getLogger("frechetsimp")

_ARC_SAMPLES = 24
_CIRCLE_SAMPLES = 64


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def _sample_arc(sw, arc) -> list[tuple[float, float]]:
    pts = [(arc.x0, arc.y0)]
    span = arc.k1 - arc.k0
    if span > 0.0:
        for s in range(1, _ARC_SAMPLES):
            k = arc.k0 + span * s / _ARC_SAMPLES
            a = k + sw.rot
            ux, uy = math.cos(a), math.sin(a)
            ts = sw.kern.ray_hits(sw.ax, sw.ay, ux, uy, arc.cx, arc.cy, sw.delta)
            if ts:
                pts.append((sw.ax + ts[0] * ux, sw.ay + ts[0] * uy))
    pts.append((arc.x1, arc.y1))
    return pts


def _circle_outline(sw, cx: float, cy: float) -> list[tuple[float, float]]:
    d = sw.delta
    if sw.kern.metric.value == "l2":
        return [(cx + d * math.cos(2 * math.pi * s / _CIRCLE_SAMPLES),
                 cy + d * math.sin(2 * math.pi * s / _CIRCLE_SAMPLES))
                for s in range(_CIRCLE_SAMPLES + 1)]
    return [(cx - d, cy - d), (cx + d, cy - d), (cx + d, cy + d),
            (cx - d, cy + d), (cx - d, cy - d)]


def _path(points: Sequence[tuple[float, float]], color: str, width: float) -> str:
    coords = " L ".join(f"{_fmt(x)} {_fmt(y)}" for x, y in points)
    return (f'<path d="M {coords}" fill="none" stroke="{color}" '
            f'stroke-width="{_fmt(width)}" />')


def render_frame(sw, j: int, case: str) -> str:
    """Serialize the sweep state after processing vertex j."""
    cx, cy = float(sw.pts[j][0]), float(sw.pts[j][1])
    xs = [sw.ax, cx - sw.delta, cx + sw.delta]
    ys = [sw.ay, cy - sw.delta, cy + sw.delta]
    for a in sw.arcs:
        xs += [a.x0, a.x1]
        ys += [a.y0, a.y1]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    pad = 0.1 * max(x1 - x0, y1 - y0, sw.delta)
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
    if sw.kr is not None:
        for u in (sw.ur, sw.ul):
            parts.append(
                f'<line x1="{_fmt(sw.ax)}" y1="{_fmt(sw.ay)}" '
                f'x2="{_fmt(sw.ax + ray_len * u[0])}" y2="{_fmt(sw.ay + ray_len * u[1])}" '
                f'stroke="#999999" stroke-width="{_fmt(stroke)}" />')
    for a in sw.arcs:
        parts.append(_path(_sample_arc(sw, a), "#1f6fd0", 2.0 * stroke))
    parts.append(_path(_circle_outline(sw, cx, cy), "#2ca02c", stroke))
    parts.append('</g>')
    parts.append(
        f'<text x="{_fmt(x0 + pad)}" y="{_fmt(-y0 - h + 3 * pad)}" '
        f'font-size="{_fmt(8 * stroke)}">i={sw.i} j={j} case={case}</text>')
    parts.append('</svg>')
    return "\n".join(parts)


def draw_frames(points: Sequence[Sequence[float]], metric, starts, delta: float, sink) -> None:
    """Steps ``_engine.Sweep`` from each start vertex i of ``starts`` and hands
    ``sink(i, j, svg)`` the frame of every step j.  A step that raises
    ``InternalGeometryError`` ends its sweep's frames with one warning that
    names the start vertex, the vertex and the message."""
    work, kern = prepare(points, metric)
    for i in starts:
        sw = Sweep(work, i, delta, kern)
        for j in range(i + 1, len(work)):
            try:
                case = sw._step(j)
            except InternalGeometryError as exc:
                _log.warning("SVG frames of the sweep from vertex %d end at vertex %d: %s",
                             i, j, exc)
                break
            sink(i, j, render_frame(sw, j, case))
            if sw.aborted:
                break


def file_sink(directory):
    """Sink writing frame_{i}_{j}.svg files into ``directory``."""
    import os
    os.makedirs(directory, exist_ok=True)

    def sink(i: int, j: int, svg: str):
        with open(os.path.join(directory, f"frame_{i}_{j}.svg"), "w") as fh:
            fh.write(svg)

    return sink
