"""Independent brute-force oracles used to freeze expected values.

Nothing here shares code with the implementations under test: intervals come
from dense scans, reachability from a discretized dynamic program over the
free space, the valid region from rasterization, and the density constant
from exhaustive smallest enclosing circles.
"""
from __future__ import annotations

import itertools
import math

import numpy as np

from frechetsimp.geometry import Metric


def metric_dist_np(dx: np.ndarray, dy: np.ndarray, metric: Metric) -> np.ndarray:
    if metric is Metric.L2:
        return np.hypot(dx, dy)
    if metric is Metric.L1:
        return np.abs(dx) + np.abs(dy)
    return np.maximum(np.abs(dx), np.abs(dy))


def interval_scan(center, delta, metric, seg_a, seg_b, samples=1_000_000):
    """Dense-scan version of ball_segment_interval (None or approximate bounds)."""
    t = np.linspace(0.0, 1.0, samples)
    x = seg_a[0] + t * (seg_b[0] - seg_a[0]) - center[0]
    y = seg_a[1] + t * (seg_b[1] - seg_a[1]) - center[1]
    ok = metric_dist_np(x, y, metric) <= delta
    idx = np.nonzero(ok)[0]
    if idx.size == 0:
        return None
    return (t[idx[0]], t[idx[-1]])


def dp_reachable(pts, i, k, delta, metric, steps=2000):
    """Discretized free-space DP: can the vertices be matched monotonically?

    Grid the shortcut parameter into ``steps`` samples; a (vertex, sample)
    state is reachable if the vertex is within delta of the sample point and
    some earlier-or-equal sample was reachable for the previous vertex.
    """
    a = np.asarray(pts[i], dtype=float)
    b = np.asarray(pts[k], dtype=float)
    t = np.linspace(0.0, 1.0, steps)
    seg = a[None, :] + t[:, None] * (b - a)[None, :]
    reach = np.ones(steps, dtype=bool)
    for j in range(i + 1, k):
        d = metric_dist_np(seg[:, 0] - pts[j][0], seg[:, 1] - pts[j][1], metric)
        near = d <= delta
        reach = near & np.logical_or.accumulate(reach)
        if not reach.any():
            return False
    return bool(reach.any())


def rasterize_valid_region(pts, i, j, delta, metric, bbox, res=1000):
    """Grid of synthetic-endpoint validity after processing vertices i+1..j.

    Cell (r, c) is True when the segment from p_i to the cell center is a
    valid shortcut for the polyline prefix p_i..p_j followed by that center,
    i.e. the center lies in the valid region of the sweep after step j.
    Computed purely from interval feasibility, vectorized over cells.
    """
    x0, x1, y0, y1 = bbox
    xs = np.linspace(x0, x1, res)
    ys = np.linspace(y0, y1, res)
    CX, CY = np.meshgrid(xs, ys)
    ax, ay = float(pts[i][0]), float(pts[i][1])
    if metric is Metric.L1:
        # work in the Linf-transformed plane (exact for L1)
        CX, CY = CX + CY, CY - CX
        ax, ay = ax + ay, ay - ax
        verts = [(float(p[0]) + float(p[1]), float(p[1]) - float(p[0])) for p in pts]
        work_metric = Metric.LINF
    else:
        work_metric = metric
        verts = [(float(p[0]), float(p[1])) for p in pts]
    vx = CX - ax
    vy = CY - ay
    feas = np.ones(CX.shape, dtype=bool)
    tcur = np.zeros(CX.shape)
    for m in range(i + 1, j + 1):
        px = verts[m][0] - ax
        py = verts[m][1] - ay
        if work_metric is Metric.L2:
            aa = vx * vx + vy * vy
            bb = vx * px + vy * py
            cc = px * px + py * py - delta * delta
            disc = bb * bb - aa * cc
            ok = disc >= 0.0
            root = np.sqrt(np.maximum(disc, 0.0))
            with np.errstate(divide="ignore", invalid="ignore"):
                lo = (bb - root) / aa
                hi = (bb + root) / aa
            zero = aa == 0.0
            lo = np.where(zero, np.where(cc <= 0.0, 0.0, np.inf), lo)
            hi = np.where(zero, np.where(cc <= 0.0, 1.0, -np.inf), hi)
        else:
            lo = np.zeros(CX.shape)
            hi = np.ones(CX.shape)
            ok = np.ones(CX.shape, dtype=bool)
            for p0, v in ((px, vx), (py, vy)):
                with np.errstate(divide="ignore", invalid="ignore"):
                    t1 = (p0 - delta) / v
                    t2 = (p0 + delta) / v
                tl = np.minimum(t1, t2)
                th = np.maximum(t1, t2)
                vz = v == 0.0
                far = np.abs(p0) > delta
                tl = np.where(vz, np.where(far, np.inf, -np.inf), tl)
                th = np.where(vz, np.where(far, -np.inf, np.inf), th)
                lo = np.maximum(lo, tl)
                hi = np.minimum(hi, th)
        lo = np.maximum(lo, 0.0)
        hi = np.minimum(hi, 1.0)
        ok &= lo <= hi
        tcur = np.maximum(tcur, lo)
        feas &= ok & (tcur <= hi)
    return feas


def smallest_enclosing_radius(points, metric=Metric.L2) -> float:
    """Exact smallest enclosing L2 circle radius by trying all pairs/triples."""
    pts = [tuple(map(float, p)) for p in points]
    if len(pts) == 1:
        return 0.0

    def covers(cx, cy, r):
        rr = r * (1 + 1e-12) + 1e-15
        return all(math.hypot(px - cx, py - cy) <= rr for px, py in pts)

    best = math.inf
    for (x1, y1), (x2, y2) in itertools.combinations(pts, 2):
        cx, cy = 0.5 * (x1 + x2), 0.5 * (y1 + y2)
        r = math.hypot(x1 - cx, y1 - cy)
        if r < best and covers(cx, cy, r):
            best = r
    for (x1, y1), (x2, y2), (x3, y3) in itertools.combinations(pts, 3):
        d = 2.0 * (x1 * (y2 - y3) + x2 * (y3 - y1) + x3 * (y1 - y2))
        if abs(d) < 1e-14:
            continue
        ux = ((x1 ** 2 + y1 ** 2) * (y2 - y3) + (x2 ** 2 + y2 ** 2) * (y3 - y1)
              + (x3 ** 2 + y3 ** 2) * (y1 - y2)) / d
        uy = ((x1 ** 2 + y1 ** 2) * (x3 - x2) + (x2 ** 2 + y2 ** 2) * (x1 - x3)
              + (x3 ** 2 + y3 ** 2) * (x2 - x1)) / d
        r = math.hypot(x1 - ux, y1 - uy)
        if r < best and covers(ux, uy, r):
            best = r
    return best


def min_nu_bruteforce(points) -> float:
    """Smallest density constant: max over vertex subsets of k / r_enc(S)^2."""
    pts = [tuple(map(float, p)) for p in points]
    best = 0.0
    for k in range(2, len(pts) + 1):
        for sub in itertools.combinations(pts, k):
            r = smallest_enclosing_radius(sub)
            if r > 0.0:
                best = max(best, k / (r * r))
    return best


def square_wave_path(ax, ay, cx, cy, delta, p_start, p_end):
    """Visible square boundary from p_start to p_end, by side membership.

    Each point gets the set of square sides it lies on (within 1e-7 * delta);
    points sharing a side need no corner, otherwise the walk turns the corner
    facing the apex unless one point already is that corner.
    """
    tol = 1e-7 * delta
    lines = {"W": (0, cx - delta), "E": (0, cx + delta),
             "S": (1, cy - delta), "N": (1, cy + delta)}

    def sides(p):
        return {name for name, (axis, v) in lines.items() if abs(p[axis] - v) <= tol}

    if sides(p_start) & sides(p_end):
        return (p_start, p_end)
    corner = (cx - delta if ax < cx else cx + delta, cy - delta if ay < cy else cy + delta)
    for p in (p_start, p_end):
        if abs(corner[0] - p[0]) <= tol and abs(corner[1] - p[1]) <= tol:
            return (p_start, p_end)
    return (p_start, corner, p_end)
