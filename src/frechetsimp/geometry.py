"""Planar primitives for unit circles of radius delta under the L1, L2 and Linf norms.

Everything here works on plain float pairs.  A "unit circle" of radius delta is
a Euclidean disk for L2 and an axis-aligned square of side 2*delta for Linf.
L1 is reduced to Linf by the exact change of coordinates (x, y) -> (x+y, y-x),
under which the L1 ball becomes the Linf ball of the same radius; only one
square code path exists.

Coordinates are double precision.  Coincidence decisions use the relative
tolerance EPS_REL; there is no exact arithmetic.  Callers that need clean
combinatorics (test generators) are expected to keep critical distances away
from delta.
"""
from __future__ import annotations

import math
from enum import Enum
from typing import Optional, Sequence

EPS_REL = 1e-9      # relative tolerance for coincidence tests
EPS_ANGLE = 1e-12   # closed-wedge slack in radians

_TAU = 2.0 * math.pi


class Metric(str, Enum):
    L1 = "l1"
    L2 = "l2"
    LINF = "linf"


class InternalGeometryError(AssertionError):
    """A structural invariant that should be unreachable was violated."""


Point = tuple[float, float]


def lp_distance(p: Sequence[float], q: Sequence[float], metric: Metric = Metric.L2) -> float:
    """Distance between two points under the given norm."""
    dx = abs(p[0] - q[0])
    dy = abs(p[1] - q[1])
    if metric is Metric.L2:
        return math.hypot(dx, dy)
    if metric is Metric.L1:
        return dx + dy
    return dx if dx > dy else dy


def l1_to_linf(points: Sequence[Sequence[float]]) -> list[Point]:
    """Map points so that L1 distances between them equal Linf distances between the images."""
    return [(p[0] + p[1], p[1] - p[0]) for p in points]


def _wrap_angle(a: float) -> float:
    """Wrap to (-pi, pi]."""
    a = math.fmod(a, _TAU)
    if a <= -math.pi:
        a += _TAU
    elif a > math.pi:
        a -= _TAU
    return a


# ---------------------------------------------------------------------------
# Metric kernels: the few shape primitives the sweep needs, one namespace per
# unit-circle shape.  All take unpacked floats; hot paths avoid tuples where
# cheap to do so.
# ---------------------------------------------------------------------------

_COINCIDENT = "coincident"


class CircleKernel:
    """Euclidean disks of radius delta."""

    metric = Metric.L2

    @staticmethod
    def distance(ax: float, ay: float, bx: float, by: float) -> float:
        return math.hypot(bx - ax, by - ay)

    @staticmethod
    def contains(cx: float, cy: float, px: float, py: float, delta: float, slack: float) -> bool:
        return math.hypot(px - cx, py - cy) <= delta * (1.0 + slack)

    @staticmethod
    def ray_hits(ax: float, ay: float, ux: float, uy: float,
                 cx: float, cy: float, delta: float) -> tuple[float, ...]:
        """Intersection parameters t>=0 of ray apex+t*u with the circle boundary.

        Returns () for a miss, (t_exit,) when the apex is inside, and
        (t_near, t_far) otherwise; a grazing ray yields t_near == t_far.
        """
        ox = cx - ax
        oy = cy - ay
        m = ux * ox + uy * oy
        dd = ox * ox + oy * oy
        rr = delta * delta
        if dd <= rr:
            # apex inside or on the boundary: single exit point
            disc = m * m - dd + rr
            if disc < 0.0:
                disc = 0.0
            return (m + math.sqrt(disc),)
        disc = m * m - dd + rr
        if disc < 0.0:
            if disc >= -1e-12 * (dd + rr) and m > 0.0:
                return (m, m)  # numerically grazing tangent
            return ()
        root = math.sqrt(disc)
        t1 = m - root
        t2 = m + root
        if t2 < 0.0:
            return ()
        if t1 < 0.0:
            return (t2,)
        return (t1, t2)

    @staticmethod
    def tangent_points(ax: float, ay: float, cx: float, cy: float,
                       delta: float) -> Optional[tuple[Point, ...]]:
        """Boundary points where the tangents from the apex touch, or None if apex inside."""
        ox = cx - ax
        oy = cy - ay
        dd = ox * ox + oy * oy
        d = math.sqrt(dd)
        if d <= delta:
            return None
        ll = dd - delta * delta
        if ll < 0.0:
            ll = 0.0
        tlen = math.sqrt(ll)           # tangent length
        c = ll / dd                    # cos(beta) * tlen / d  folded below
        s = tlen * delta / dd          # sin(beta) scaled
        # rotate (ox, oy) by +-beta and scale to tangent length
        p1 = (ax + c * ox - s * oy, ay + s * ox + c * oy)
        p2 = (ax + c * ox + s * oy, ay - s * ox + c * oy)
        return (p1, p2)

    @staticmethod
    def boundary_intersections(c1x: float, c1y: float, c2x: float, c2y: float,
                               delta: float):
        """Boundary-boundary intersection points of two radius-delta circles.

        Returns a tuple of 0-2 points, or the string marker "coincident" when
        the centers coincide within tolerance.
        """
        dx = c2x - c1x
        dy = c2y - c1y
        dd = dx * dx + dy * dy
        if dd <= (EPS_REL * delta) ** 2:
            return _COINCIDENT
        d = math.sqrt(dd)
        if d > 2.0 * delta:
            if d <= 2.0 * delta * (1.0 + EPS_REL):
                return ((c1x + 0.5 * dx, c1y + 0.5 * dy),)
            return ()
        hh = delta * delta - 0.25 * dd
        if hh <= 0.0:
            return ((c1x + 0.5 * dx, c1y + 0.5 * dy),)
        h = math.sqrt(hh) / d
        mx = c1x + 0.5 * dx
        my = c1y + 0.5 * dy
        return ((mx - h * dy, my + h * dx), (mx + h * dy, my - h * dx))

    @staticmethod
    def on_near_side(ax: float, ay: float, cx: float, cy: float,
                     px: float, py: float, delta: float) -> bool:
        """True if boundary point p lies on the bottom arc of the circle as seen from the apex."""
        return (px - ax) * (px - cx) + (py - ay) * (py - cy) <= EPS_REL * delta * delta

    @staticmethod
    def wave_path(ax: float, ay: float, cx: float, cy: float, delta: float,
                  p_start: Point, p_end: Point) -> tuple[Point, ...]:
        """Polyline-ish description of the bottom arc piece (endpoints only for circles)."""
        return (p_start, p_end)

    @staticmethod
    def arc_segments(ax: float, ay: float, cx: float, cy: float, delta: float,
                     x0: float, y0: float, x1: float, y1: float) -> int:
        """Segment count of a bottom-arc piece: a circular arc counts as one."""
        return 1

    @staticmethod
    def graze_fallback(ax: float, ay: float, ux: float, uy: float,
                       cx: float, cy: float, delta: float) -> float:
        """Touch parameter for a ray that should graze the circle but missed numerically."""
        return ux * (cx - ax) + uy * (cy - ay)


class SquareKernel:
    """Axis-aligned squares of half-side delta (the Linf ball; L1 via coordinate change)."""

    metric = Metric.LINF

    @staticmethod
    def distance(ax: float, ay: float, bx: float, by: float) -> float:
        dx = abs(bx - ax)
        dy = abs(by - ay)
        return dx if dx > dy else dy

    @staticmethod
    def contains(cx: float, cy: float, px: float, py: float, delta: float, slack: float) -> bool:
        lim = delta * (1.0 + slack)
        return abs(px - cx) <= lim and abs(py - cy) <= lim

    @staticmethod
    def ray_hits(ax: float, ay: float, ux: float, uy: float,
                 cx: float, cy: float, delta: float) -> tuple[float, ...]:
        """Slab intersection of the ray apex+t*u with the square; see CircleKernel."""
        tol = EPS_REL * delta
        lo = -math.inf
        hi = math.inf
        # x slab, then y slab (a near-zero direction component skips its slab)
        if abs(ux) < 1e-300:
            if abs(ax - cx) > delta + tol:
                return ()
        else:
            t1 = (cx - delta - ax) / ux
            t2 = (cx + delta - ax) / ux
            if t1 > t2:
                t1, t2 = t2, t1
            if t1 > lo:
                lo = t1
            if t2 < hi:
                hi = t2
        if abs(uy) < 1e-300:
            if abs(ay - cy) > delta + tol:
                return ()
        else:
            t1 = (cy - delta - ay) / uy
            t2 = (cy + delta - ay) / uy
            if t1 > t2:
                t1, t2 = t2, t1
            if t1 > lo:
                lo = t1
            if t2 < hi:
                hi = t2
        if lo > hi:
            if lo - hi <= tol / max(abs(ux), abs(uy)):
                lo = hi = 0.5 * (lo + hi)  # corner graze
            else:
                return ()
        if hi < 0.0:
            return ()
        if lo < 0.0:
            return (hi,)
        return (lo, hi)

    @staticmethod
    def tangent_points(ax: float, ay: float, cx: float, cy: float,
                       delta: float) -> Optional[tuple[Point, ...]]:
        """The four corners; the angular extremes among them are the tangent corners."""
        dx = abs(cx - ax)
        dy = abs(cy - ay)
        if max(dx, dy) <= delta:
            return None
        return (
            (cx - delta, cy - delta),
            (cx - delta, cy + delta),
            (cx + delta, cy - delta),
            (cx + delta, cy + delta),
        )

    @staticmethod
    def boundary_intersections(c1x: float, c1y: float, c2x: float, c2y: float,
                               delta: float):
        tol = EPS_REL * delta
        xtie = abs(c2x - c1x) <= tol
        ytie = abs(c2y - c1y) <= tol
        if xtie and ytie:
            return _COINCIDENT
        xlo, plo_x = (c1x - delta, 1) if c1x >= c2x else (c2x - delta, 2)
        xhi, phi_x = (c1x + delta, 1) if c1x <= c2x else (c2x + delta, 2)
        ylo, plo_y = (c1y - delta, 1) if c1y >= c2y else (c2y - delta, 2)
        yhi, phi_y = (c1y + delta, 1) if c1y <= c2y else (c2y + delta, 2)
        if xlo > xhi + tol or ylo > yhi + tol:
            return ()
        if not (xtie or ytie):
            # each bound of the overlap box comes from one square; the
            # crossings are the two box corners whose x and y bounds come
            # from different squares (the general rule below, unrolled)
            if plo_x == plo_y:
                p, q = (xlo, yhi), (xhi, ylo)
            else:
                p, q = (xlo, ylo), (xhi, yhi)
            if abs(q[0] - p[0]) <= tol and abs(q[1] - p[1]) <= tol:
                return (p,)
            return (p, q)
        pts = []
        for x, px in ((xlo, plo_x), (xhi, phi_x)):
            for y, py in ((ylo, plo_y), (yhi, phi_y)):
                on1 = px == 1 or py == 1 or xtie or ytie
                on2 = px == 2 or py == 2 or xtie or ytie
                mixed = (px != py) or xtie or ytie
                if on1 and on2 and mixed:
                    pts.append((x, y))
        # dedupe
        out: list[Point] = []
        for p in pts:
            if not any(abs(p[0] - q[0]) <= tol and abs(p[1] - q[1]) <= tol for q in out):
                out.append(p)
        if len(out) > 2:
            # shared-edge overlap: keep the two extreme points of the shared segment
            best = None
            pair = None
            for i in range(len(out)):
                for j in range(i + 1, len(out)):
                    d = abs(out[i][0] - out[j][0]) + abs(out[i][1] - out[j][1])
                    if best is None or d > best:
                        best = d
                        pair = (out[i], out[j])
            out = list(pair)
        return tuple(out)

    @staticmethod
    def on_near_side(ax: float, ay: float, cx: float, cy: float,
                     px: float, py: float, delta: float) -> bool:
        dx = px - ax
        dy = py - ay
        dist = math.hypot(dx, dy)
        if dist <= EPS_REL * delta:
            return False
        hits = SquareKernel.ray_hits(ax, ay, dx / dist, dy / dist, cx, cy, delta)
        if not hits:
            return False
        return abs(hits[0] - dist) <= 1e-6 * (delta + dist)

    @staticmethod
    def wave_path(ax: float, ay: float, cx: float, cy: float, delta: float,
                  p_start: Point, p_end: Point) -> tuple[Point, ...]:
        """Walk the visible boundary from p_start to p_end (at most one corner between)."""
        if SquareKernel.arc_segments(ax, ay, cx, cy, delta,
                                     p_start[0], p_start[1], p_end[0], p_end[1]) == 1:
            return (p_start, p_end)
        corner = (cx - delta if ax < cx else cx + delta,
                  cy - delta if ay < cy else cy + delta)
        return (p_start, corner, p_end)

    @staticmethod
    def arc_segments(ax: float, ay: float, cx: float, cy: float, delta: float,
                     x0: float, y0: float, x1: float, y1: float) -> int:
        """Segments of the visible boundary between (x0, y0) and (x1, y1): 1 or 2.

        One when both points lie on a common side of the square, or when one
        of them is the corner facing the apex; two when the walk turns that
        corner.  Points match a side or the corner within 1e-7 * delta.
        """
        tol = 1e-7 * delta
        west = cx - delta
        east = cx + delta
        south = cy - delta
        north = cy + delta
        if ((abs(x0 - west) <= tol and abs(x1 - west) <= tol)
                or (abs(x0 - east) <= tol and abs(x1 - east) <= tol)
                or (abs(y0 - south) <= tol and abs(y1 - south) <= tol)
                or (abs(y0 - north) <= tol and abs(y1 - north) <= tol)):
            return 1
        kx = west if ax < cx else east
        ky = south if ay < cy else north
        if ((abs(kx - x0) <= tol and abs(ky - y0) <= tol)
                or (abs(kx - x1) <= tol and abs(ky - y1) <= tol)):
            return 1
        return 2

    @staticmethod
    def graze_fallback(ax: float, ay: float, ux: float, uy: float,
                       cx: float, cy: float, delta: float) -> float:
        """Touch parameter for a ray grazing the square: project the nearest corner."""
        best_t = 0.0
        best_err = math.inf
        for sx in (-delta, delta):
            for sy in (-delta, delta):
                wx = cx + sx - ax
                wy = cy + sy - ay
                err = abs(ux * wy - uy * wx)
                if err < best_err:
                    best_err = err
                    best_t = ux * wx + uy * wy
        return best_t
