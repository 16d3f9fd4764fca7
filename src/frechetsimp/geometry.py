"""Planar primitives for unit circles of radius delta under the L1, L2 and Linf norms.

Everything here works on plain float pairs.  A "unit circle" of radius delta is
a Euclidean disk for L2 and an axis-aligned square of side 2*delta for Linf.
L1 is reduced to Linf by the change of coordinates (x, y) -> (x+y, y-x),
under which the L1 ball becomes the Linf ball of the same radius, so the
square kernel serves both.  In floats the change is not exact: x+y and y-x
each round once.  The package's sweeps, ``_disk`` for disks and
``_square`` for squares, need none of the kernels: ``CircleKernel`` and
``SquareKernel`` serve only the reference engine ``_engine``, which the
tests and the benchmark's tracer run.

Coordinates are double precision.  Coincidence decisions use the relative
tolerance EPS_REL; there is no exact arithmetic.  Callers that need clean
combinatorics (test generators) are expected to keep critical distances away
from delta.
"""
from __future__ import annotations

import itertools
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


class InvalidInputError(ValueError):
    pass


Point = tuple[float, float]


def _checked_metric(delta: float, metric) -> Metric:
    """``metric`` as a ``Metric``; InvalidInputError for an unknown metric or a
    delta that is not a positive finite number."""
    if delta <= 0.0 or not math.isfinite(delta):
        raise InvalidInputError("delta must be a positive finite number")
    try:
        return Metric(metric)
    except ValueError:
        raise InvalidInputError(f"unsupported metric {metric!r}") from None


def _finite_vertices(points: Sequence[Sequence[float]], first: int = 0) -> list[Point]:
    """``points`` as (x, y) float pairs; InvalidInputError at a non-finite
    coordinate, naming its vertex by index from ``first``."""
    out = [(float(p[0]), float(p[1])) for p in points]
    for k, (x, y) in enumerate(out, first):
        if not (math.isfinite(x) and math.isfinite(y)):
            raise InvalidInputError(f"non-finite coordinate at vertex {k}")
    return out


def lp_distance(p: Sequence[float], q: Sequence[float], metric: Metric = Metric.L2) -> float:
    """Distance between two points under the given norm (a ``Metric`` or its value)."""
    dx = abs(p[0] - q[0])
    dy = abs(p[1] - q[1])
    if metric is Metric.L2:
        return math.hypot(dx, dy)
    if metric is Metric.L1:
        return dx + dy
    if metric is Metric.LINF:
        return dx if dx > dy else dy
    return lp_distance(p, q, Metric(metric))


def l1_to_linf(points: Sequence[Sequence[float]]) -> list[Point]:
    """Map points by (x, y) -> (x+y, y-x), under which L1 distances become Linf
    distances; x+y and y-x each round once, so the image is exact only where
    neither rounds."""
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
# Metric kernels: the few shape primitives the generic engine needs, one
# namespace per unit-circle shape.  All take unpacked floats; hot paths avoid
# tuples where cheap to do so.  ``tangent_points`` returning None is the one
# test of "the apex lies in C_j".  The sweeps ``simplify.sweep_rows`` runs
# (``_disk`` and ``_square``) need none of these: the kernels serve the
# reference engine, which only the tests and the benchmark's tracer run.
# ---------------------------------------------------------------------------

_COINCIDENT = "coincident"


class CircleKernel:
    """Euclidean disks of radius delta."""

    metric = Metric.L2

    # unused by the sweep; kept since perfbench/tracing.py counts every primitive
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
        """Points where the tangents from the apex touch, or None if dd <= delta^2
        (the apex inside; both oracles compare these squares)."""
        ox = cx - ax
        oy = cy - ay
        dd = ox * ox + oy * oy
        rr = delta * delta
        if dd <= rr:
            return None
        ll = dd - rr
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

    # unused by the sweep; kept since perfbench/tracing.py counts every primitive
    @staticmethod
    def wave_path(ax: float, ay: float, cx: float, cy: float, delta: float,
                  p_start: Point, p_end: Point) -> tuple[Point, ...]:
        """Polyline-ish description of the bottom arc piece (endpoints only for circles)."""
        return (p_start, p_end)

    @staticmethod
    def graze_fallback(ax: float, ay: float, ux: float, uy: float,
                       cx: float, cy: float, delta: float) -> float:
        """Touch parameter for a ray that should graze the circle but missed numerically."""
        return ux * (cx - ax) + uy * (cy - ay)


class SquareKernel:
    """Axis-aligned squares of half-side delta (the Linf ball; L1 via coordinate change)."""

    metric = Metric.LINF

    # unused by the sweep; kept since perfbench/tracing.py counts every primitive
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
        # x slab, then y slab (a near-zero direction component skips its slab);
        # abs() is spelled out as two comparisons, which is cheaper here
        if -1e-300 < ux < 1e-300:
            d = ax - cx
            if d > delta + tol or -d > delta + tol:
                return ()
            lo = -math.inf
            hi = math.inf
        else:
            lo = (cx - delta - ax) / ux
            hi = (cx + delta - ax) / ux
            if lo > hi:
                lo, hi = hi, lo
        if -1e-300 < uy < 1e-300:
            d = ay - cy
            if d > delta + tol or -d > delta + tol:
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
        """Corners whose angular extremes seen from the apex are the tangent corners.

        Seen from an apex clearly inside one of the eight regions around the
        square, two corners bound its silhouette: the two near corners from a
        side region, the two off-diagonal corners from a corner region.  Only
        those two are returned.  "Clearly" means farther than
        m = s * (1e-7 + 1e-12 * s / delta), s = |dx| + |dy|, from each side
        line, which keeps the angle between a silhouette corner and the corner
        it hides at least 2e-12 and 2e-7 * delta / s, far above the rounding
        of the angles computed from them.  Closer to a side line, where two
        corners line up with the apex, all four corners are returned.
        """
        dx = ax - cx
        dy = ay - cy
        adx = dx if dx >= 0.0 else -dx
        ady = dy if dy >= 0.0 else -dy
        if (adx if adx > ady else ady) <= delta:
            return None
        s = adx + ady
        m = s * (1e-7 + 1e-12 * s / delta)
        if adx > delta + m:
            if ady > delta + m:
                if (dx > 0.0) is (dy > 0.0):
                    return ((cx - delta, cy + delta), (cx + delta, cy - delta))
                return ((cx - delta, cy - delta), (cx + delta, cy + delta))
            if ady < delta - m:
                x = cx + delta if dx > 0.0 else cx - delta
                return ((x, cy - delta), (x, cy + delta))
        elif ady > delta + m and adx < delta - m:
            y = cy + delta if dy > 0.0 else cy - delta
            return ((cx - delta, y), (cx + delta, y))
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
        # the overlap box of the two squares
        xlo = (c1x if c1x >= c2x else c2x) - delta
        xhi = (c1x if c1x <= c2x else c2x) + delta
        ylo = (c1y if c1y >= c2y else c2y) - delta
        yhi = (c1y if c1y <= c2y else c2y) + delta
        if xlo > xhi + tol or ylo > yhi + tol:
            return ()
        if not (xtie or ytie):
            # the crossings are the two box corners whose x and y bounds come
            # from different squares
            if (c1x >= c2x) == (c1y >= c2y):
                p, q = (xlo, yhi), (xhi, ylo)
            else:
                p, q = (xlo, ylo), (xhi, yhi)
            if abs(q[0] - p[0]) <= tol and abs(q[1] - p[1]) <= tol:
                return (p,)
            return (p, q)
        # tied centres share an edge line: every distinct box corner is on
        # both boundaries, and the two farthest apart bound the shared segment
        out: list[Point] = []
        for p in ((xlo, ylo), (xlo, yhi), (xhi, ylo), (xhi, yhi)):
            if not any(abs(p[0] - q[0]) <= tol and abs(p[1] - q[1]) <= tol for q in out):
                out.append(p)
        if len(out) > 2:
            out = max(itertools.combinations(out, 2),
                      key=lambda pq: abs(pq[0][0] - pq[1][0]) + abs(pq[0][1] - pq[1][1]))
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

    # unused by the sweep; kept since perfbench/tracing.py counts every primitive
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
