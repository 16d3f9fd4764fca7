"""Structural invariant checks of the sweeps ``simplify`` runs.

``verify --strict`` hands every sweep one of these checkers as its
per-step observer (``simplify.sweep_rows``'s ``watch``), so they read its own
state and raise ``InternalGeometryError`` on the first violation.  The
disk sweep (``_disk``, L2) is checked for:

  * a new circle meets the wavefront at most twice, and the crossings lie
    on the side the step case says (the circle's near side for MM, its far
    side for TT), checked against a copy of the wavefront before the step;
  * the arcs tile the wedge span with no gap and no inverted arc, and each
    of ``RAY_SAMPLES`` rays sampled across the wedge crosses the wavefront
    exactly once;
  * the wavefront only recedes from the apex on ``MONOTONE_SAMPLES``
    persistent rays;
  * every arc end lies inside every contributing disk;
  * the arc order is reverse to the pseudo-angle order of the centres;
  * the arc count never exceeds n - 1.

The square sweep (``_square``, L-inf and L1) is checked for:

  * X+ and Y+ never fall, and X- and Y- never rise;
  * each live cone is closed, lies in its quadrant and has r before l;
  * ``RAY_SAMPLES`` directions sampled across the live cones each find a
    nonempty interval of the new square's matching;
  * the sampled directions show at most two faces of the wavefront.

The checkers are O(wavefront size) or worse per step; attach them to small
instances only.
"""
from __future__ import annotations

import math

from ._disk import _crossings, _pseudo
from .geometry import EPS_REL, InternalGeometryError

RAY_SAMPLES = 360         # rays sampled across the wedge after every step
MONOTONE_SAMPLES = 64     # persistent rays that watch the wavefront recede
_ABORTS = ("WEDGE_EMPTY", "TT_EMPTY")
_EK = 1e-7                # radians: tiling and order slack, as in the engine


def _spans(arcs):
    """Per arc: its end points with 1e-9 of their lengths, centre and |centre|^2."""
    return [(x0, y0, 1e-9 * math.hypot(x0, y0), x1, y1, 1e-9 * math.hypot(x1, y1),
             cx, cy, cx * cx + cy * cy) for x0, y0, x1, y1, cx, cy in arcs]


def _ray_cross(spans, ux, uy, rr):
    """Distances from the apex along unit direction u to every arc (of
    ``_spans``) that covers u."""
    dists = []
    for x0, y0, s0, x1, y1, s1, cx, cy, dd in spans:
        if x0 * uy - y0 * ux < -s0 or ux * y1 - uy * x1 < -s1:
            continue
        m = ux * cx + uy * cy
        disc = m * m - dd + rr
        if disc < 0.0:
            if disc < -1e-12 * (dd + rr) or m <= 0.0:
                raise InternalGeometryError("sampled ray misses a covering arc")
            disc = 0.0
        dists.append(m - math.sqrt(disc))
    return dists


def _on_ray(ux, uy, px, py):
    """Point p lies on the ray of direction u, to within ``_EK`` radians."""
    return (abs(ux * py - uy * px) <= _EK * math.hypot(ux, uy) * math.hypot(px, py)
            and ux * px + uy * py >= 0.0)


class DiskChecker:
    """Observer of one ``_disk`` sweep (``_disk._scalar``'s ``watch``)."""

    def __init__(self, X, Y, i, delta):
        self.X = X
        self.Y = Y
        self.ax = X[i]
        self.ay = Y[i]
        self.n = len(X)
        self.delta = delta
        self.rr = delta * delta
        self.first = None         # the first disk's centre, which orders the others
        self.prev = []            # the wavefront before the step
        self.fan = None           # persistent rays: [ux, uy, previous distance or None]

    def __call__(self, j, case, arcs, wedge):
        x = self.X[j] - self.ax
        y = self.Y[j] - self.ay
        if case == "INIT":
            self.first = (x, y)
        elif self.prev and case != "WEDGE_EMPTY":
            self._crossings(j, x, y, case)
        if case in _ABORTS:
            return
        if arcs:
            self._structure(arcs, wedge)
            self._rays(arcs, wedge)
        self.prev = [a[:] for a in arcs]

    def _crossings(self, j, x, y, case):
        """C_j's crossings with the wavefront before the step."""
        delta = self.delta
        found = []
        for a in self.prev:
            crs = _crossings(a, x, y, self.rr)
            if crs:             # None: C_j coincides with the arc's circle
                found.extend(crs)
        # a junction of two arcs is found on both; count it once
        uniq = []
        for p in sorted(found, key=lambda p: math.atan2(p[1], p[0])):
            if uniq and math.hypot(p[0] - uniq[-1][0], p[1] - uniq[-1][1]) <= 1e-6 * delta:
                continue
            uniq.append(p)
        if len(uniq) > 2:
            raise InternalGeometryError(
                f"circle of vertex {j} meets the wavefront {len(uniq)} times (max 2)")
        # a crossing at an end of the wavefront lies on a wedge ray, where the
        # ray's letter already settled the tie: only inner ones have a side
        ends = ((self.prev[0][0], self.prev[0][1]), (self.prev[-1][2], self.prev[-1][3]))
        inner = [p for p in uniq
                 if all(math.hypot(p[0] - ex, p[1] - ey) > 1e-6 * delta for ex, ey in ends)]
        if len(inner) == 2 and x * x + y * y > self.rr:
            near = [px * (px - x) + py * (py - y) <= EPS_REL * self.rr for px, py in inner]
            if case == "MM" and not all(near):
                raise InternalGeometryError("MM crossings must lie on the new bottom arc")
            if case in ("TT", "TT_EMPTY") and any(near):
                raise InternalGeometryError("TT crossings must lie on the new top arc")

    def _structure(self, arcs, wedge):
        """Arc count, tiling, centre order and containment of the wavefront."""
        if len(arcs) > self.n - 1:
            raise InternalGeometryError(
                f"wavefront holds {len(arcs)} arcs, above the n-1 = {self.n - 1} bound")
        rx, ry, lx, ly = wedge
        if not (_on_ray(rx, ry, arcs[0][0], arcs[0][1])
                and _on_ray(lx, ly, arcs[-1][2], arcs[-1][3])):
            raise InternalGeometryError("wavefront does not span the wedge")
        fx, fy = self.first
        key = None              # pseudo-angle of the last centre whose arc has a span
        for t, a in enumerate(arcs):
            span = a[0] * a[3] - a[1] * a[2]
            size = _EK * math.hypot(a[0], a[1]) * math.hypot(a[2], a[3])
            if span < -size:
                raise InternalGeometryError("arc with inverted angular span")
            if t + 1 < len(arcs) and not _on_ray(a[2], a[3], arcs[t + 1][0], arcs[t + 1][1]):
                raise InternalGeometryError("gap or overlap between adjacent arcs")
            # a point-like arc lies on every circle through it, so has no place
            if span > size:
                k = _pseudo(fx, fy, a[4], a[5])
                if key is not None and key < k - 1e-9:
                    raise InternalGeometryError("arc order is not reverse to the center order")
                key = k
        # every contributing disk holds the whole wavefront
        reach = (self.delta * (1.0 + 1e-9)) ** 2
        for cx, cy in {(a[4], a[5]) for a in arcs}:
            for a in arcs:
                if ((a[0] - cx) ** 2 + (a[1] - cy) ** 2 > reach
                        or (a[2] - cx) ** 2 + (a[3] - cy) ** 2 > reach):
                    raise InternalGeometryError("wavefront leaves a contributing circle")

    def _rays(self, arcs, wedge):
        """Sampled rays cross the wavefront once; persistent rays see it recede."""
        rx, ry, lx, ly = wedge
        kr = math.atan2(ry, rx)
        width = math.atan2(rx * ly - ry * lx, rx * lx + ry * ly)
        rr, delta = self.rr, self.delta
        spans = _spans(arcs)
        if width > 0.0:
            for s in range(RAY_SAMPLES):
                k = kr + width * (s + 0.5) / RAY_SAMPLES
                dists = _ray_cross(spans, math.cos(k), math.sin(k), rr)
                if not dists:
                    raise InternalGeometryError("sampled ray crosses no arc")
                if max(dists) - min(dists) > 1e-6 * (delta + max(dists)):
                    raise InternalGeometryError("sampled ray crosses the wavefront more than once")
        if self.fan is None:
            self.fan = [[math.cos(k), math.sin(k), None] for k in
                        (kr + width * (s + 0.5) / MONOTONE_SAMPLES
                         for s in range(MONOTONE_SAMPLES))]
        nr = math.hypot(rx, ry)
        nl = math.hypot(lx, ly)
        for entry in self.fan:
            ux, uy, prev = entry
            if rx * uy - ry * ux < -1e-12 * nr or ux * ly - uy * lx < -1e-12 * nl:
                entry[2] = None      # left the wedge; no longer comparable
                continue
            dists = _ray_cross(spans, ux, uy, rr)
            if not dists:
                continue
            d = min(dists)
            if prev is not None and d < prev - 1e-6 * (delta + d):
                raise InternalGeometryError("wavefront moved toward the apex on a persistent ray")
            entry[2] = d


class SquareChecker:
    """Observer of one ``_square`` sweep (``_square._scalar``'s ``watch``)."""

    def __init__(self, X, Y, i, delta):
        self.X = X
        self.Y = Y
        self.ax = X[i]
        self.ay = Y[i]
        self.delta = delta
        self.prev = None          # the face extremes before the step

    def __call__(self, j, case, faces, cones):
        xp, xm, yp, ym = faces
        if self.prev is not None:
            pxp, pxm, pyp, pym = self.prev
            if xp < pxp or yp < pyp:
                raise InternalGeometryError("a near face X+ or Y+ fell")
            if xm > pxm or ym > pym:
                raise InternalGeometryError("a near face X- or Y- rose")
        self.prev = faces
        if not cones:
            return
        d = self.delta
        x = self.X[j] - self.ax
        y = self.Y[j] - self.ay
        m = RAY_SAMPLES // len(cones)
        shown = 0               # faces X+, X-, Y+, Y- by bit, as the sweep gauges them
        for q, rx, ry, lx, ly in cones:
            if not (min(rx, ry, lx, ly) >= 0.0 and max(rx, ry, lx, ly) < math.inf):
                raise InternalGeometryError(f"cone of quadrant {q} leaves its quadrant")
            nr = math.hypot(rx, ry)
            nl = math.hypot(lx, ly)
            if nr == 0.0 or nl == 0.0:
                raise InternalGeometryError(f"cone of quadrant {q} is not closed")
            if rx * ly < ry * lx:
                raise InternalGeometryError(f"cone of quadrant {q} has l before r")
            # mirrored onto the first quadrant: near faces xn, yn, square j's far faces
            xn, xf = (-xm, d - x) if q & 1 else (xp, x + d)
            yn, yf = (-ym, d - y) if q & 2 else (yp, y + d)
            # max(0, xn/ux, yn/uy) <= min(xf/ux, yf/uy) for every sampled u,
            # cross-multiplied: the terms of one face pair first, per cone
            tol = EPS_REL * (abs(xn) + abs(xf) + abs(yn) + abs(yf) + d)
            if (xf < -tol or yf < -tol or ((rx > 0.0 or lx > 0.0) and xn > xf + tol)
                    or ((ry > 0.0 or ly > 0.0) and yn > yf + tol)):
                raise InternalGeometryError(f"the square of vertex {j} leaves quadrant {q} "
                                            f"no matching")
            rx /= nr
            ry /= nr
            lx /= nl
            ly /= nl
            for s in range(m):
                t = (s + 0.5) / m
                ux = (1.0 - t) * rx + t * lx
                uy = (1.0 - t) * ry + t * ly
                if xn * uy - yf * ux > tol or yn * ux - xf * uy > tol:
                    raise InternalGeometryError(
                        f"direction in the cone of quadrant {q} finds no matching")
                if xn > 0.0 and xn * uy > yn * ux:
                    shown |= 1 << (q & 1)
                elif yn > 0.0 and yn * ux > xn * uy:
                    shown |= 4 << (q >> 1)
        k = bin(shown).count("1")
        if k > 2:
            raise InternalGeometryError(f"square wavefront shows {k} faces (max 2)")
