"""Structural invariant checks for the sweep.

These are the properties the sweep's correctness rests on, enforced as hard
assertions while a checker is attached (tests, the randomized verifier):

  * a new circle meets the wavefront at most twice, and the crossing types
    match the step case (bottom side for MM/MB/BM, far side for TT);
  * the arcs tile the wedge span exactly and any sampled ray inside the wedge
    crosses the arc union exactly once;
  * the wavefront only recedes from the apex, never approaches it;
  * every arc endpoint lies inside every contributing circle;
  * arc order is reverse to the angular order of the contributing centers;
  * the arc count never exceeds n - 1 (and two segments for square metrics).

The checker is deliberately O(wavefront size) or worse per step; attach it to
small instances only.
"""
from __future__ import annotations

import math

from .geometry import EPS_REL, InternalGeometryError

_COINC = "coincident"


class InvariantChecker:
    def __init__(self, ray_samples: int = 360, monotone_samples: int = 64):
        self.ray_samples = ray_samples
        self.monotone_samples = monotone_samples
        self._fan = None          # persistent rays: list of [key, prev_dist or None]

    # -- hooks called by the engine ----------------------------------------

    def before_surgery(self, sw, j, px, py, case):
        delta = sw.delta
        crossings = []
        for arc in sw.arcs:
            crs = sw._arc_crossings(arc, px, py)
            if crs == _COINC:
                continue
            crossings.extend(crs)
        # junction points get reported by both incident arcs; dedupe
        uniq = []
        for k, p in sorted(crossings, key=lambda kp: kp[0]):
            if uniq and abs(k - uniq[-1][0]) <= 1e-7 and \
               math.hypot(p[0] - uniq[-1][1][0], p[1] - uniq[-1][1][1]) <= 1e-6 * delta:
                continue
            uniq.append((k, p))
        if len(uniq) > 2:
            raise InternalGeometryError(
                f"circle of vertex {j} meets the wavefront {len(uniq)} times (max 2)")
        inside = sw.kern.distance(sw.ax, sw.ay, px, py) <= delta
        if not inside and uniq:
            near = [sw.kern.on_near_side(sw.ax, sw.ay, px, py, p[0], p[1], delta)
                    for _, p in uniq]
            if case == "MM" and len(uniq) == 2 and not all(near):
                raise InternalGeometryError("MM crossings must lie on the new bottom arc")
            if case == "TT" and len(uniq) == 2 and any(near):
                raise InternalGeometryError("TT crossings must lie on the new top arc")

    def after_step(self, sw, j, report):
        arcs = sw.arcs
        if not arcs:
            return
        n = len(sw.pts)
        delta = sw.delta
        if len(arcs) > n - 1:
            raise InternalGeometryError(
                f"wavefront holds {len(arcs)} arcs, above the n-1 = {n - 1} bound")
        if sw.square:
            segs = sw._segment_count()
            if segs > 2:
                raise InternalGeometryError(f"square wavefront has {segs} segments (max 2)")
        ek = 1e-7
        if abs(arcs[0].k0 - sw.kr) > ek or abs(arcs[-1].k1 - sw.kl) > ek:
            raise InternalGeometryError("wavefront does not span the wedge")
        for t, a in enumerate(arcs):
            if a.k0 > a.k1 + ek:
                raise InternalGeometryError("arc with inverted angular span")
            if t + 1 < len(arcs):
                b = arcs[t + 1]
                if abs(a.k1 - b.k0) > ek:
                    raise InternalGeometryError("gap or overlap between adjacent arcs")
                if a.ck < b.ck - 1e-9:
                    raise InternalGeometryError(
                        "arc order is not reverse to the center order")
        # every contributing circle contains the whole wavefront
        centers = {}
        for a in arcs:
            centers[a.idx] = (a.cx, a.cy)
        for cx, cy in centers.values():
            for a in arcs:
                for (x, y) in ((a.x0, a.y0), (a.x1, a.y1)):
                    if not sw.kern.contains(cx, cy, x, y, delta, 1e-9):
                        raise InternalGeometryError(
                            "wavefront leaves a contributing circle")
        self._check_rays(sw)

    # -- sampled-ray checks ---------------------------------------------------

    def _ray_cross(self, sw, key):
        """Crossing distances of the sampled ray against every covering arc."""
        a = key + sw.rot
        ux, uy = math.cos(a), math.sin(a)
        dists = []
        for arc in sw.arcs:
            if arc.k0 - 1e-9 <= key <= arc.k1 + 1e-9:
                ts = sw.kern.ray_hits(sw.ax, sw.ay, ux, uy, arc.cx, arc.cy, sw.delta)
                if not ts:
                    raise InternalGeometryError("sampled ray misses a covering arc")
                dists.append(ts[0])
        return dists

    def _check_rays(self, sw):
        if sw.kr is None:
            return
        width = sw.kl - sw.kr
        tol = EPS_REL * sw.delta * 10.0 + 1e-12
        if self.ray_samples > 0 and width > 0.0:
            m = self.ray_samples
            for s in range(m):
                key = sw.kr + width * (s + 0.5) / m
                dists = self._ray_cross(sw, key)
                if not dists:
                    raise InternalGeometryError("sampled ray crosses no arc")
                if max(dists) - min(dists) > 1e-6 * (sw.delta + max(dists)):
                    raise InternalGeometryError(
                        "sampled ray crosses the wavefront more than once")
        if self.monotone_samples > 0:
            if self._fan is None:
                self._fan = [[sw.kr + width * (s + 0.5) / self.monotone_samples, None]
                             for s in range(self.monotone_samples)]
            for entry in self._fan:
                key, prev = entry
                if key < sw.kr - 1e-12 or key > sw.kl + 1e-12:
                    entry[1] = None      # left the wedge; no longer comparable
                    continue
                dists = self._ray_cross(sw, key)
                if not dists:
                    continue
                d = min(dists)
                if prev is not None and d < prev - 1e-6 * (sw.delta + d):
                    raise InternalGeometryError(
                        "wavefront moved toward the apex on a persistent ray")
                entry[1] = d
