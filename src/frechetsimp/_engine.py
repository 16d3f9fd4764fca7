"""Wedge/wavefront sweep from a fixed start vertex.

One sweep walks the polyline once, maintaining

  * a *wedge*: the angular region at the start vertex that can still contain
    valid shortcut endpoints, stored as a pair of ray keys (kr < kl) in a
    rotated frame chosen so no relevant angle wraps;
  * a *wavefront*: an angle-ordered sequence of arcs, each a piece of the
    bottom (apex-facing) boundary of one vertex's unit circle.  The arcs tile
    the wedge span exactly; the valid region is everything inside the wedge on
    or beyond the wavefront.

Each step intersects the wedge with the new circle's tangent cone, clips the
wavefront, classifies the boundary pattern on both rays (T = wavefront beyond
the circle, M = inside it, B = short of it), and applies the matching surgery.
Arcs are stored in a plain list ordered by start key together with a parallel
key list; every surgery is a contiguous splice, and each arc is removed at
most once per sweep, so the list walkers are amortized.

The engine is metric-generic: it only talks to a kernel (Euclidean disk or
axis-aligned square, ``geometry.CircleKernel`` or ``SquareKernel``) through a
handful of shape primitives; L1 sweeps the Linf image of the points with the
square kernel.  Vertices whose circle contains the apex get the whole plane
as their cone but still run the narrowing step, which is what enforces the
Frechet ordering (skipping it admits shortcuts that visit vertices out of
order).

Per-step cost.  A sweep runs Theta(n) steps per start vertex, so the step is
written for the interpreter.  It asks the kernel's ``tangent_points`` once:
None means the apex lies in C_j (for disks dd <= delta^2, as both oracles
compare), else its corners give C_j's cone.  The key of vertex j (one atan2) is
computed at most once per step: ``locate_vertex(j)`` leaves it in
``_loc_cache`` as (j, key), the ``step(j)`` that follows reads it back, and
the step hands the center key on to the case that needs it.  A ``step``
without a preceding ``locate_vertex(j)`` computes the key itself; the results
are bit-identical either way.  Reuse is sound because keys depend only on the
point and the frame rotation, and the frame is fixed once the first arc
exists (the one step that rotates it clears the cache).  Inside the step a
case travels as its label string, and the wedge rays are classified on plain
floats; a ``StepReport`` is built only for the public ``step``.  Keys stay
on ``math.atan2`` and distances on ``math.hypot``, one call per point as the
step needs it: numpy's vectorised ``arctan2`` and ``hypot`` round differently
from libm on some inputs (SIMD builds), and the engine compares keys and
distances against tight tolerances, so precomputed arrays would change
decisions, not just the last digits of the output.

Callers.  The package never runs this engine: ``simplify.sweep_rows`` runs
the disk sweep of ``_disk`` for L2 and the square sweep of ``_square`` for
Linf and L1, which keep this engine's step cases in plain vectors and need
no angle.  This module is a leaf that only the tests import, as their
reference, and the benchmark's tracer, which drives ``Sweep`` step by step;
its ``CASES`` and ``SweepStats`` are ``simplify``'s.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

from .geometry import EPS_ANGLE, EPS_REL, InternalGeometryError, Metric, _wrap_angle
from .simplify import CASES, SweepStats

_PI = math.pi
_HALF_PI = 0.5 * math.pi
_TAU = 2.0 * math.pi
_KEY_SLACK = 1e-9          # radians: key-span filters and closed-wedge tests
_COINC = "coincident"
_AWAY = "wedge ray points away from the new circle"
_MISSED = "wedge ray misses an arc it should cross"


class Location(Enum):
    OUTSIDE_WEDGE = "outside_wedge"
    BELOW_WAVEFRONT = "below_wavefront"
    IN_VALID_REGION = "in_valid_region"


OUTSIDE = Location.OUTSIDE_WEDGE
BELOW = Location.BELOW_WAVEFRONT
VALID = Location.IN_VALID_REGION

def _side(w: float, q1: float, q2: float, delta: float) -> Optional[str]:
    """One wedge ray's letter: the wavefront, at distance w along the ray, lies
    short of C_j's span [q1, q2] on it ("B"), beyond it ("T") or inside it
    ("M"); None for a tie, which a ray nudged into the wedge settles."""
    tau = EPS_REL * (delta + w + q2)
    if q2 - q1 <= tau and -tau <= w - q1 <= tau:
        return "M"                     # degenerate q1 = l = q2
    if w < q1 - tau:
        return "B"
    if w > q2 + tau:
        return "T"
    if q1 + tau < w < q2 - tau:
        return "M"
    return None


class SweepAbortedError(RuntimeError):
    """step() called on a sweep whose valid region is already empty."""


class Arc:
    """A contiguous piece of the bottom arc of one unit circle, keyed by angle."""

    __slots__ = ("k0", "k1", "x0", "y0", "x1", "y1", "cx", "cy", "idx", "ck")

    def __init__(self, k0, k1, x0, y0, x1, y1, cx, cy, idx, ck):
        self.k0 = k0
        self.k1 = k1
        self.x0 = x0
        self.y0 = y0
        self.x1 = x1
        self.y1 = y1
        self.cx = cx
        self.cy = cy
        self.idx = idx
        self.ck = ck

    def __repr__(self):
        return (f"Arc(j={self.idx}, k=[{self.k0:.6f},{self.k1:.6f}], "
                f"c=({self.cx:.4f},{self.cy:.4f}))")


@dataclass(slots=True)
class StepReport:
    case: str


class Sweep:
    """Mutable per-start-vertex sweep state (single-threaded during its sweep)."""

    __slots__ = ("pts", "i", "delta", "kern", "ax", "ay", "rot",
                 "kr", "kl", "ur", "ul", "arcs", "keys", "aborted", "stats",
                 "square", "_loc_cache")

    def __init__(self, pts: Sequence[Sequence[float]], i: int, delta: float, kern):
        self.pts = pts
        self.i = i
        self.delta = float(delta)
        self.kern = kern
        self.ax, self.ay = float(pts[i][0]), float(pts[i][1])
        self.rot = None          # frame rotation, fixed at the first proper step
        self.kr = self.kl = None  # wedge ray keys (None = whole plane)
        self.ur = self.ul = None  # wedge ray unit vectors
        self.arcs: list[Arc] = []
        self.keys: list[float] = []
        self.aborted = False
        self.stats = SweepStats()
        self.square = kern.metric is not Metric.L2   # gauge the square segments
        self._loc_cache = (None, 0.0)   # (vertex j, key of j); see the module docstring

    # -- frame ------------------------------------------------------------

    def _init_frame(self, px: float, py: float):
        self.rot = math.atan2(py - self.ay, px - self.ax) - 0.5 * _PI

    def _key(self, px: float, py: float) -> float:
        # the hot paths inline this body; keep the copies in step with it
        a = math.atan2(py - self.ay, px - self.ax) - self.rot
        if a <= -_PI:
            a += _TAU
        elif a > _PI:
            a -= _TAU
        return a

    def _unit_to(self, px: float, py: float):
        dx = px - self.ax
        dy = py - self.ay
        d = math.hypot(dx, dy)
        return (dx / d, dy / d)

    def _graze(self, ux: float, uy: float, cx: float, cy: float, what: str) -> float:
        """Hit parameter of a wedge ray that meets circle c by construction but
        missed it in rounding: it can only be grazing."""
        t = self.kern.graze_fallback(self.ax, self.ay, ux, uy, cx, cy, self.delta)
        if t <= 0.0:
            raise InternalGeometryError(what)
        return t

    # -- queries ----------------------------------------------------------

    def locate(self, p: Sequence[float]) -> Location:
        """Classify a point against the current wedge and wavefront."""
        return self._locate(float(p[0]), float(p[1]), None)

    def locate_vertex(self, j: int) -> Location:
        """``locate(pts[j])``; a following ``step(j)`` reuses its key."""
        p = self.pts[j]
        return self._locate(float(p[0]), float(p[1]), j)

    def _locate(self, px: float, py: float, j: Optional[int]) -> Location:
        if self.aborted:
            raise SweepAbortedError("sweep already aborted")
        dx = px - self.ax
        dy = py - self.ay
        if dx == 0.0 and dy == 0.0:
            return VALID if not self.arcs else BELOW
        if not self.arcs:
            return VALID
        k = math.atan2(dy, dx) - self.rot
        if k <= -_PI:
            k += _TAU
        elif k > _PI:
            k -= _TAU
        self._loc_cache = (j, k)
        if k < self.kr - _KEY_SLACK or k > self.kl + _KEY_SLACK:
            return OUTSIDE
        dist = math.hypot(dx, dy)
        w = self._front_dist_at(k, dx / dist, dy / dist)
        return VALID if dist >= w - EPS_REL * (self.delta + dist) else BELOW

    def _front_dist_at(self, k: float, ux: float, uy: float) -> float:
        """Distance from the apex to the wavefront along the ray with key k."""
        arcs = self.arcs
        pos = bisect_right(self.keys, k) - 1 if len(arcs) > 1 else 0
        if pos < 0:
            pos = 0
        for cand in (pos, pos - 1, pos + 1):
            if 0 <= cand < len(arcs):
                a = arcs[cand]
                if a.k0 - _KEY_SLACK <= k <= a.k1 + _KEY_SLACK:
                    ts = self.kern.ray_hits(self.ax, self.ay, ux, uy, a.cx, a.cy, self.delta)
                    if ts:
                        return ts[0]
        raise InternalGeometryError(f"no wavefront arc covers key {k!r}")

    # -- step -------------------------------------------------------------

    def step(self, j: int) -> StepReport:
        """Process vertex j: narrow the wedge, update the wavefront."""
        return StepReport(self._step(j))

    def _step(self, j: int) -> str:
        """``step`` returning the bare case label."""
        if self.aborted:
            raise SweepAbortedError("sweep already aborted")
        p = self.pts[j]
        px, py = float(p[0]), float(p[1])
        st = self.stats
        st.steps += 1
        corners = self.kern.tangent_points(self.ax, self.ay, px, py, self.delta)
        if corners is None:       # the apex lies in C_j
            if not self.arcs:
                case = "PREFIX"       # within delta before any constraint
            else:
                # whole-plane cone, but the narrowing step still runs so the
                # visit order stays enforced
                case = self._narrow(j, px, py, None)
        else:
            case = self._step_proper(j, px, py, corners)
        h = st.case_histogram
        h[case] = h.get(case, 0) + 1
        n_arcs = len(self.arcs)
        if n_arcs > st.max_arc_count:
            st.max_arc_count = n_arcs
        # an arc spans at most two square segments, so the count can only
        # raise the gauge while twice the arc count exceeds it
        if self.square and 2 * n_arcs > st.max_segment_count:
            segs = self._segment_count()
            if segs > st.max_segment_count:
                st.max_segment_count = segs
        return case

    def _segment_count(self) -> int:
        """Segments of the wavefront: one per arc, two for a square arc round a corner."""
        segs = self.kern.arc_segments
        ax, ay, delta = self.ax, self.ay, self.delta
        total = 0
        for a in self.arcs:
            total += segs(ax, ay, a.cx, a.cy, delta, a.x0, a.y0, a.x1, a.y1)
        return total

    def _step_proper(self, j: int, px: float, py: float, corners) -> str:
        """The step for an apex outside C_j, from C_j's tangent ``corners``."""
        ax, ay = self.ax, self.ay
        if self.rot is None:
            self._init_frame(px, py)
        rot = self.rot
        # center key, unwrapped into (-pi/2, 3pi/2]: centers sit within pi/2
        # of any ray meeting their circle, and every wedge ray has a key in
        # (0, pi), so this is the branch in which center keys order
        # consistently with the arcs
        c = self._loc_cache
        ck = c[1] if c[0] == j else self._key(px, py)
        if ck <= -_HALF_PI:
            ck += _TAU
        off_r = off_l = 0.0
        tp_r = tp_l = None
        atan2 = math.atan2
        for tp in corners:
            # offset of the touch point's key from the center key, both wrapped
            # to (-pi, pi] exactly as _key and _wrap_angle do
            off = atan2(tp[1] - ay, tp[0] - ax) - rot
            if off <= -_PI:
                off += _TAU
            elif off > _PI:
                off -= _TAU
            off -= ck
            if off <= -_PI or off > _PI:
                off = _wrap_angle(off)
            if tp_r is None or off < off_r:
                off_r, tp_r = off, tp
            if tp_l is None or off > off_l:
                off_l, tp_l = off, tp
        if not self.arcs:
            # first proper step: re-center the frame on the cone midpoint, so
            # the whole sweep (every later wedge is a subset) lives in keys
            # well inside (0, pi) and never straddles the wrap seam; the
            # wedge is the cone, the wavefront its wave
            shift = ck + 0.5 * (off_r + off_l) - 0.5 * _PI
            self.rot += shift
            ck -= shift
            self._loc_cache = (None, 0.0)     # its key was in the old frame
            dkr = ck + off_r
            dkl = ck + off_l
            self.kr, self.kl = dkr, dkl
            self.ur = self._unit_to(*tp_r)
            self.ul = self._unit_to(*tp_l)
            self.arcs = [Arc(dkr, dkl, tp_r[0], tp_r[1], tp_l[0], tp_l[1], px, py, j, ck)]
            self.keys = [dkr]
            self.stats.inserted += 1
            return "INIT"
        # (a) wedge := wedge ∩ cone, wrap-aware: the cone may sit across the
        # seam, so a cone that misses the wedge is tried shifted by a turn
        r = ck + off_r
        l = ck + off_l
        kr, kl = self.kr, self.kl
        if l < kr - EPS_ANGLE or r > kl + EPS_ANGLE:
            for shift in (_TAU, -_TAU):
                if not (l + shift < kr - EPS_ANGLE or r + shift > kl + EPS_ANGLE):
                    r += shift
                    l += shift
                    break
            else:
                self.aborted = True
                self.stats.aborts += 1
                return "WEDGE_EMPTY"
        nkr = r if r > kr else kr         # max(kr, r), min(kl, l)
        nkl = l if l < kl else kl
        # unit vectors ahead of the empty-wedge test: a touch point on the
        # apex raises ZeroDivisionError here even on a step that empties it
        if nkr <= r + EPS_ANGLE:
            dx = tp_r[0] - ax
            dy = tp_r[1] - ay
            d = math.hypot(dx, dy)
            n_ur = (dx / d, dy / d)
        else:
            n_ur = self.ur
        if nkl >= l - EPS_ANGLE:
            dx = tp_l[0] - ax
            dy = tp_l[1] - ay
            d = math.hypot(dx, dy)
            n_ul = (dx / d, dy / d)
        else:
            n_ul = self.ul
        if nkl < nkr - EPS_ANGLE:
            self.aborted = True
            self.stats.aborts += 1
            return "WEDGE_EMPTY"
        if nkl < nkr:
            nkl = nkr
        self._clip(nkr, nkl, n_ur, n_ul)
        self.kr, self.kl, self.ur, self.ul = nkr, nkl, n_ur, n_ul
        return self._narrow(j, px, py, ck)

    # -- clip to wedge ------------------------------------------------------

    def _clip(self, nkr: float, nkl: float, n_ur, n_ul):
        """Restrict the wavefront to [nkr, nkl]."""
        arcs = self.arcs
        keys = self.keys
        dropped = 0
        if len(arcs) > 1:          # a single arc always spans the new wedge
            lo = bisect_right(keys, nkr) - 1
            if lo < 0:
                lo = 0
            while lo < len(arcs) - 1 and arcs[lo].k1 < nkr - _KEY_SLACK:
                lo += 1
            hi = bisect_right(keys, nkl) - 1
            if hi < lo:
                hi = lo
            while hi > lo and arcs[hi].k0 > nkl + _KEY_SLACK:
                hi -= 1
            dropped = lo + (len(arcs) - 1 - hi)
        if dropped:
            del arcs[hi + 1:]
            del keys[hi + 1:]
            del arcs[:lo]
            del keys[:lo]
            self.stats.removed += dropped
        ax, ay, delta = self.ax, self.ay, self.delta
        # a wedge ray that moved inward cuts the end arc where it crosses it
        first = arcs[0]
        if first.k0 < nkr - EPS_ANGLE:
            ux, uy = n_ur
            ts = self.kern.ray_hits(ax, ay, ux, uy, first.cx, first.cy, delta)
            t = ts[0] if ts else self._graze(ux, uy, first.cx, first.cy, _MISSED)
            first.k0 = nkr
            first.x0 = ax + t * ux
            first.y0 = ay + t * uy
            keys[0] = nkr
        last = arcs[-1]
        if last.k1 > nkl + EPS_ANGLE:
            ux, uy = n_ul
            ts = self.kern.ray_hits(ax, ay, ux, uy, last.cx, last.cy, delta)
            t = ts[0] if ts else self._graze(ux, uy, last.cx, last.cy, _MISSED)
            last.k1 = nkl
            last.x1 = ax + t * ux
            last.y1 = ay + t * uy

    # -- pattern classification ---------------------------------------------

    def _classify_nudged(self, at_left: bool, px: float, py: float) -> str:
        """Tie on a boundary ray: compare again on a ray nudged into the wedge."""
        width = self.kl - self.kr
        h = min(1e-7, 0.25 * width) if width > 0.0 else 0.0
        if h <= 0.0:
            return "M"
        k = (self.kl - h) if at_left else (self.kr + h)
        a = k + self.rot
        ux, uy = math.cos(a), math.sin(a)
        try:
            w = self._front_dist_at(k, ux, uy)
        except InternalGeometryError:
            return "M"
        ts = self.kern.ray_hits(self.ax, self.ay, ux, uy, px, py, self.delta)
        if len(ts) == 2:
            q1, q2 = ts
        elif ts:
            q1, q2 = 0.0, ts[0]
        else:
            q1 = q2 = self._graze(ux, uy, px, py, _AWAY)
        if w < q1:
            return "B"
        if w > q2:
            return "T"
        return "M"

    # -- arc/circle crossings -------------------------------------------------

    def _arc_crossings(self, arc: Arc, px: float, py: float):
        """Boundary crossings of circle C_j with one wavefront arc.

        Returns "coincident" for (near-)identical circles, else a list of
        (key, point) sorted by key.
        """
        kern = self.kern
        ax, ay, delta = self.ax, self.ay, self.delta
        res = kern.boundary_intersections(arc.cx, arc.cy, px, py, delta)
        if res == _COINC:
            return _COINC
        out = []
        for xy in res:
            x, y = xy
            if not kern.on_near_side(ax, ay, arc.cx, arc.cy, x, y, delta):
                continue
            k = math.atan2(y - ay, x - ax) - self.rot      # self._key(x, y)
            if k <= -_PI:
                k += _TAU
            elif k > _PI:
                k -= _TAU
            if arc.k0 - _KEY_SLACK <= k <= arc.k1 + _KEY_SLACK:
                out.append((k, xy))
        if len(out) == 2:
            if out[1][0] < out[0][0]:
                out.reverse()
        elif len(out) > 2:
            out.sort(key=lambda kp: kp[0])
        return out

    def _contained(self, arc: Arc, px: float, py: float) -> bool:
        kern = self.kern
        delta = self.delta
        return (kern.contains(px, py, arc.x0, arc.y0, delta, 4.0 * EPS_REL)
                and kern.contains(px, py, arc.x1, arc.y1, delta, 4.0 * EPS_REL))

    # -- the narrowing step and its cases -------------------------------------

    def _narrow(self, j: int, px: float, py: float, ck: Optional[float]) -> str:
        """Classify both wedge rays against C_j and run the matching surgery.

        ``ck`` is C_j's center key, or None when the apex lies in C_j.
        """
        ax, ay, delta = self.ax, self.ay, self.delta
        arcs = self.arcs
        l_arc = arcs[-1]
        r_arc = arcs[0]
        wl = math.hypot(l_arc.x1 - ax, l_arc.y1 - ay)
        wr = math.hypot(r_arc.x0 - ax, r_arc.y0 - ay)
        ulx, uly = self.ul
        urx, ury = self.ur
        # C_j's span [q1, q2] on each ray: (0, exit) from inside C_j, and a
        # miss can only be a grazing ray lost to rounding, since the wedge
        # rays lie inside C_j's cone by construction
        ray_hits = self.kern.ray_hits
        ts = ray_hits(ax, ay, ulx, uly, px, py, delta)
        if len(ts) == 2:
            l1, l2 = ts
        elif ts:
            l1, l2 = 0.0, ts[0]
        else:
            l1 = l2 = self._graze(ulx, uly, px, py, _AWAY)
        ts = ray_hits(ax, ay, urx, ury, px, py, delta)
        if len(ts) == 2:
            r1, r2 = ts
        elif ts:
            r1, r2 = 0.0, ts[0]
        else:
            r1 = r2 = self._graze(urx, ury, px, py, _AWAY)
        case = ((_side(wl, l1, l2, delta) or self._classify_nudged(True, px, py))
                + (_side(wr, r1, r2, delta) or self._classify_nudged(False, px, py)))
        if ck is None and "B" in case:
            raise InternalGeometryError(
                f"pattern {case} with the apex inside C_{j} should be impossible")
        if case == "TB" or case == "BT":
            raise InternalGeometryError(f"unreachable wavefront case {case}")
        if case == "BB":
            # C_j beyond the wavefront on both rays: its bottom arc between
            # the wedge rays replaces every arc
            kr = self.kr
            new = Arc(kr, self.kl, ax + r1 * urx, ay + r1 * ury,
                      ax + l1 * ulx, ay + l1 * uly, px, py, j, ck)
            st = self.stats
            st.removed += len(arcs)
            st.inserted += 1
            self.arcs = [new]
            self.keys = [kr]
            return "BB"
        if case == "MB":
            return self._case_mb(j, px, py, r1, ck)
        if case == "BM":
            return self._case_bm(j, px, py, l1, ck)
        if case == "TT":
            return self._case_tt(j, px, py)
        if case == "TM":
            return self._case_tm(j, px, py)
        if case == "MT":
            return self._case_mt(j, px, py)
        return self._case_mm(j, px, py, ck)

    def _splice(self, lo: int, hi: int, new_arcs: list[Arc]):
        """Replace arcs[lo:hi] with new_arcs, keeping the key list in sync."""
        removed = hi - lo
        self.arcs[lo:hi] = new_arcs
        self.keys[lo:hi] = [a.k0 for a in new_arcs]
        self.stats.removed += removed
        self.stats.inserted += len(new_arcs)

    def _resync_key(self, idx: int):
        self.keys[idx] = self.arcs[idx].k0

    def _scan_left(self, px: float, py: float):
        """From the left end inward: first arc meeting C_j's boundary.

        Returns (index, key, point) of the crossing nearest the left end, or
        None when no arc crosses.
        """
        arcs = self.arcs
        for idx in range(len(arcs) - 1, -1, -1):
            crs = self._arc_crossings(arcs[idx], px, py)
            if crs == _COINC:
                a = arcs[idx]
                return (idx, a.k1, (a.x1, a.y1))
            if crs:
                k, p = crs[-1]
                return (idx, k, p)
        return None

    def _scan_right(self, px: float, py: float):
        arcs = self.arcs
        for idx in range(len(arcs)):
            crs = self._arc_crossings(arcs[idx], px, py)
            if crs == _COINC:
                a = arcs[idx]
                return (idx, a.k0, (a.x0, a.y0))
            if crs:
                k, p = crs[0]
                return (idx, k, p)
        return None

    def _case_tt(self, j: int, px: float, py: float) -> str:
        left = self._scan_left(px, py)
        if left is None:
            self.aborted = True
            self.stats.aborts += 1
            return "TT_EMPTY"
        il, k1, p1 = left
        right = self._scan_right(px, py)
        ir, k2, p2 = right
        if ir > il or k2 > k1 + _KEY_SLACK:
            raise InternalGeometryError("TT crossings out of order")
        if ir == il:
            a = self.arcs[il]
            a.k0, a.x0, a.y0 = k2, p2[0], p2[1]
            a.k1, a.x1, a.y1 = (k1 if k1 >= k2 else k2), p1[0], p1[1]
            self._splice(il + 1, len(self.arcs), [])
            self._splice(0, il, [])
            self._resync_key(0)
        else:
            al = self.arcs[il]
            al.k1, al.x1, al.y1 = k1, p1[0], p1[1]
            ar = self.arcs[ir]
            ar.k0, ar.x0, ar.y0 = k2, p2[0], p2[1]
            self._splice(il + 1, len(self.arcs), [])
            self._splice(0, ir, [])
            self._resync_key(0)
        self.kr, self.ur = k2, self._unit_to(*p2)
        self.kl, self.ul = k1, self._unit_to(*p1)
        return "TT"

    def _case_tm(self, j: int, px: float, py: float) -> str:
        left = self._scan_left(px, py)
        if left is None:
            raise InternalGeometryError("case TM must have one crossing")
        il, k1, p1 = left
        a = self.arcs[il]
        a.k1, a.x1, a.y1 = k1, p1[0], p1[1]
        if a.k0 > a.k1:
            a.k0 = a.k1
            self._resync_key(il)
        self._splice(il + 1, len(self.arcs), [])
        self.kl, self.ul = k1, self._unit_to(*p1)
        return "TM"

    def _case_mt(self, j: int, px: float, py: float) -> str:
        right = self._scan_right(px, py)
        if right is None:
            raise InternalGeometryError("case MT must have one crossing")
        ir, k2, p2 = right
        a = self.arcs[ir]
        a.k0, a.x0, a.y0 = k2, p2[0], p2[1]
        if a.k1 < a.k0:
            a.k1 = a.k0
        self._resync_key(ir)
        self._splice(0, ir, [])
        self.kr, self.ur = k2, self._unit_to(*p2)
        return "MT"

    def _case_mb(self, j: int, px: float, py: float, t: float, ck: float) -> str:
        """Circle beyond the wavefront at the right ray (entered at t):
        its bottom arc takes over from the right ray to the first crossing."""
        found = self._scan_right(px, py)
        if found is None:
            raise InternalGeometryError("case MB must have one crossing")
        ir, k1, p1 = found
        x1, y1 = p1
        arcs = self.arcs
        a = arcs[ir]
        a.k0, a.x0, a.y0 = k1, x1, y1
        if a.k1 < a.k0:
            a.k1 = a.k0
        ur = self.ur
        kr = self.kr
        new = Arc(kr, k1, self.ax + t * ur[0], self.ay + t * ur[1], x1, y1, px, py, j, ck)
        # splice [new] over arcs[:ir]
        arcs[:ir] = (new,)
        keys = self.keys
        keys[:ir] = (kr,)
        keys[1] = k1
        st = self.stats
        st.removed += ir
        st.inserted += 1
        return "MB"

    def _case_bm(self, j: int, px: float, py: float, t: float, ck: float) -> str:
        """Mirror of MB: the new arc runs from the last crossing to the left ray."""
        found = self._scan_left(px, py)
        if found is None:
            raise InternalGeometryError("case BM must have one crossing")
        il, k2, p2 = found
        x2, y2 = p2
        arcs = self.arcs
        a = arcs[il]
        a.k1, a.x1, a.y1 = k2, x2, y2
        keys = self.keys
        if a.k0 > k2:
            a.k0 = k2
            keys[il] = k2
        ul = self.ul
        new = Arc(k2, self.kl, x2, y2, self.ax + t * ul[0], self.ay + t * ul[1], px, py, j, ck)
        # splice [new] over arcs[il + 1:]
        st = self.stats
        st.removed += len(arcs) - il - 1
        st.inserted += 1
        del arcs[il + 1:]
        arcs.append(new)
        del keys[il + 1:]
        keys.append(k2)
        return "BM"

    def _case_mm(self, j: int, px: float, py: float, ck: Optional[float]) -> str:
        """C_j meets the wavefront between the wedge rays, if at all; ``ck`` is
        None when the apex lies in C_j, which then cannot add an arc."""
        arcs = self.arcs
        n = len(arcs)
        dx = px - self.ax
        dy = py - self.ay
        if dx == 0.0 and dy == 0.0:
            # circle centered on the apex: the wavefront cannot cross it here
            return "MM"
        allow_insert = ck is not None
        if ck is None:
            ck = self._key(px, py)
            if ck <= -_HALF_PI:
                ck += _TAU
        # arcs carry centers in reverse angular order; find where ck fits
        lo, hi = 0, n
        while lo < hi:
            mid = (lo + hi) // 2
            if arcs[mid].ck > ck:
                lo = mid + 1
            else:
                hi = mid
        pos = lo
        cand = [c for c in (pos - 1, pos) if 0 <= c < n]
        all_inside = True
        crossings = []
        for c in cand:
            crs = self._arc_crossings(arcs[c], px, py)
            if crs != _COINC:
                crossings.extend(crs)
                if not self._contained(arcs[c], px, py):
                    all_inside = False
        if all_inside:
            # endpoints inside the circle: any boundary meeting is either a
            # tangential touch (no-op) or a genuine poke strictly between the
            # extreme crossings; probe the wavefront midway to tell them apart
            if len(crossings) < 2:
                return "MM"
            ks = sorted(k for k, _ in crossings)
            km = 0.5 * (ks[0] + ks[-1])
            a = km + self.rot
            ux, uy = math.cos(a), math.sin(a)
            t = self._front_dist_at(km, ux, uy)
            wx, wy = self.ax + t * ux, self.ay + t * uy
            if self.kern.contains(px, py, wx, wy, self.delta, 4.0 * EPS_REL):
                return "MM"
        up = self._scan_up(pos, px, py)
        down = self._scan_down(pos - 1, px, py)
        if up is None and down is None:
            raise InternalGeometryError("MM: circle pokes the wavefront but no crossing found")
        if not allow_insert:
            raise InternalGeometryError("apex-inside circle cannot add a wavefront arc")
        if up is not None and down is not None:
            (i1, k1, p1) = up
            (i2, k2, p2) = down
            a1 = arcs[i1]
            a1.k0, a1.x0, a1.y0 = k1, p1[0], p1[1]
            if a1.k1 < a1.k0:
                a1.k1 = a1.k0
            self._resync_key(i1)
            a2 = arcs[i2]
            a2.k1, a2.x1, a2.y1 = k2, p2[0], p2[1]
            if a2.k0 > a2.k1:
                a2.k0 = a2.k1
                self._resync_key(i2)
            new = Arc(k2, k1, p2[0], p2[1], p1[0], p1[1], px, py, j, ck)
            self._splice(i2 + 1, i1, [new])
            return "MM"
        # both crossings sit on a single arc adjacent to the straddle position
        (it, _, _) = up if up is not None else down
        crs = self._arc_crossings(arcs[it], px, py)
        if crs == _COINC or len(crs) != 2:
            raise InternalGeometryError("MM: expected two crossings on one arc")
        (k2, p2), (k1, p1) = crs
        a = arcs[it]
        left_piece = Arc(k1, a.k1, p1[0], p1[1], a.x1, a.y1, a.cx, a.cy, a.idx, a.ck)
        mid_piece = Arc(k2, k1, p2[0], p2[1], p1[0], p1[1], px, py, j, ck)
        a.k1, a.x1, a.y1 = k2, p2[0], p2[1]
        self._splice(it + 1, it + 1, [mid_piece, left_piece])
        return "MM"

    def _scan_up(self, start: int, px: float, py: float):
        """MM helper: walk left (up in key) from ``start`` to the left crossing.

        Pure search; the caller removes the passed-over (strictly below) arcs
        in one splice.  Returns (index, key, point) or None when this side
        holds no crossing.
        """
        arcs = self.arcs
        n = len(arcs)
        passed_below = False
        idx = start
        while idx < n:
            crs = self._arc_crossings(arcs[idx], px, py)
            if crs == _COINC:
                return None
            if crs:
                k, p = crs[-1]
                return (idx, k, p)
            if self._contained(arcs[idx], px, py):
                if passed_below:
                    raise InternalGeometryError("MM scan passed below arcs into a contained arc")
                return None
            passed_below = True
            idx += 1
        if passed_below:
            raise InternalGeometryError("MM scan ran off the left end")
        return None

    def _scan_down(self, start: int, px: float, py: float):
        arcs = self.arcs
        passed_below = False
        idx = start
        while idx >= 0:
            crs = self._arc_crossings(arcs[idx], px, py)
            if crs == _COINC:
                return None
            if crs:
                k, p = crs[0]
                return (idx, k, p)
            if self._contained(arcs[idx], px, py):
                if passed_below:
                    raise InternalGeometryError("MM scan passed below arcs into a contained arc")
                return None
            passed_below = True
            idx -= 1
        if passed_below:
            raise InternalGeometryError("MM scan ran off the right end")
        return None


def sweep_targets(pts: Sequence[Sequence[float]], i: int, delta: float,
                  kern) -> tuple[list[int], Sweep]:
    """All j > i with a valid shortcut <p_i, p_j>, plus the final sweep state."""
    sw = Sweep(pts, i, delta, kern)
    out = []
    for j in range(i + 1, len(pts)):
        if sw.locate_vertex(j) is VALID:
            out.append(j)
        sw._step(j)
        if sw.aborted:
            break
    return out, sw
