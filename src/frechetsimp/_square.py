"""Square sweep: the L-inf sweep (and L1 on its L-inf image) from four running
face extremes and one cone per quadrant.

With the apex p_i moved to the origin, a ray apex + t*u meets the square of
vertex m (half-side delta) for t between max((x_m - delta)/u_x, (y_m -
delta)/u_y) and min((x_m + delta)/u_x, (y_m + delta)/u_y) in the quadrant u
>= 0, and a shortcut visits the squares i+1 ... j in order iff, for every m,
the running maximum of the near bounds stays at or below the far bound of m.
The running maximum of a quotient is a quotient of running maxima, so after
squares i+1 ... j the whole sweep state is four face extremes

    X+ = max(x_m - delta),  X- = min(x_m + delta),
    Y+ = max(y_m - delta),  Y- = min(y_m + delta)

plus, per quadrant, the directions that passed every far face so far.  In
quadrant (s_x, s_y), mirrored onto the first, the near faces are Xn = X+ or
-X- and Yn = Y+ or -Y-, and square j's far faces are Xf = s_x*x_j + delta
and Yf = s_y*y_j + delta.  Square j keeps the directions u with max(0,
Xn/u_x, Yn/u_y) <= min(Xf/u_x, Yf/u_y): six half-planes through the origin,
so each quadrant holds one closed cone, stored as its two bounding
directions r (clockwise) and l.  Its bounds are corners made of face values,
(Xf, Yn) for r and (Xn, Yf) for l, or the axes.

  * p_k is a target iff its quadrant's cone holds it (two cross products)
    and Xn <= s_x*x_k, Yn <= s_y*y_k: the matching then ends on the segment.
    A zero-length shortcut is valid iff X+ <= 0 <= X- and Y+ <= 0 <= Y-,
    the oracle's rule.
  * The sweep aborts when every cone is empty.
  * The first square j that leaves out the apex starts a cone, the whole
    quadrant, only where both its far faces are non-negative: quadrant 0
    when x_j + delta >= 0 <= y_j + delta, 1 when x_j - delta <= 0 <= y_j +
    delta, 2 when x_j + delta >= 0 >= y_j - delta and 3 when x_j - delta
    <= 0 >= y_j - delta, in that order.  Any other cone would die at that
    square.  At least one starts, as x_j - delta <= x_j + delta and y_j -
    delta <= y_j + delta.

Every decision is the comparison of two products of face values (or of a
face value with zero), rounded once each, so ties on fixed-decimal or
lattice inputs are decided by the same rounded values every time; nothing
takes an angle, a square root or a tolerance.

Stats: the sweep builds no record.  At its end it adds its counts into the
accumulator ``simplify.sweep_rows`` hands it, raises the call's two gauges
to its own, and returns its ``max_arc_count`` with its targets.  It counts
each square it visits, the one that ends it included, under one label:
PREFIX for a step whose square holds the apex while every square before did
too, and INIT for the first step whose square does not.  The wavefront, the
near boundary of the valid region, is the face X (or Y) of a live cone
wherever it is the binding near bound: ``max_segment_count`` gauges the
distinct faces of X+, X-, Y+, Y- it shows, and ``max_arc_count`` the
distinct squares owning them (a face is owned by the first square that set
its extreme).  The other labels are the sweep's own: BB for a step whose
square sets a face extreme (the wavefront moves onto it, on all or part of
the cones), WEDGE_EMPTY for the step that empties the last cone and so ends
the sweep early, and MM for every other step, which only narrows the cones.
No arc is spliced, so the inserted and removed counts stay 0.  On generic
inputs the targets, steps, aborts, both gauges and the PREFIX and INIT
counts are the ones the tests' reference engine (``_engine``) finds.

At most one face of each axis is shown.  A live cone with s_y = +1 has
passed the far face y_m + delta >= 0 of every square since INIT, and the
PREFIX squares straddle the apex, so Y- >= 0 while it lives; a live cone
with s_y = -1 keeps Y+ <= 0 in the same way.  A cone shows its Y face only
where its near face, Y+ or -Y-, is positive.  So while live cones of both
signs of s_y remain, no Y face is shown, and otherwise only the one their
sign picks; the same holds for X.  The cap ``_CAP[live]``, by the mask of
live quadrants, counts the axes on which the live cones share a sign: 2
for one cone, 1 for two cones that share a half-plane ({0, 2}, drift-walk's
usual pair), 0 otherwise.

The gauges are read after each INIT, BB and MM step, once that step's dead
cones are gone, but only while ``max_arc_count`` lies below the cap.
Skipping them there is exact: no step shows more faces, or faces of more
squares, than the cap, and a face count is never below its owner count,
so ``max_segment_count`` has reached the cap too.  A death can raise the
cap ({0, 1} -> {0} raises it from 1 to 2), so it is re-read from the
survivors, and their faces are read on that same step.  A lone cone whose
two faces were once shown together (``max_segment_count`` 2) raises
``max_arc_count`` only where two squares own its X and Y near faces, so
the gauges skip the steps where one square owns both.  Where two faces are
shown, their owners are counted by one comparison.  A cone none of whose
four bound tests moved r or l skips its emptiness test: it stays
non-empty.

``simplify.sweep_rows`` runs this sweep for Linf, and for L1 on the Linf
image of the points; ``verify --strict`` passes ``diagnostics.SquareChecker``
as its observer.
"""
from __future__ import annotations

import math
from typing import Sequence

from .simplify import CASES, MAX_ARCS, MAX_SEGMENTS

_INF = math.inf
# the most faces the live cones can show, by live-quadrant mask: one face of
# each axis on which they all share a sign
_CAP = tuple((len({q & 1 for q in range(4) if m >> q & 1}) == 1)
             + (len({q >> 1 for q in range(4) if m >> q & 1}) == 1) for m in range(16))
_PREFIX, _INIT, _WEDGE_EMPTY, _MM, _BB = map(CASES.index,
                                              ("PREFIX", "INIT", "WEDGE_EMPTY", "MM", "BB"))


def _scalar(X: Sequence[float], Y: Sequence[float], i: int, delta: float, acc, watch=None):
    """(targets, max_arc_count) of the sweep from start vertex i; its counts
    and gauges go into ``acc``, ``sweep_rows``' accumulator.  ``watch``, if
    given, is called after every step as ``watch(j, case, (X+, X-, Y+, Y-),
    cones)`` with the sweep's own face extremes and live cones (None before
    INIT, empty once the last cone empties)."""
    ax = X[i]
    ay = Y[i]
    d = delta
    xp = yp = -_INF        # X+, Y+
    xm = ym = _INF         # X-, Y-
    o0 = o1 = o2 = o3 = -1     # the squares owning X+, X-, Y+, Y-
    # the live cones [q, rx, ry, lx, ly], quadrant q = a + 2b with a = 0 for
    # s_x = +1 and b = 0 for s_y = +1; ``slot[q]`` is quadrant q's or None,
    # bit q of ``live`` is set while it lives, and ``cones`` is rebuilt from
    # ``slot`` only when a cone dies
    cones = slot = None
    targets = []
    prefix = moved = segs = arcs = 0
    cap = 0                # _CAP[live]: the most faces the live cones can show
    aborted = False
    for j in range(i + 1, len(X)):
        x = X[j] - ax
        y = Y[j] - ay
        # target test on the state after squares i+1 ... j-1
        if cones is None:
            targets.append(j)
        elif x == 0.0 and y == 0.0:
            if xp <= 0.0 <= xm and yp <= 0.0 <= ym:
                targets.append(j)
        else:
            if x >= 0.0:
                q, mx, xn = 0, x, xp
            else:
                q, mx, xn = 1, -x, -xm
            if y >= 0.0:
                my, yn = y, yp
            else:
                q, my, yn = q + 2, -y, -ym
            c = slot[q]
            if (c is not None and xn <= mx and yn <= my
                    and c[1] * my >= c[2] * mx and mx * c[4] >= my * c[3]):
                targets.append(j)
        ex = x - d
        fx = x + d
        ey = y - d
        fy = y + d
        step_moved = False
        if ex > xp:
            xp = ex
            o0 = j
            step_moved = True
        if fx < xm:
            xm = fx
            o1 = j
            step_moved = True
        if ey > yp:
            yp = ey
            o2 = j
            step_moved = True
        if fy < ym:
            ym = fy
            o3 = j
            step_moved = True
        if cones is None:
            if ex <= 0.0 <= fx and ey <= 0.0 <= fy:
                prefix += 1
                if watch is not None:
                    watch(j, "PREFIX", (xp, xm, yp, ym), cones)
                continue
            # only the quadrants whose far faces this square leaves
            # non-negative start a cone; at least one does, as ex <= fx and
            # ey <= fy
            s0 = fx >= 0.0 <= fy
            s1 = ex <= 0.0 <= fy
            s2 = fx >= 0.0 >= ey
            s3 = ex <= 0.0 >= ey
            slot = [[0, 1.0, 0.0, 0.0, 1.0] if s0 else None,
                    [1, 1.0, 0.0, 0.0, 1.0] if s1 else None,
                    [2, 1.0, 0.0, 0.0, 1.0] if s2 else None,
                    [3, 1.0, 0.0, 0.0, 1.0] if s3 else None]
            cones = list(filter(None, slot))
            live = s0 | s1 << 1 | s2 << 2 | s3 << 3
            cap = _CAP[live]
            step_moved = False      # INIT is counted apart
        was = live
        for c in cones:
            q = c[0]
            if q & 1:
                xn = -xm
                xf = -ex
            else:
                xn = xp
                xf = fx
            if q & 2:
                yn = -ym
                yf = -ey
            else:
                yn = yp
                yf = fy
            if xf < 0.0 or yf < 0.0:
                slot[q] = None
                live ^= 1 << q
                continue
            rx, ry, lx, ly = c[1], c[2], c[3], c[4]
            hit = False
            if xn > xf:             # no matching with u_x > 0
                rx = 0.0
                ry = 1.0
                hit = True
            if yn > yf:             # none with u_y > 0
                lx = 1.0
                ly = 0.0
                hit = True
            if xn > 0.0 and lx * yf < ly * xn:
                lx = xn
                ly = yf
                hit = True
            if yn > 0.0 and ry * xf < rx * yn:
                rx = xf
                ry = yn
                hit = True
            if hit:                 # an unchanged cone stays non-empty
                if rx * ly < ry * lx:
                    slot[q] = None
                    live ^= 1 << q
                    continue
                c[1] = rx
                c[2] = ry
                c[3] = lx
                c[4] = ly
        if live != was:
            if not live:
                aborted = True
                if watch is not None:
                    watch(j, "WEDGE_EMPTY", (xp, xm, yp, ym), [])
                break
            cones = list(filter(None, slot))
            cap = _CAP[live]        # a death can raise it
        if watch is not None:
            watch(j, "INIT" if j == i + 1 + prefix else "BB" if step_moved else "MM",
                  (xp, xm, yp, ym), cones)
        moved += step_moved
        # the gauges, while they can rise: a lone cone that shows both faces
        # raises max_arc_count only where two squares own them
        if arcs < cap and (segs < 2 or (o1 if cones[0][0] & 1 else o0)
                           != (o3 if cones[0][0] & 2 else o2)):
            # the faces each live cone's wavefront shows: X where it binds
            # toward l, Y where it binds toward r, each owned by one square
            sx = sy = -1
            for q, rx, ry, lx, ly in cones:
                xn = -xm if q & 1 else xp
                yn = -ym if q & 2 else yp
                if xn > 0.0 and (yn <= 0.0 or ly * xn > lx * yn):
                    sx = o1 if q & 1 else o0
                if yn > 0.0 and (xn <= 0.0 or ry * xn < rx * yn):
                    sy = o3 if q & 2 else o2
            k = (sx >= 0) + (sy >= 0)
            if k > segs:
                segs = k
            if k == 2 and sx == sy:
                k = 1
            if k > arcs:
                arcs = k
    acc[_PREFIX] += prefix
    if cones is not None:
        steps = j - i if aborted else len(X) - 1 - i     # the squares visited
        acc[_INIT] += 1
        acc[_BB] += moved
        acc[_MM] += steps - prefix - 1 - aborted - moved
        acc[_WEDGE_EMPTY] += aborted
        if segs > acc[MAX_SEGMENTS]:
            acc[MAX_SEGMENTS] = segs
        if arcs > acc[MAX_ARCS]:
            acc[MAX_ARCS] = arcs
    return targets, arcs
