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

The gauges are read after each INIT, BB and MM step, but only while
``max_arc_count`` lies below the cap min(4, 2 x live cones).  Skipping them
from there on is exact: each live cone shows at most its own X and Y
faces, so no step shows more faces, or faces of more squares, than the
cap; cones never revive, so the cap never rises; and a face count is never
below its owner count, so ``max_segment_count`` has reached the cap too.
Where two faces are shown, their owners are counted by one comparison.

``simplify.sweep_rows`` runs this sweep for Linf, and for L1 on the Linf
image of the points; ``verify --strict`` passes ``diagnostics.SquareChecker``
as its observer.
"""
from __future__ import annotations

import math
from typing import Sequence

from .simplify import CASES, MAX_ARCS, MAX_SEGMENTS

_INF = math.inf
# faces shown (0..3: X+, X-, Y+, Y-) and their count, by bit mask
_FACES = tuple(tuple(f for f in range(4) if m >> f & 1) for m in range(16))
_POP = tuple(map(len, _FACES))
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
    owner = [-1, -1, -1, -1]   # squares owning X+, X-, Y+, Y-
    # the live cones [q, rx, ry, lx, ly], quadrant q = a + 2b with a = 0 for
    # s_x = +1 and b = 0 for s_y = +1; ``slot[q]`` is quadrant q's or None,
    # and ``cones`` is rebuilt from it only when a cone dies
    cones = slot = None
    targets = []
    prefix = moved = segs = arcs = 0
    cap = 0                # min(4, 2 x live cones): the most faces they can show
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
            owner[0] = j
            step_moved = True
        if fx < xm:
            xm = fx
            owner[1] = j
            step_moved = True
        if ey > yp:
            yp = ey
            owner[2] = j
            step_moved = True
        if fy < ym:
            ym = fy
            owner[3] = j
            step_moved = True
        if cones is None:
            if ex <= 0.0 <= fx and ey <= 0.0 <= fy:
                prefix += 1
                if watch is not None:
                    watch(j, "PREFIX", (xp, xm, yp, ym), cones)
                continue
            # only the quadrants whose far faces this square leaves
            # non-negative start a cone
            slot = [[0, 1.0, 0.0, 0.0, 1.0] if fx >= 0.0 <= fy else None,
                    [1, 1.0, 0.0, 0.0, 1.0] if ex <= 0.0 <= fy else None,
                    [2, 1.0, 0.0, 0.0, 1.0] if fx >= 0.0 >= ey else None,
                    [3, 1.0, 0.0, 0.0, 1.0] if ex <= 0.0 >= ey else None]
            cones = list(filter(None, slot))
            cap = min(4, 2 * len(cones))
            step_moved = False      # INIT is counted apart
            died = not cones        # never, as ex <= fx and ey <= fy
        else:
            died = False
        gauge = arcs < cap
        shown = 0
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
                died = True
                continue
            rx, ry, lx, ly = c[1], c[2], c[3], c[4]
            if xn > xf:             # no matching with u_x > 0
                rx = 0.0
                ry = 1.0
            if yn > yf:             # none with u_y > 0
                lx = 1.0
                ly = 0.0
            if xn > 0.0 and lx * yf < ly * xn:
                lx = xn
                ly = yf
            if yn > 0.0 and ry * xf < rx * yn:
                rx = xf
                ry = yn
            if rx * ly < ry * lx:
                slot[q] = None
                died = True
                continue
            c[1] = rx
            c[2] = ry
            c[3] = lx
            c[4] = ly
            if gauge:
                # the faces this cone's wavefront shows: X where it binds
                # toward l, Y where it binds toward r
                if xn > 0.0 and (yn <= 0.0 or ly * xn > lx * yn):
                    shown |= 1 << (q & 1)
                if yn > 0.0 and (xn <= 0.0 or ry * xn < rx * yn):
                    shown |= 4 << (q >> 1)
        if died:
            cones = list(filter(None, slot))
            if not cones:
                aborted = True
                if watch is not None:
                    watch(j, "WEDGE_EMPTY", (xp, xm, yp, ym), cones)
                break
            if len(cones) == 1:
                cap = 2
        if watch is not None:
            watch(j, "INIT" if j == i + 1 + prefix else "BB" if step_moved else "MM",
                  (xp, xm, yp, ym), cones)
        moved += step_moved
        if gauge:
            k = _POP[shown]
            if k > segs:
                segs = k
            if k > arcs:
                # the distinct squares owning the shown faces
                f = _FACES[shown]
                if k == 2:
                    k = 1 + (owner[f[0]] != owner[f[1]])
                elif k > 2:
                    k = len({owner[g] for g in f})
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
