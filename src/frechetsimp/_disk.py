"""Disk sweep: the L2 sweep from one start vertex, with no angles.

With the apex p_i moved to the origin, the sweep keeps its state in plain
vectors:

  * the wedge is two unnormalized rays r (clockwise) and l, never wider
    than pi once the first circle set it, so a direction u lies in it iff
    r x u >= 0 and u x l >= 0 (``x`` the 2D cross product);
  * the wavefront is a list of arcs [x0, y0, x1, y1, cx, cy], right to
    left: each a piece of the near boundary of the disk of centre (cx, cy)
    and radius delta, from the point (x0, y0) on its right to (x1, y1).
    The arcs tile the wedge, so they are ordered by the cross products of
    their end points.

C_j, the disk of vertex j with centre o, holds the apex iff |o|^2 <= delta^2
(both oracles compare the same squares).  Otherwise, with ll = |o|^2 -
delta^2, its tangent points are (ll*o -+ sqrt(ll)*delta*perp(o)) / |o|^2,
which stay two proper directions as the apex nears the circle: a cone
grazing the apex is a half-plane by construction.  Every other decision is
a sign test on products of coordinates:

  * p lies inside C iff |p - c|^2 <= delta^2; outside, it lies short of C
    along its own ray iff (c - p) . p > 0.  So p_k is a target iff it lies
    in the wedge and, against the arc over its direction, inside that arc's
    disk or past it;
  * a wedge ray's letter is M when the wavefront point e on it lies inside
    C_j, B when e lies short of C_j and T when it lies past C_j.  A wedge
    ray that moved onto C_j's tangent point t is B iff t lies in or past
    the wavefront, which needs no point on the ray at all;
  * crossings of C_j with an arc are ordered by cross products, and the
    new disk's place among the arcs' centres (case MM) by a pseudo-angle
    about the first disk's centre, which every centre sees within pi.

The letters of the two wedge rays, left then right, name the step's case
(``simplify.CASES``).  BB makes C_j's near arc the whole wavefront; MB and
BM let it take over from the B ray to its one crossing; TM and MT cut the
wedge back to that crossing; TT cuts it to C_j's two crossings, or ends the
sweep (TT_EMPTY) where there are none; and MM inserts C_j's near arc where
it lies past the wavefront between the rays, if anywhere.  PREFIX counts
the steps before the first disk that leaves out the apex, INIT that disk's
step, and WEDGE_EMPTY the step whose cone misses the wedge.  Every splice
is contiguous and each arc is removed at most once per sweep.  Two
shortcuts skip work whose outcome is known: a scan for C_j's one crossing
passes arcs by an end point, and case MM is a no-op where the arcs beside
C_j's place have both ends in C_j.  On generic inputs every target and
``SweepStats`` field is the one the tests' reference engine (``_engine``)
finds; only a near tie can be decided differently, by these roundings
instead of its tolerances.

``simplify.sweep_rows`` runs this sweep for L2, and ``verify --strict``
passes ``diagnostics.DiskChecker`` as its observer.
"""
from __future__ import annotations

import math
from typing import Sequence

from .geometry import EPS_REL, InternalGeometryError
from .simplify import CASES, SweepStats

(_PREFIX, _INIT, _WEDGE_EMPTY, _TT_EMPTY, _TT, _TM, _MT, _MM, _MB, _BM, _BB) = range(11)
_SPAN = 0.5e-9      # a crossing within about 1e-9 rad of an arc's span is on it
_NEAR = EPS_REL     # ... and on its near side within EPS_REL * delta^2
_COINC = EPS_REL * EPS_REL              # circles closer than EPS_REL * delta coincide
_TOUCH = 4.0 * (1.0 + EPS_REL) ** 2     # ... and within 2 delta (1 + EPS_REL) touch
_TIE = 1e-9        # |e - c|^2 within _TIE * delta^2 of delta^2: e is on C's boundary
_AWAY = "wedge ray points away from the new circle"


def _near(vx, vy, cx, cy, rr):
    """The point where the ray t*(vx, vy), t >= 0, enters the disk of centre
    (cx, cy), for an apex outside it; a ray that misses by a rounding grazes."""
    m = vx * cx + vy * cy
    ll = cx * cx + cy * cy - rr
    disc = m * m - (vx * vx + vy * vy) * ll
    den = m + math.sqrt(disc) if disc > 0.0 else m
    if den <= 0.0:
        raise InternalGeometryError(_AWAY)
    t = ll / den
    return t * vx, t * vy


def _tie(ex, ey, cx, cy, x, y, ccw, rr):
    """The letter of a wedge ray whose wavefront point e, on the arc of
    centre (cx, cy), lies on the boundary of C_j (centre (x, y)) up to
    rounding, as a ray nudged into the wedge sees it: M where that arc,
    followed from e into the wedge (``ccw`` from the right ray), enters C_j
    or runs along it, or where e is C_j's tangent point; else B on C_j's
    near half and T on its far half."""
    tx = cy - ey                # clockwise along a near arc
    ty = ex - cx
    if ccw:
        tx = -tx
        ty = -ty
    enters = tx * (x - ex) + ty * (y - ey) > 0.0
    if enters or (x - cx) ** 2 + (y - cy) ** 2 <= _COINC * rr:    # or runs along C_j
        return "M"
    half = (x - ex) * ex + (y - ey) * ey
    tol = _TIE * (rr + ex * ex + ey * ey)
    return "B" if half > tol else "T" if half < -tol else "M"


def _tangent_tie(tx, ty, cx, cy, rr):
    """The letter of a wedge ray moved onto C_j's tangent point t, where t
    lies on the circle of the arc over it (centre (cx, cy)) up to rounding:
    B where t is the far crossing of that circle, M where it is the near one
    or both."""
    far = (tx - cx) * tx + (ty - cy) * ty
    return "B" if far > _TIE * (rr + tx * tx + ty * ty) else "M"


def _cover(arcs, x, y):
    """Index of the arc over direction (x, y): the last one starting at or
    clockwise of it."""
    lo, hi = 1, len(arcs)
    while lo < hi:
        mid = (lo + hi) // 2
        a = arcs[mid]
        if a[0] * y >= a[1] * x:
            lo = mid + 1
        else:
            hi = mid
    return lo - 1


def _contained(a, x, y, rin):
    """Both end points of arc a within the disk of centre (x, y), squared
    radius ``rin``."""
    dx = a[0] - x
    dy = a[1] - y
    if dx * dx + dy * dy > rin:
        return False
    dx = a[2] - x
    dy = a[3] - y
    return dx * dx + dy * dy <= rin


def _crossings(a, x, y, rr):
    """Crossings of C_j's boundary (centre (x, y)) with arc a, clockwise
    first, or None where the two circles coincide."""
    cx = a[4]
    cy = a[5]
    dx = x - cx
    dy = y - cy
    dd = dx * dx + dy * dy
    if dd <= _COINC * rr:
        return None
    hh = rr - 0.25 * dd
    if hh > 0.0:
        h = math.sqrt(hh / dd)
        hx = h * dy
        hy = -h * dx
    elif dd <= _TOUCH * rr:
        hx = hy = 0.0               # touching circles cross once
    else:
        return ()
    mx = cx + 0.5 * dx
    my = cy + 0.5 * dy
    if mx * hy < my * hx:           # m - h before m + h, clockwise
        hx = -hx
        hy = -hy
    out = ()
    sx, sy, ex, ey = a[0], a[1], a[2], a[3]
    ss = sx * sx + sy * sy
    ee = ex * ex + ey * ey
    # each on the near side of a's circle, and within a's span
    px = mx - hx
    py = my - hy
    qq = px * px + py * py
    if (qq - px * cx - py * cy <= _NEAR * rr and sx * py - sy * px >= -_SPAN * (ss + qq)
            and px * ey - py * ex >= -_SPAN * (ee + qq)):
        out = ((px, py),)
    if hx or hy:
        px = mx + hx
        py = my + hy
        qq = px * px + py * py
        if (qq - px * cx - py * cy <= _NEAR * rr and sx * py - sy * px >= -_SPAN * (ss + qq)
                and px * ey - py * ex >= -_SPAN * (ee + qq)):
            out += ((px, py),)
    return out


def _scan_left(arcs, k, x, y, rr, once=False):
    """From arc k leftward, the first arc C_j crosses: (index, its
    counterclockwise-most crossing), or None.  ``once``: C_j's boundary
    crosses the wavefront once, on the first arc whose right end lies in
    C_j, so the arcs before it are passed by that end point alone."""
    if once:
        while k > 0:
            a = arcs[k]
            dx = a[0] - x
            dy = a[1] - y
            if dx * dx + dy * dy <= rr:
                break
            k -= 1
    while k >= 0:
        crs = _crossings(arcs[k], x, y, rr)
        if crs is None:
            a = arcs[k]
            return k, (a[2], a[3])
        if crs:
            return k, crs[-1]
        k -= 1
    return None


def _scan_right(arcs, k, x, y, rr, once=False):
    """From arc k rightward, the first arc C_j crosses: (index, its
    clockwise-most crossing), or None; ``once`` as for ``_scan_left``."""
    if once:
        last = len(arcs) - 1
        while k < last:
            a = arcs[k]
            dx = a[2] - x
            dy = a[3] - y
            if dx * dx + dy * dy <= rr:
                break
            k += 1
    while k < len(arcs):
        crs = _crossings(arcs[k], x, y, rr)
        if crs is None:
            a = arcs[k]
            return k, (a[0], a[1])
        if crs:
            return k, crs[0]
        k += 1
    return None


def _pseudo(fx, fy, x, y):
    """A key increasing with the angle of (x, y) from (fx, fy), over (-pi, pi]."""
    u = fx * x + fy * y
    w = fx * y - fy * x
    if u >= 0.0:
        return w / (u + abs(w))
    if w >= 0.0:
        return 2.0 - w / (w - u)
    return w / (u + w) - 2.0


def _scan_mm(arcs, k, step, x, y, rr, rin):
    """Case MM: walk from arc k by ``step`` to the first crossing, over arcs
    that pass under C_j; (index, point) or None when this side has none."""
    passed = False
    while 0 <= k < len(arcs):
        crs = _crossings(arcs[k], x, y, rr)
        if crs is None:
            return None
        if crs:
            return k, crs[-1] if step > 0 else crs[0]
        if _contained(arcs[k], x, y, rin):
            if passed:
                raise InternalGeometryError("MM scan passed below arcs into a contained arc")
            return None
        passed = True
        k += step
    if passed:
        raise InternalGeometryError("MM scan ran off the " + ("left" if step > 0 else "right")
                                    + " end")
    return None


def _case_mm(arcs, x, y, rr, fx, fy, insert):
    """C_j meets the wavefront between the wedge rays, if at all; returns the
    arcs (inserted, removed).  ``insert`` is False when the apex lies in
    C_j, which then cannot add an arc."""
    n = len(arcs)
    if x == 0.0 and y == 0.0:
        return 0, 0             # C_j centred on the apex cannot cross here
    rin = rr * (1.0 + 4.0 * EPS_REL) ** 2
    # the arcs' centres run clockwise from right to left; find where C_j's fits
    key = _pseudo(fx, fy, x, y)
    lo, hi = 0, n
    while lo < hi:
        mid = (lo + hi) // 2
        a = arcs[mid]
        if _pseudo(fx, fy, a[4], a[5]) > key:
            lo = mid + 1
        else:
            hi = mid
    pos = lo
    # A near arc spans less than pi of its circle, and the part of that
    # circle inside C_j is one arc of at most pi, so an arc with both ends
    # in C_j lies in C_j: where the arcs beside C_j's place do, C_j cannot
    # cross the wavefront
    if ((pos == 0 or _contained(arcs[pos - 1], x, y, rin))
            and (pos == n or _contained(arcs[pos], x, y, rin))):
        return 0, 0
    up = _scan_mm(arcs, pos, 1, x, y, rr, rin)
    down = _scan_mm(arcs, pos - 1, -1, x, y, rr, rin)
    if up is None and down is None:
        raise InternalGeometryError("MM: circle pokes the wavefront but no crossing found")
    if not insert:
        raise InternalGeometryError("apex-inside circle cannot add a wavefront arc")
    if up is not None and down is not None:
        (i1, p1), (i2, p2) = up, down
        arcs[i1][0], arcs[i1][1] = p1
        arcs[i2][2], arcs[i2][3] = p2
        arcs[i2 + 1:i1] = [[p2[0], p2[1], p1[0], p1[1], x, y]]
        return 1, i1 - i2 - 1
    # both crossings on one arc next to C_j's place
    k = (up or down)[0]
    a = arcs[k]
    crs = _crossings(a, x, y, rr)
    if crs is None or len(crs) != 2:
        raise InternalGeometryError("MM: expected two crossings on one arc")
    (x2, y2), (x1, y1) = crs
    arcs[k + 1:k + 1] = [[x2, y2, x1, y1, x, y], [x1, y1, a[2], a[3], a[4], a[5]]]
    a[2] = x2
    a[3] = y2
    return 2, 0


def _scalar(X: Sequence[float], Y: Sequence[float], i: int, delta: float, watch=None):
    """(targets, stats) of the sweep from start vertex i.  ``watch``, if
    given, is called after every step as ``watch(j, case, arcs, (rx, ry, lx,
    ly))`` with the sweep's own arcs and wedge rays (zero before INIT); a
    step that aborts leaves them as the step before did."""
    ax = X[i]
    ay = Y[i]
    rr = delta * delta
    tie = _TIE * rr
    arcs = []
    rx = ry = lx = ly = 0.0     # the wedge rays, once arcs exist
    fx = fy = 0.0              # the first disk's centre
    targets = []
    count = [0] * 11           # steps by case, in ``CASES`` order
    steps = inserted = removed = max_arcs = 0
    aborted = False
    for j in range(i + 1, len(X)):
        x = X[j] - ax
        y = Y[j] - ay
        # target test on the state after disks i+1 ... j-1: in the wedge, and
        # in or past the disk of the arc over p_j (the apex itself lies short
        # of any wavefront)
        if not arcs:
            targets.append(j)
        elif (x != 0.0 or y != 0.0) and rx * y >= ry * x and x * ly >= y * lx:
            a = arcs[0] if len(arcs) == 1 else arcs[_cover(arcs, x, y)]
            dx = x - a[4]
            dy = y - a[5]
            if dx * dx + dy * dy <= rr or dx * x + dy * y >= 0.0:
                targets.append(j)
        steps += 1
        dd = x * x + y * y
        n = len(arcs)
        kr = 0                  # the arcs over the wedge rays, first and last
        kl = n - 1
        move_r = move_l = False
        if dd > rr:
            ll = dd - rr
            inv = 1.0 / dd
            c = ll * inv
            s = math.sqrt(ll) * delta * inv
            # C_j's tangent points, right and left
            crx = c * x + s * y
            cry = c * y - s * x
            clx = c * x - s * y
            cly = c * y + s * x
            if not n:
                rx, ry, lx, ly = crx, cry, clx, cly
                fx, fy = x, y
                arcs = [[crx, cry, clx, cly, x, y]]
                inserted += 1
                count[_INIT] += 1
                if max_arcs < 1:
                    max_arcs = 1
                if watch is not None:
                    watch(j, "INIT", arcs, (rx, ry, lx, ly))
                continue
            # wedge := wedge ∩ cone: a tangent ray strictly inside the wedge
            # moves that wedge ray onto it, and a wedge ray that stays must
            # lie in the cone
            move_r = rx * cry > ry * crx
            move_l = clx * ly > cly * lx
            if (((move_r or not move_l) and crx * ly < cry * lx)
                    or ((move_l or not move_r) and rx * cly < ry * clx)):
                count[_WEDGE_EMPTY] += 1
                aborted = True
                if watch is not None:
                    watch(j, "WEDGE_EMPTY", arcs, (rx, ry, lx, ly))
                break
        elif not n:
            count[_PREFIX] += 1
            if watch is not None:
                watch(j, "PREFIX", arcs, (rx, ry, lx, ly))
            continue
        # (else the apex lies in C_j: a whole-plane cone, but the letters
        # still run, which keeps the visit order.)  The letters: a moved ray
        # is B iff C_j's tangent point on it lies in or past the arc over it
        # (the arcs beyond it are clipped away), and M where it lies on that
        # arc's near boundary; a wedge ray that stays is M, B or T by its
        # wavefront point, and by ``_tie`` where that lies on C_j's boundary
        if move_r:
            while kr < kl and arcs[kr][2] * cry >= arcs[kr][3] * crx:
                kr += 1
            a = arcs[kr]
            dx = crx - a[4]
            dy = cry - a[5]
            g = dx * dx + dy * dy - rr
            right = ("B" if g < -tie or (g > tie and dx * crx + dy * cry >= 0.0) else "T"
                     if g > tie else _tangent_tie(crx, cry, a[4], a[5], rr))
            rx = crx
            ry = cry
        else:
            a = arcs[0]
            dx = a[0] - x
            dy = a[1] - y
            g = dx * dx + dy * dy - rr
            if g < -tie:
                right = "M"
            elif g > tie:
                right = "B" if dx * a[0] + dy * a[1] < 0.0 else "T"
            else:
                right = _tie(a[0], a[1], a[4], a[5], x, y, True, rr)
        if move_l:
            while kl > kr and clx * arcs[kl][1] >= cly * arcs[kl][0]:
                kl -= 1
            a = arcs[kl]
            dx = clx - a[4]
            dy = cly - a[5]
            g = dx * dx + dy * dy - rr
            left = ("B" if g < -tie or (g > tie and dx * clx + dy * cly >= 0.0) else "T"
                    if g > tie else _tangent_tie(clx, cly, a[4], a[5], rr))
            lx = clx
            ly = cly
        else:
            a = arcs[-1]
            dx = a[2] - x
            dy = a[3] - y
            g = dx * dx + dy * dy - rr
            if g < -tie:
                left = "M"
            elif g > tie:
                left = "B" if dx * a[2] + dy * a[3] < 0.0 else "T"
            else:
                left = _tie(a[2], a[3], a[4], a[5], x, y, False, rr)
        if (move_r and right == "M") or (move_l and left == "M"):
            # a tangent point on the wavefront: clip it to the new wedge as
            # the engine does, and run the case on what is left
            removed += n - 1 - kl + kr
            del arcs[kl + 1:]
            del arcs[:kr]
            if move_r:
                a = arcs[0]
                a[0], a[1] = _near(rx, ry, a[4], a[5], rr)
            if move_l:
                a = arcs[-1]
                a[2], a[3] = _near(lx, ly, a[4], a[5], rr)
            n = len(arcs)
            kr = 0
            kl = n - 1
        case = left + right
        if dd <= rr and "B" in case:
            raise InternalGeometryError(
                f"pattern {case} with the apex inside C_{j} should be impossible")
        # The surgery.  A moved ray is C_j's tangent, so no crossing lies
        # beyond it: the scans start at arcs kr and kl, and the arcs the
        # engine clips away first count as removed by the case.
        if case == "BB":
            # C_j beyond the wavefront on both rays: its near arc between
            # the wedge rays replaces every arc
            x0, y0 = (rx, ry) if move_r else _near(rx, ry, x, y, rr)
            x1, y1 = (lx, ly) if move_l else _near(lx, ly, x, y, rr)
            arcs = [[x0, y0, x1, y1, x, y]]
            removed += n
            inserted += 1
            count[_BB] += 1
            if watch is not None:
                watch(j, "BB", arcs, (rx, ry, lx, ly))
            continue
        if case == "MB":
            # C_j beyond the wavefront at the right ray: its near arc takes
            # over from the right ray to the first crossing
            found = _scan_right(arcs, kr, x, y, rr, True)
            if found is None:
                raise InternalGeometryError("case MB must have one crossing")
            k, (x1, y1) = found
            a = arcs[k]
            a[0] = x1
            a[1] = y1
            x0, y0 = (rx, ry) if move_r else _near(rx, ry, x, y, rr)
            arcs[:k] = [[x0, y0, x1, y1, x, y]]
            removed += k
            inserted += 1
            case = _MB
        elif case == "BM":
            found = _scan_left(arcs, kl, x, y, rr, True)
            if found is None:
                raise InternalGeometryError("case BM must have one crossing")
            k, (x0, y0) = found
            a = arcs[k]
            a[2] = x0
            a[3] = y0
            x1, y1 = (lx, ly) if move_l else _near(lx, ly, x, y, rr)
            arcs[k + 1:] = [[x0, y0, x1, y1, x, y]]
            removed += n - 1 - k
            inserted += 1
            case = _BM
        elif case == "TT":
            found = _scan_left(arcs, kl, x, y, rr)
            if found is None:
                removed += n - 1 - kl + kr
                case = _TT_EMPTY
                aborted = True
            else:
                il, (x1, y1) = found
                found = _scan_right(arcs, kr, x, y, rr)
                if found is None:
                    raise InternalGeometryError("case TT must have two crossings")
                ir, (x0, y0) = found
                if ir > il or x1 * y0 > y1 * x0 + _SPAN * (x0 * x0 + y0 * y0 + x1 * x1 + y1 * y1):
                    raise InternalGeometryError("TT crossings out of order")
                arcs[il][2] = x1
                arcs[il][3] = y1
                arcs[ir][0] = x0
                arcs[ir][1] = y0
                del arcs[il + 1:]
                del arcs[:ir]
                removed += n - 1 - il + ir
                rx, ry, lx, ly = x0, y0, x1, y1
                case = _TT
        elif case == "TM":
            found = _scan_left(arcs, kl, x, y, rr, True)
            if found is None:
                raise InternalGeometryError("case TM must have one crossing")
            k, (lx, ly) = found
            arcs[k][2] = lx
            arcs[k][3] = ly
            del arcs[k + 1:]
            removed += n - 1 - k
            case = _TM
        elif case == "MT":
            found = _scan_right(arcs, kr, x, y, rr, True)
            if found is None:
                raise InternalGeometryError("case MT must have one crossing")
            k, (rx, ry) = found
            arcs[k][0] = rx
            arcs[k][1] = ry
            del arcs[:k]
            removed += k
            case = _MT
        elif case == "MM":
            k, m = _case_mm(arcs, x, y, rr, fx, fy, dd > rr)
            inserted += k
            removed += m
            case = _MM
        else:
            raise InternalGeometryError(f"unreachable wavefront case {case}")
        count[case] += 1
        if watch is not None:
            watch(j, CASES[case], arcs, (rx, ry, lx, ly))
        if aborted:
            break
        if len(arcs) > max_arcs:
            max_arcs = len(arcs)
    hist = {CASES[k]: c for k, c in enumerate(count) if c}
    return targets, SweepStats(max_arc_count=max_arcs, inserted=inserted, removed=removed,
                               steps=steps, aborts=int(aborted), case_histogram=hist)

