"""Batched sweeps: many start vertices' one-arc steps in numpy tiles.

``_engine.sweeps`` hands a block of start vertices here, on either kernel
(disks for L2, squares for Linf and L1 on its image).  While a sweep's
wavefront is one arc (or still empty), its PREFIX, INIT, BB and WEDGE_EMPTY
steps advance in tiles of start vertices x steps; every other step is
``Sweep._step``'s, from the same state.  The block talks to the kernel
through the numpy mirrors of its primitives (``tangent_points_np``,
``ray_hits_np``, and the square's ``arc_segments_np`` for the segment gauge).
Keys and distances come from ``math.atan2`` and ``math.hypot``, one call
per element, since numpy's vectorised versions round differently on some
inputs; numpy does only + - * /, sqrt, comparisons and ``np.where``
selections, each mirroring a scalar conditional in its order, so every
target, counter, final state and exception is the per-start loop's, bit for
bit.
"""
from __future__ import annotations

import math
from array import array

import numpy as np

from ._engine import _HALF_PI, _KEY_SLACK, _PI, _TAU, EPS_ANGLE, EPS_REL, VALID, Arc, Sweep

_BLOCK_ROWS = 256       # start vertices batched together
_TILE_SIZE = 2048       # rows x steps of one tile, at most
_MIN_COLS, _MAX_COLS = 8, 64
_CALM = 8               # BB steps a scalar row must end on to come back

# batch row modes
_NO_ARC, _ONE_ARC, _SCALAR, _DONE = range(4)
# carried state of a batch row: frame, wedge, unit rays, and its one arc
_F = ("rot", "kr", "kl", "urx", "ury", "ulx", "uly",
      "k0", "k1", "x0", "y0", "x1", "y1", "cx", "cy", "ck")
# counters a batch row keeps until they are folded into its Sweep's stats
_C = ("PREFIX", "INIT", "BB", "WEDGE_EMPTY", "segs")


def batched_sweeps(pts, starts: list, delta: float, kern):
    """Per start vertex, in order: its sweep's (targets, sweep) pair or the
    exception it raised, computed in blocks of ``_BLOCK_ROWS``."""
    coords = np.asarray(pts, dtype=float).reshape(-1, 2)
    X = np.ascontiguousarray(coords[:, 0])
    Y = np.ascontiguousarray(coords[:, 1])
    for b in range(0, len(starts), _BLOCK_ROWS):
        yield from Block(pts, X, Y, starts[b:b + _BLOCK_ROWS], delta, kern).run()


# -- elementwise mirrors of the scalar rules ------------------------------------
# The engine's own rules; the kernels' mirrors sit next to their scalar twins.
# Each takes and returns numpy arrays and does only + - * /, comparisons and
# selections, in the order the scalar code does them, so every float agrees
# with it bit for bit.

def _wrap(a):
    """``Sweep._key``'s wrap into (-pi, pi]."""
    return np.where(a <= -_PI, a + _TAU, np.where(a > _PI, a - _TAU, a))


def _touch_offset(a, rot, ck):
    """A touch point's key offset from the center key, as ``_step_proper``."""
    off = _wrap(a - rot) - ck
    return np.where((off <= -_PI) | (off > _PI), _wrap(np.fmod(off, _TAU)), off)


def _short(w, q1, q2, delta):
    """``_side(w, q1, q2, delta) == "B"``."""
    tau = EPS_REL * (delta + w + q2)
    d = w - q1
    return ~((q2 - q1 <= tau) & (-tau <= d) & (d <= tau)) & (w < q1 - tau)


def _libm(fn, a, b, flat):
    """fn(a, b) at the flat indices ``flat``, one ``math`` call per element; nan elsewhere."""
    out = np.full(a.shape, np.nan)
    out.flat[flat] = list(map(fn, a.take(flat).tolist(), b.take(flat).tolist()))
    return out


def _lag(x, carry, first, col):
    """x one column later: column c holds x[:, c-1], and ``carry`` up to column ``first``."""
    out = np.empty_like(x)
    out[:, 1:] = x[:, :-1]
    out[:, 0] = carry
    np.copyto(out, carry[:, None], where=col <= first)
    return out


def _cone(Ac, A0, A1, rot):
    """Per step, from the center and touch point atan2s: the center key k (as
    ``_locate``), its unwrapped ck, the right and left touch points' offsets
    from ck, and whether touch point 1 (not 0) is the right and the left one,
    as ``_step_proper`` picks them."""
    k = _wrap(Ac - rot)
    ck = np.where(k <= -_HALF_PI, k + _TAU, k)
    off0 = _touch_offset(A0, rot, ck)
    off1 = _touch_offset(A1, rot, ck)
    rs = off1 < off0
    ls = off1 > off0
    return k, ck, np.where(rs, off1, off0), np.where(ls, off1, off0), rs, ls


def _ffill(setting, col, ux, uy, carry_x, carry_y):
    """The unit ray each step ends with: (ux, uy) of the last step at or before
    it that set the ray (``setting``), else the carried ray."""
    src = np.maximum.accumulate(np.where(setting, col, -1), 1)
    pick = (np.arange(len(src))[:, None], np.maximum(src, 0))
    return (np.where(src >= 0, ux[pick], carry_x[:, None]),
            np.where(src >= 0, uy[pick], carry_y[:, None]))


def _clip_end(hits, cut, ax, ay, ux, uy, cx, cy, x, y, delta):
    """``Sweep._clip`` at one end: the end point moves to where the wedge ray
    (ux, uy) crosses the arc's circle, where ``cut``; ``hits`` is the kernel's
    ``ray_hits_np``.  Returns (x, y, missed), ``missed`` where the ray misses
    the circle (the scalar grazes or raises)."""
    lo, hi, hit = hits(ax, ay, ux, uy, cx, cy, delta)
    t = np.where(lo < 0.0, hi, lo)
    return np.where(cut, ax + t * ux, x), np.where(cut, ay + t * uy, y), cut & ~hit


class Block:
    """Sweeps of a block of start vertices, advanced one tile at a time.

    A tile is the block's batch rows times a few steps.  Every row whose
    wavefront is one arc (or still empty) takes its PREFIX, INIT, BB and
    WEDGE_EMPTY steps in one pass of array operations: kr is a running max
    of the cones' right keys, kl = max(kr, running min of the left keys),
    the unit rays are forward-filled from the last step that set them, and
    the arc a step clips is the previous step's.  The first step of any
    other kind (another case, a ``_side`` tie, a ray miss, a seam shift, four
    square silhouette corners, the apex inside C_j, a zero offset, or a locate
    that would raise) goes to ``Sweep._step`` from the same state, and the row
    runs there to the end of the tile.  It comes back at a tile boundary once
    its last ``_CALM`` scalar steps were BB steps from one arc to one arc:
    the steps a tile computes past a row's hand-off are wasted, so a row that
    keeps changing state (two-arc states) stays with the scalar step.

    Tiles start ``_MIN_COLS`` steps wide and double up to ``_MAX_COLS``,
    within ``_TILE_SIZE`` elements: the first steps of a sweep are where
    most hand off or abort, and long sweeps then take few array calls.
    """

    def __init__(self, pts, X, Y, starts, delta, kern):
        n = len(pts)
        self.n = n
        self.X, self.Y, self.delta, self.kern = X, Y, delta, kern
        self.I = I = np.asarray(starts, dtype=np.intp)
        self.last = (n - 1) - I                    # offset of each row's last step
        self.AX = X[I]
        self.AY = Y[I]
        self.sws = [Sweep(pts, i, delta, kern) for i in starts]
        self.square = self.sws[0].square            # gauge the square segments
        # targets as packed int64 until a row is done: a block holds many rows' lists
        self.outs = [array("q") for _ in starts]
        self.res = [None] * len(starts)
        self.mode = np.full(len(starts), _NO_ARC)
        self.F = np.zeros((len(_F), len(starts)))
        self.IDX = np.zeros(len(starts), dtype=np.intp)
        self.C = np.zeros((len(_C), len(starts)), dtype=np.int64)
        self.nxt = np.zeros(len(starts), dtype=np.intp)    # next vertex of a scalar row
        self.calm = [0] * len(starts)   # a scalar row's latest run of BB steps from one arc

    def run(self):
        """Yields per start vertex, in order, its (targets, sweep) pair or the
        exception it raised; each as soon as it and those before it are done."""
        for r in np.nonzero(self.last <= 0)[0]:
            self._finish(r, False)
        o0 = 1
        w = _MIN_COLS // 2
        ready = 0
        while ready < len(self.res):
            while ready < len(self.res) and self.res[ready] is not None:
                yield self.res[ready]
                self.res[ready] = self.outs[ready] = self.sws[ready] = None
                ready += 1
            if ready == len(self.res):
                return
            rows = np.nonzero(self.mode <= _ONE_ARC)[0]
            w = min(2 * w, _MAX_COLS, max(_MIN_COLS, _TILE_SIZE // max(rows.size, 1)))
            o1 = o0 + w
            if rows.size:
                with np.errstate(all="ignore"):
                    self._tile(rows, o0, o1)
            for r in np.nonzero(self.mode == _SCALAR)[0]:
                self._scalar(r, min(int(self.I[r]) + o1, self.n))
            for r in np.nonzero((self.mode <= _ONE_ARC) & (self.last < o1))[0]:
                self._finish(r, False)
            o0 = o1

    # -- rows entering and leaving the batch -------------------------------------

    def _store(self, r):
        """The carried one-arc state into the row's Sweep."""
        sw = self.sws[r]
        (sw.rot, sw.kr, sw.kl, urx, ury, ulx, uly,
         k0, k1, x0, y0, x1, y1, cx, cy, ck) = self.F[:, r].tolist()
        sw.ur = (urx, ury)
        sw.ul = (ulx, uly)
        sw.arcs = [Arc(k0, k1, x0, y0, x1, y1, cx, cy, int(self.IDX[r]), ck)]
        sw.keys = [k0]

    def _load(self, r):
        sw = self.sws[r]
        a = sw.arcs[0]
        self.F[:, r] = (sw.rot, sw.kr, sw.kl, sw.ur[0], sw.ur[1], sw.ul[0], sw.ul[1],
                        a.k0, a.k1, a.x0, a.y0, a.x1, a.y1, a.cx, a.cy, a.ck)
        self.IDX[r] = a.idx
        self.mode[r] = _ONE_ARC

    def _fold(self, r):
        """The row's batch counters into its Sweep's stats, in the order the cases came."""
        npre, ninit, nbb, nwe, segs = self.C[:, r].tolist()
        self.C[:, r] = 0
        st = self.sws[r].stats
        st.steps += npre + ninit + nbb + nwe
        h = st.case_histogram
        for case, k in (("PREFIX", npre), ("INIT", ninit), ("BB", nbb), ("WEDGE_EMPTY", nwe)):
            if k:
                h[case] = h.get(case, 0) + k
        st.inserted += ninit + nbb
        st.removed += nbb
        st.aborts += nwe
        if ninit + nbb + nwe and st.max_arc_count < 1:
            st.max_arc_count = 1
        if segs > st.max_segment_count:
            st.max_segment_count = segs

    def _leave(self, r):
        if self.mode[r] == _ONE_ARC:
            self._store(r)
        self._fold(r)

    def _finish(self, r, aborted: bool):
        self._leave(r)
        self.sws[r].aborted = aborted
        self.mode[r] = _DONE
        self.res[r] = (self.outs[r].tolist(), self.sws[r])

    def _hand_off(self, r, o: int):
        """Row r leaves the batch before its step at offset o."""
        self._leave(r)
        self.mode[r] = _SCALAR
        self.nxt[r] = int(self.I[r]) + o
        self.calm[r] = 0

    def _scalar(self, r, end: int):
        """``sweep_targets``' loop from the row's next vertex up to ``end``."""
        sw = self.sws[r]
        out = self.outs[r]
        calm = self.calm[r]
        try:
            for j in range(int(self.nxt[r]), end):
                if sw.locate_vertex(j) is VALID:
                    out.append(j)
                one = len(sw.arcs) == 1
                calm = calm + 1 if sw._step(j) == "BB" and one else 0
                if sw.aborted:
                    break
        except Exception as exc:  # noqa: BLE001 - raised again in the row's turn
            self.res[r] = exc
            self.mode[r] = _DONE
            return
        if sw.aborted or end >= self.n:
            self.mode[r] = _DONE
            self.res[r] = (out.tolist(), sw)
        elif calm >= _CALM:
            self._load(r)
        else:
            self.nxt[r] = end
            self.calm[r] = calm

    # -- one tile -------------------------------------------------------------

    def _tile(self, rows, o0: int, o1: int):
        """Batch steps o0 .. o1-1 of the rows with no arc or one arc."""
        delta = self.delta
        F = self.F
        C = self.C
        last = self.last[rows]
        o1 = min(o1, int(last.max()) + 1)
        col = np.arange(o1 - o0)
        T = col.size
        I = self.I[rows]
        inrow = col <= (last - o0)[:, None]
        J = np.minimum(I[:, None] + (col + o0), self.n - 1)
        ax = self.AX[rows][:, None]
        ay = self.AY[rows][:, None]
        px = self.X[J]
        py = self.Y[J]
        dx = px - ax
        dy = py - ay
        tx0, ty0, tx1, ty1, two = self.kern.tangent_points_np(ax, ay, px, py, delta)
        # the apex in C_j, a PREFIX step or a hand-off: by the kernel's distance,
        # or where the disk's tangent_points finds it inside (as _step_proper)
        if self.square:
            near = np.maximum(np.abs(dx), np.abs(dy)) <= delta
            dc = None
        else:
            dc = _libm(math.hypot, dx, dy, np.flatnonzero(inrow))   # _locate's dist too
            near = (dc <= delta) | ~two
        noarc = self.mode[rows] == _NO_ARC
        proper = inrow & ~near
        q = np.where(proper.any(1), proper.argmax(1), T)   # a no-arc row's INIT column
        first = np.where(noarc, q, 0)
        need = proper & two & (col >= first[:, None])
        flat = np.flatnonzero(need)
        atan2 = math.atan2
        Ac = _libm(atan2, dy, dx, flat)
        A0 = _libm(atan2, ty0 - ay, tx0 - ax, flat)
        A1 = _libm(atan2, ty1 - ay, tx1 - ax, flat)
        del flat
        start = np.where(noarc, T, 0)       # first column of a row's one-arc steps
        handoffs = []

        # PREFIX steps of the rows with no arc: every one is a target
        if noarc.any():
            npre = np.where(noarc, np.minimum(first, last - o0 + 1), 0)
            C[0, rows] += npre
            for b in np.nonzero(npre)[0].tolist():
                j0 = int(I[b]) + o0
                self.outs[rows[b]].extend(range(j0, j0 + int(npre[b])))

        # INIT: the first proper step sets the frame, the wedge and the arc
        ib = np.nonzero(noarc & (q < T))[0]
        if ib.size:
            iq = q[ib]
            ok = two[ib, iq]
            A = Ac[ib, iq]
            rot = A - 0.5 * _PI
            _, ck, off_r, off_l, rs, ls = _cone(A, A0[ib, iq], A1[ib, iq], rot)
            trx = np.where(rs, tx1[ib, iq], tx0[ib, iq])
            tr_y = np.where(rs, ty1[ib, iq], ty0[ib, iq])
            tlx = np.where(ls, tx1[ib, iq], tx0[ib, iq])
            tly = np.where(ls, ty1[ib, iq], ty0[ib, iq])
            shift = ck + 0.5 * (off_r + off_l) - 0.5 * _PI
            rot = rot + shift
            ck = ck - shift
            kr = ck + off_r
            kl = ck + off_l
            iax = ax[ib, 0]
            iay = ay[ib, 0]
            okf = np.flatnonzero(ok)
            erx, ery, elx, ely = trx - iax, tr_y - iay, tlx - iax, tly - iay
            dr = _libm(math.hypot, erx, ery, okf)
            dl = _libm(math.hypot, elx, ely, okf)
            ok &= (dr != 0.0) & (dl != 0.0)
            cx = px[ib, iq]
            cy = py[ib, iq]
            for b in np.nonzero(~ok)[0].tolist():
                handoffs.append((int(rows[ib[b]]), o0 + int(iq[b])))
            g = rows[ib[ok]]
            if g.size:
                F[:, g] = np.stack([rot, kr, kl, erx / dr, ery / dr, elx / dl, ely / dl,
                                    kr, kl, trx, tr_y, tlx, tly, cx, cy, ck])[:, ok]
                ji = J[ib, iq][ok]
                self.IDX[g] = ji
                C[1, g] += 1
                if self.square:
                    segs = self.kern.arc_segments_np(iax, iay, cx, cy, delta,
                                                     trx, tr_y, tlx, tly)[ok]
                    C[4, g] = np.maximum(C[4, g], segs)
                for r, j in zip(g.tolist(), ji.tolist()):
                    self.outs[r].append(j)
                self.mode[g] = _ONE_ARC
                start[ib[ok]] = iq[ok] + 1
        for r, o in handoffs:
            self._hand_off(r, o)

        # BB and WEDGE_EMPTY steps of the rows with one arc, from each step's
        # cone in the row's frame: its keys and its right and left touch points
        sub = np.nonzero(start < T)[0]
        if sub.size == rows.size:
            sub = slice(None)
        if not rows[sub].size:
            return
        ax = ax[sub]
        ay = ay[sub]
        k, ck, r, l, rs, ls = _cone(Ac[sub], A0[sub], A1[sub], F[0, rows[sub]][:, None])
        del Ac, A0, A1
        rx = np.where(rs, tx1[sub], tx0[sub]) - ax
        ry = np.where(rs, ty1[sub], ty0[sub]) - ay
        lx = np.where(ls, tx1[sub], tx0[sub]) - ax
        ly = np.where(ls, ty1[sub], ty0[sub]) - ay
        del rs, ls, tx0, ty0, tx1, ty1
        self._one_arc(rows[sub], start[sub], o0, col, inrow[sub], J[sub], ax, ay,
                      px[sub], py[sub], dx[sub], dy[sub], None if dc is None else dc[sub],
                      need[sub], near[sub] | ~two[sub], k, ck, ck + r, ck + l, rx, ry, lx, ly)

    def _one_arc(self, rows, start, o0, col, inrow, J, ax, ay, px, py, dx, dy, dc,
                 need, early, k, ck, r, l, rx, ry, lx, ly):
        """BB and WEDGE_EMPTY steps of one-arc rows, each from its column ``start`` on.

        ``need`` marks the columns with a proper step from two tangent points,
        and ``early`` those that hand off before any arithmetic of the step.
        Where ``need``, k and ck are C_j's center key (as ``_locate``) and its
        unwrapped twin, r and l the cone's right and left keys, and (rx, ry)
        and (lx, ly) its right and left touch points less the apex.  ``dc`` is
        |p_j - apex| (``math.hypot``) where the caller computed it, or None.
        """
        delta = self.delta
        ray_hits = self.kern.ray_hits_np
        E = EPS_ANGLE
        T = col.size
        (rot, kr_in, kl_in, urx_in, ury_in, ulx_in, uly_in,
         k0_in, k1_in, x0_in, y0_in, x1_in, y1_in, cx_in, cy_in, _) = self.F[:, rows]
        s = start[:, None]
        on = col >= s
        need = need & on
        # the wedge: running max of the right keys, running min of the left
        kr = np.maximum.accumulate(
            np.concatenate([kr_in[:, None], np.where(inrow & on, r, -np.inf)], 1), 1)[:, 1:]
        kl = np.minimum.accumulate(
            np.concatenate([kl_in[:, None], np.where(inrow & on, l, np.inf)], 1), 1)[:, 1:]
        kl = np.where(kl < kr, kr, kl)
        pkr = _lag(kr, kr_in, s, col)
        pkl = _lag(kl, kl_in, s, col)
        seam = (l < pkr - E) | (r > pkl + E)
        empty = seam & (((l + _TAU < pkr - E) | (r + _TAU > pkl + E))
                        & ((l + -_TAU < pkr - E) | (r + -_TAU > pkl + E)))
        nkl = np.where(l < pkl, l, pkl)
        emptied = nkl < kr - E
        # locate_vertex(j) against the wedge the step starts from
        outside = (k < pkr - _KEY_SLACK) | (k > pkl + _KEY_SLACK)
        del pkr, pkl
        # no step runs past a seam or an early exit, nor past an emptied
        # wedge or a zero offset, so the tile is computed up to the first
        halt = on & (~inrow | early | seam)
        f = np.where(halt.any(1), halt.argmax(1), T)[:, None]
        set_r = need & (col < f) & (kr <= r + E)
        set_l = need & (col < f) & (nkl >= l - E)
        del r, l, nkl
        dr = _libm(math.hypot, rx, ry, np.flatnonzero(set_r))
        dl = _libm(math.hypot, lx, ly, np.flatnonzero(set_l))
        zero = (set_r & (dr == 0.0)) | (set_l & (dl == 0.0))
        halt |= on & (zero | emptied)
        f = np.where(halt.any(1), halt.argmax(1), T)
        T2 = min(T, int(f.max()) + 1)
        if T2 < T:
            (col, on, inrow, J, px, py, dx, dy, need, early, seam, empty, zero, emptied,
             k, ck, kr, kl, outside, set_r, set_l, rx, ry, lx, ly, dr, dl) = (
                a[..., :T2] for a in (
                    col, on, inrow, J, px, py, dx, dy, need, early, seam, empty, zero, emptied,
                    k, ck, kr, kl, outside, set_r, set_l, rx, ry, lx, ly, dr, dl))
            if dc is not None:
                dc = dc[:, :T2]
        upto = need & (col <= f[:, None])
        # unit rays, forward-filled from the last step that set them
        urx, ury = _ffill(set_r, col, rx / dr, ry / dr, urx_in, ury_in)
        ulx, uly = _ffill(set_l, col, lx / dl, ly / dl, ulx_in, uly_in)
        del rx, ry, lx, ly, dr, dl, set_r, set_l
        # the previous step's arc
        pk0 = _lag(kr, k0_in, s, col)
        pk1 = _lag(kl, k1_in, s, col)
        pcx = _lag(px, cx_in, s, col)
        pcy = _lag(py, cy_in, s, col)
        # locate_vertex(j) on that arc
        if dc is None:
            dc = _libm(math.hypot, dx, dy, np.flatnonzero(upto))
        lo, hi, hit = ray_hits(ax, ay, dx / dc, dy / dc, pcx, pcy, delta)
        target = ~outside & (dc >= np.where(lo < 0.0, hi, lo) - EPS_REL * (delta + dc))
        early |= ~outside & ~((pk0 - _KEY_SLACK <= k) & (k <= pk1 + _KEY_SLACK) & hit)
        del dx, dy, dc, lo, hi, outside
        # C_j on the wedge rays, and the arc a BB step would make
        lo, r2, hit = ray_hits(ax, ay, urx, ury, px, py, delta)
        r1 = np.where(lo < 0.0, 0.0, lo)
        lo, l2, hit_l = ray_hits(ax, ay, ulx, uly, px, py, delta)
        hit &= hit_l
        l1 = np.where(lo < 0.0, 0.0, lo)
        del lo, hit_l
        nx0 = ax + r1 * urx
        ny0 = ay + r1 * ury
        nx1 = ax + l1 * ulx
        ny1 = ay + l1 * uly
        # that arc clipped to the new wedge, on the wedge rays
        wx0, wy0, missed = _clip_end(ray_hits, pk0 < kr - E, ax, ay, urx, ury, pcx, pcy,
                                     _lag(nx0, x0_in, s, col), _lag(ny0, y0_in, s, col), delta)
        wx1, wy1, missed_l = _clip_end(ray_hits, pk1 > kl + E, ax, ay, ulx, uly, pcx, pcy,
                                       _lag(nx1, x1_in, s, col), _lag(ny1, y1_in, s, col), delta)
        del pk0, pk1, pcx, pcy
        missed |= missed_l
        f3 = np.flatnonzero(upto & ~seam & ~zero & ~emptied)
        bb = (hit & _short(_libm(math.hypot, wx1 - ax, wy1 - ay, f3), l1, l2, delta)
              & _short(_libm(math.hypot, wx0 - ax, wy0 - ay, f3), r1, r2, delta))
        del wx0, wy0, wx1, wy1, r1, r2, l1, l2, f3
        empty = ~early & (empty | (~seam & ~zero & emptied))
        stop = on & (~inrow | early | seam | zero | emptied | missed | ~bb)
        f = np.where(stop.any(1), stop.argmax(1), T)
        rix = np.arange(len(rows))
        fb = (rix, np.minimum(f, T2 - 1))
        aborts = (f < T) & inrow[fb] & empty[fb]
        taken = on & (col < f[:, None])
        got = (taken | ((col == f[:, None]) & aborts[:, None])) & target
        nbb = f - start
        C = self.C
        C[2, rows] += nbb
        C[3, rows] += aborts
        if self.square:
            segs = self.kern.arc_segments_np(ax, ay, px, py, delta, nx0, ny0, nx1, ny1)
            C[4, rows] = np.maximum(C[4, rows], np.where(taken, segs, 0).max(1))
        bi, bj = np.nonzero(got)
        targets = J[bi, bj].astype(np.int64)
        cuts = np.searchsorted(bi, np.arange(len(rows) + 1)).tolist()
        for b, row in enumerate(rows.tolist()):
            if cuts[b] < cuts[b + 1]:
                self.outs[row].frombytes(targets[cuts[b]:cuts[b + 1]].tobytes())
        m = np.nonzero(nbb > 0)[0]
        if m.size:
            c = f[m] - 1
            self.F[:, rows[m]] = np.stack([
                rot[m], kr[m, c], kl[m, c], urx[m, c], ury[m, c], ulx[m, c], uly[m, c],
                kr[m, c], kl[m, c], nx0[m, c], ny0[m, c], nx1[m, c], ny1[m, c],
                px[m, c], py[m, c], ck[m, c]])
            self.IDX[rows[m]] = J[m, c]
        for b in np.nonzero((f < T) & inrow[fb])[0].tolist():
            if aborts[b]:
                self._finish(int(rows[b]), True)
            else:
                self._hand_off(int(rows[b]), o0 + int(f[b]))
