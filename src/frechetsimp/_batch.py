"""Batched L2 sweeps: many start vertices' steps in numpy, one-arc runs in
tiles and multi-arc steps in lockstep.

``_engine.sweeps`` hands a block of start vertices here when it sweeps
Euclidean disks; squares (Linf, and L1 on its image) never come here.  A
sweep whose wavefront is one arc (or still empty) takes its PREFIX, INIT, BB
and WEDGE_EMPTY steps in tiles of start vertices x steps, which a few running
scans compute at once.  A sweep whose wavefront holds 1 to ``_K`` arcs takes
its BB, MB, BM, MM and WEDGE_EMPTY steps in lockstep with the block's other
such sweeps, one step (column) at a time, since each step reads the arcs
the one before left.  Every other step is ``Sweep._step``'s, from the same
state, and the sweep rejoins the lockstep on the next step its wavefront
fits.  The block calls the numpy mirrors of ``CircleKernel``'s primitives
(``tangent_points_np``, whose ``inside`` mask is ``Sweep._step``'s
apex-in-C_j rule, ``ray_hits_np``, ``boundary_intersections_np``,
``on_near_side_np`` and ``contains_np``).  Keys and distances come from
``math.atan2`` and ``math.hypot``, one call per element (``libm_np``); numpy
does only + - * /, sqrt, comparisons and ``np.where`` selections, each
mirroring a scalar conditional in its order, so every target, counter,
gauge, final state and exception is the per-start loop's, bit for bit.
"""
from __future__ import annotations

import math

import numpy as np

from ._engine import _HALF_PI, _KEY_SLACK, _PI, _TAU, EPS_ANGLE, EPS_REL, VALID, Arc, Sweep
from .geometry import CircleKernel, libm_np

_LIVE_ROWS = 160        # live rows per step of a block, on average (``_blocks``)
_TILE_SIZE = 2048       # rows x steps of one tile, at most
_MIN_COLS, _MAX_COLS = 8, 64
_K = 4                  # arcs of a lockstep row, at most
_SLOTS = np.arange(_K)
# a lockstep column costs a few hundred numpy calls (about 1 ms) whatever its
# row count, and a scalar step about 15 us: fewer rows, discounted by the share
# of its steps the last column handed back, take the scalar steps instead
# (56, not the break-even ~90, keeps the drift walks' scalar share below 10%)
_LOCKSTEP_MIN_ROWS = 56

# batch row modes: in a tile (no arc or one arc), in lockstep, in the scalar code
_NO_ARC, _ONE_ARC, _LOCKSTEP, _SCALAR, _DONE = range(5)
# carried state of a batch row: frame, wedge and unit rays, and per arc
_W = ("rot", "kr", "kl", "urx", "ury", "ulx", "uly")
_A = ("k0", "k1", "x0", "y0", "x1", "y1", "cx", "cy", "ck")
_PAD = [(0.0,) * len(_A)] * _K              # the unused arc slots of a row
_K0X0Y0 = np.array([0, 2, 3])               # an arc's right end, and its left end
_K1X1Y1 = np.array([1, 4, 5])
# the cases a batch row counts until they are folded into its Sweep's stats,
# and its other counters and gauges
_BC = ("PREFIX", "INIT", "BB", "MB", "BM", "MM", "WEDGE_EMPTY")
_PRE, _INI, _BB, _MB, _BM, _MM, _WE = range(len(_BC))
_INS, _REM, _ARCS = range(3)


def batched_sweeps(pts, starts: list, delta: float):
    """Per start vertex, in order: its sweep's (targets, sweep) pair or the
    exception it raised, computed in blocks (``_blocks``)."""
    coords = np.asarray(pts, dtype=float).reshape(-1, 2)
    X = np.ascontiguousarray(coords[:, 0])
    Y = np.ascontiguousarray(coords[:, 1])
    cuts = _blocks(len(pts), starts)
    for a, b in zip(cuts, cuts[1:]):
        yield from Block(pts, X, Y, starts[a:b], delta).run()


def _blocks(n: int, starts: list) -> list:
    """Cuts of ``starts`` into blocks whose sweeps take ``_LIVE_ROWS`` steps
    per step of the longest, about: then each lockstep column's fixed cost is
    shared by about as many rows at any n, and a step costs about the same.
    A block of the shortest sweeps holds twice as many as one of long sweeps,
    and a last block too thin for the lockstep joins the one before."""
    cuts = [0]
    steps = longest = 0
    for k, i in enumerate(starts):
        m = n - 1 - i
        if steps + m > _LIVE_ROWS * max(longest, m, 1):
            cuts.append(k)
            steps = longest = 0
        steps += m
        longest = max(longest, m)
    if len(cuts) > 1 and len(starts) - cuts[-1] < _LOCKSTEP_MIN_ROWS:
        cuts.pop()
    return cuts + [len(starts)]


# -- elementwise mirrors of the scalar rules ------------------------------------
# The engine's own rules; the kernels' mirrors sit next to their scalar twins.
# Each takes and returns numpy arrays and does only + - * /, comparisons and
# selections, in the order the scalar code does them, so every float agrees
# with it bit for bit.

def _wrap(a):
    """``Sweep._key``'s wrap into (-pi, pi]."""
    return np.where(a <= -_PI, a + _TAU, np.where(a > _PI, a - _TAU, a))


def _letters(w, q1, q2, delta):
    """Where ``_side(w, q1, q2, delta)`` is "B", and where it is "M"."""
    tau = EPS_REL * (delta + w + q2)
    d = w - q1
    deg = (q2 - q1 <= tau) & (-tau <= d) & (d <= tau)
    return ~deg & (w < q1 - tau), deg | ((q1 + tau < w) & (w < q2 - tau))


def _count_le(keys, valid, x):
    """Per row, how many valid keys are <= x: ``bisect_right`` on sorted keys."""
    return ((keys <= x[:, None]) & valid).sum(1)


def _pick(v, kk, xs, ys, coinc, at, least):
    """The crossings of (point, row, slot) arrays on each row's arc ``at``:
    (any, coincident, key, x, y) of the one of least key where ``least``,
    else of greatest, as ``_arc_crossings`` orders them."""
    f0 = np.arange(at.size) * _K + at
    f1 = f0 + at.size * _K
    v0 = v.take(f0)
    v1 = v.take(f1)
    k0 = kk.take(f0)
    k1 = kk.take(f1)
    swap = v0 & v1 & (k1 < k0)
    t1 = np.where(least, v1 & (~v0 | swap), v1 & ~swap)
    return (v0 | v1, coinc.take(f0), np.where(t1, k1, k0),
            np.where(t1, xs.take(f1), xs.take(f0)), np.where(t1, ys.take(f1), ys.take(f0)))


def _lag(x, carry, first, col):
    """x one column later: column c holds x[:, c-1], and ``carry`` up to column ``first``."""
    out = np.empty_like(x)
    out[:, 1:] = x[:, :-1]
    out[:, 0] = carry
    np.copyto(out, carry[:, None], where=col <= first)
    return out


def _cone(A, rot):
    """Per step, from the atan2s of C_j's center and of its touch points 0 and 1
    (stacked on the first axis): the center key k (as ``_locate``), its
    unwrapped ck, the right and left touch points' offsets from ck, and
    whether touch point 1 (not 0) is the right and the left one, as
    ``_step_proper`` picks them."""
    a = _wrap(A - rot)
    k = a[0]
    ck = np.where(k <= -_HALF_PI, k + _TAU, k)
    off = a[1:] - ck
    wrap = (off <= -_PI) | (off > _PI)
    if wrap.any():
        off = np.where(wrap, _wrap(np.fmod(off, _TAU)), off)
    rs = off[1] < off[0]
    ls = off[1] > off[0]
    return k, ck, np.where(rs, off[1], off[0]), np.where(ls, off[1], off[0]), rs, ls


def _ffill(setting, col, ux, uy, carry_x, carry_y):
    """The unit ray each step ends with: (ux, uy) of the last step at or before
    it that set the ray (``setting``), else the carried ray."""
    src = np.maximum.accumulate(np.where(setting, col, -1), 1)
    pick = (np.arange(len(src))[:, None], np.maximum(src, 0))
    return (np.where(src >= 0, ux[pick], carry_x[:, None]),
            np.where(src >= 0, uy[pick], carry_y[:, None]))


def _clip_end(cut, ax, ay, ux, uy, cx, cy, x, y, delta):
    """``Sweep._clip`` at one end: the end point moves to where the wedge ray
    (ux, uy) crosses the arc's circle, where ``cut``.  Returns (x, y, missed),
    ``missed`` where the ray misses the circle (the scalar grazes or raises)."""
    lo, hi, hit = CircleKernel.ray_hits_np(ax, ay, ux, uy, cx, cy, delta)
    t = np.where(lo < 0.0, hi, lo)
    return np.where(cut, ax + t * ux, x), np.where(cut, ay + t * uy, y), cut & ~hit


class Block:
    """Sweeps of a block of start vertices, advanced one tile at a time.

    A tile is the block's rows times a few steps.  First every row whose
    wavefront is one arc (or still empty) takes its PREFIX, INIT, BB and
    WEDGE_EMPTY steps in one pass of array operations: kr is a running max
    of the cones' right keys, kl = max(kr, running min of the left keys),
    the unit rays are forward-filled from the last step that set them, and
    the arc a step clips is the previous step's.  At its first step of any
    other kind the row joins the lockstep.  Then the tile's steps run one
    column at a time: the rows holding 1 to ``_K`` arcs (a padded array per
    arc field, and a count) take their BB, MB, BM, MM and WEDGE_EMPTY steps
    together (``_lockstep``), mirroring ``_clip``, ``_locate``, ``_narrow``,
    the crossing scans and the splices.  A step of any other kind (TT, TM,
    MT, TT_EMPTY, an MM other than one arc crossing in from each side, a
    ``_side`` tie, a graze, a coincident crossing, a seam shift, keys out of
    order, the apex inside C_j, a zero offset, a locate that would raise, or
    more than ``_K`` arcs after it) is ``Sweep._step``'s, from the same
    state, and the row rejoins the lockstep on its next step if its wavefront
    fits.  Once a column has fewer than ``_LOCKSTEP_MIN_ROWS`` rows
    (discounted by the share the last column handed back), the rest of the
    tile is the scalar code's.  At the tile's end the rows left with one arc
    go back to the tiles.  Every path marks the targets it finds in ``tgt``,
    by row and step offset.

    Tiles start ``_MIN_COLS`` steps wide and double up to ``_MAX_COLS``,
    within ``_TILE_SIZE`` elements: the first steps of a sweep are where
    most hand off or abort, and long sweeps then take few array calls.
    """

    def __init__(self, pts, X, Y, starts, delta):
        n = len(pts)
        rows = len(starts)
        self.n = n
        self.X, self.Y, self.delta = X, Y, delta
        self.I = I = np.asarray(starts, dtype=np.intp)
        self.last = (n - 1) - I                    # offset of each row's last step
        self.AX = X[I]
        self.AY = Y[I]
        self.sws = [Sweep(pts, i, delta, CircleKernel) for i in starts]
        self.res = [None] * rows
        self.mode = np.full(rows, _NO_ARC)
        self.W = np.zeros((len(_W), rows))
        self.A = np.zeros((len(_A), rows, _K))
        self.IDX = np.zeros((rows, _K), dtype=np.intp)
        self.cnt = np.zeros(rows, dtype=np.intp)
        # case counts and the column each case first came at, since the last fold
        self.C = np.zeros((len(_BC), rows), dtype=np.int64)
        self.FIRST = np.full((len(_BC), rows), np.inf)
        self.G = np.zeros((3, rows), dtype=np.int64)
        self.nxt = np.zeros(rows, dtype=np.intp)    # offset of a lockstep or scalar row's step
        self.taken = 1.0        # share of its rows' steps the last lockstep column took
        # the targets found so far, by row and offset
        self.tgt = np.zeros((rows, max(int(self.last.max()), 0) + 1), dtype=bool)

    def run(self):
        """Yields per start vertex, in order, its (targets, sweep) pair or the
        exception it raised; each as soon as it and those before it are done."""
        self._finish(np.nonzero(self.last <= 0)[0], False)
        o0 = 1
        w = _MIN_COLS // 2
        ready = 0
        while ready < len(self.res):
            while ready < len(self.res) and self.res[ready] is not None:
                yield self.res[ready]
                self.res[ready] = self.sws[ready] = None
                ready += 1
            if ready == len(self.res):
                return
            rows = np.nonzero(self.mode <= _ONE_ARC)[0]
            w = min(2 * w, _MAX_COLS, max(_MIN_COLS, _TILE_SIZE // max(rows.size, 1)))
            o1 = o0 + w
            with np.errstate(all="ignore"):
                if rows.size:
                    self._tile(rows, o0, o1)
                self._finish(np.nonzero((self.mode <= _ONE_ARC) & (self.last < o1))[0], False)
                out = np.nonzero((self.mode == _LOCKSTEP) | (self.mode == _SCALAR))[0]
                self.taken = 1.0
                for c in range(o0, o1):
                    out = out[self.mode[out] != _DONE]
                    act = out[self.nxt[out] == c]
                    if act.size * self.taken < _LOCKSTEP_MIN_ROWS:
                        # too few steps for the lockstep: the rest of the
                        # tile is the scalar code's, row by row
                        self._leave(out[self.mode[out] == _LOCKSTEP])
                        for r in out.tolist():
                            self._scalar(r, o1)
                        break
                    self._column(act, c)
            # rows left with one arc go back to the tiles
            self.mode[(self.mode == _LOCKSTEP) & (self.cnt == 1)] = _ONE_ARC
            self._load([r for r in np.nonzero(self.mode == _SCALAR)[0].tolist()
                        if len(self.sws[r].arcs) == 1], _ONE_ARC)
            o0 = o1

    # -- rows entering and leaving the batch -------------------------------------

    def _store(self, rows):
        """The rows' carried state into their Sweeps."""
        if not rows.size:
            return
        for r, (rot, kr, kl, urx, ury, ulx, uly), arcs, idx, m in zip(
                rows.tolist(), self.W[:, rows].T.tolist(), self.A[:, rows].transpose(1, 2, 0).tolist(),
                self.IDX[rows].tolist(), self.cnt[rows].tolist()):
            sw = self.sws[r]
            sw.rot, sw.kr, sw.kl = rot, kr, kl
            sw.ur = (urx, ury)
            sw.ul = (ulx, uly)
            sw.arcs = [Arc(k0, k1, x0, y0, x1, y1, cx, cy, i, ck)
                       for (k0, k1, x0, y0, x1, y1, cx, cy, ck), i in zip(arcs[:m], idx)]
            sw.keys = [a.k0 for a in sw.arcs]

    def _load(self, rows, mode):
        """The Sweeps' states (1 to _K arcs) into the rows' carried state."""
        if not len(rows):
            return
        wedges, arcs, idx, counts = [], [], [], []
        for r in rows:
            sw = self.sws[r]
            wedges.append((sw.rot, sw.kr, sw.kl, sw.ur[0], sw.ur[1], sw.ul[0], sw.ul[1]))
            arcs += [(a.k0, a.k1, a.x0, a.y0, a.x1, a.y1, a.cx, a.cy, a.ck) for a in sw.arcs]
            arcs += _PAD[len(sw.arcs):]
            idx += [a.idx for a in sw.arcs] + [0] * (_K - len(sw.arcs))
            counts.append(len(sw.arcs))
        self.W[:, rows] = np.array(wedges).T
        self.A[:, rows] = np.array(arcs).reshape(len(rows), _K, len(_A)).transpose(2, 0, 1)
        self.IDX[rows] = np.array(idx).reshape(len(rows), _K)
        self.cnt[rows] = counts
        self.mode[rows] = mode

    def _fold(self, rows):
        """The rows' batch counters into their Sweeps' stats, cases in the order they came."""
        if not len(rows):
            return
        for r, counts, first, (ins, rem, arcs) in zip(
                rows.tolist(), self.C[:, rows].T.tolist(), self.FIRST[:, rows].T.tolist(),
                self.G[:, rows].T.tolist()):
            st = self.sws[r].stats
            if any(counts):
                st.steps += sum(counts)
                st.aborts += counts[_WE]
                h = st.case_histogram
                for _, case, k in sorted((first[i], _BC[i], k) for i, k in enumerate(counts) if k):
                    h[case] = h.get(case, 0) + k
            st.inserted += ins
            st.removed += rem
            if arcs > st.max_arc_count:
                st.max_arc_count = arcs
        self.C[:, rows] = 0
        self.FIRST[:, rows] = np.inf
        self.G[_INS:_REM + 1, rows] = 0

    def _leave(self, rows):
        """The rows' state and counters into their Sweeps."""
        if not rows.size:
            return
        mode = self.mode[rows]
        self._store(rows[(mode == _ONE_ARC) | (mode == _LOCKSTEP)])
        self._fold(rows)

    def _finish(self, rows, aborted: bool):
        if not rows.size:
            return
        self._leave(rows)
        self.mode[rows] = _DONE
        for r in rows.tolist():
            self.sws[r].aborted = aborted
            self.res[r] = (self._targets(r), self.sws[r])

    def _targets(self, r):
        """Row r's targets, in order."""
        return (self.tgt[r].nonzero()[0] + int(self.I[r])).tolist()

    def _count(self, case, rows, c):
        self.C[case, rows] += 1
        self.FIRST[case, rows] = np.minimum(self.FIRST[case, rows], c)

    # -- one column: the lockstep rows together, the others one by one ------------

    def _scalar(self, r, o1: int):
        """``sweep_targets``' loop over row r's steps up to offset o1."""
        sw = self.sws[r]
        i = int(self.I[r])
        found = []
        self.mode[r] = _SCALAR
        try:
            for j in range(i + int(self.nxt[r]), min(i + o1, self.n)):
                if sw.locate_vertex(j) is VALID:
                    found.append(j - i)
                sw._step(j)
                if sw.aborted:
                    break
        except Exception as exc:  # noqa: BLE001 - raised again in the row's turn
            self.res[r] = exc
            self.mode[r] = _DONE
            return
        self.tgt[r, found] = True
        if sw.aborted or i + o1 >= self.n:
            self.mode[r] = _DONE
            self.res[r] = (self._targets(r), sw)
        self.nxt[r] = o1

    def _column(self, act, c: int):
        """The steps at offset c of the rows ``act``: the lockstep rows'
        together, the others' and those the lockstep hands back one by one;
        these rejoin the lockstep where their wavefront fits."""
        mode = self.mode
        lock = act[mode[act] == _LOCKSTEP]
        if lock.size:
            m = lock.size
            lock = self._lockstep(lock, c)
            self.taken = 1.0 - lock.size / m
            self._leave(lock)
            mode[lock] = _SCALAR
        back = []
        for r in act[mode[act] == _SCALAR].tolist():
            self._scalar(r, c + 1)
            if mode[r] == _SCALAR and 0 < len(self.sws[r].arcs) <= _K:
                back.append(r)
        self._load(back, _LOCKSTEP)
        self.nxt[act] = c + 1
        self._finish(act[(mode[act] == _LOCKSTEP) & (self.last[act] == c)], False)

    def _lockstep(self, rows, c: int):
        """The step at offset c of the lockstep rows; returns those whose step
        is the scalar code's."""
        delta = self.delta
        hits = CircleKernel.ray_hits_np
        atan2 = math.atan2
        hypot = math.hypot
        E = EPS_ANGLE
        R = rows.size
        rix = np.arange(R)
        col = rix[:, None]
        J = self.I[rows] + c
        ax = self.AX[rows]
        ay = self.AY[rows]
        px = self.X[J]
        py = self.Y[J]
        rot, kr, kl, urx, ury, ulx, uly = self.W[:, rows]
        S = self.A[:, rows]
        ID = self.IDX[rows]
        n = self.cnt[rows]
        valid = _SLOTS < n[:, None]
        tx0, ty0, tx1, ty1, inside = CircleKernel.tangent_points_np(ax, ay, px, py, delta)
        cone = ~inside                  # C_j has a cone: its tangent points
        # ``fb``: the step is the scalar code's, and nothing computed for it
        # here is kept; so far where the apex lies in C_j and where the keys
        # are out of order (their bisections are then no counts)
        fb = inside | (valid[:, 1:] & (S[0][:, 1:] < S[0][:, :-1])).any(1)
        dx = px - ax
        dy = py - ay
        k, ck, r, l, rs, ls = _cone(libm_np(atan2, np.array([dy, ty0 - ay, ty1 - ay]),
                                            np.array([dx, tx0 - ax, tx1 - ax]),
                                            np.array([cone, cone, cone])), rot)
        r = ck + r
        l = ck + l

        # the wedge: the cone intersected with it, as ``_step_proper``, and
        # the sides it moves (right, left)
        seam = (l < kr - E) | (r > kl + E)
        if seam.any():
            fb |= seam & (~((l + _TAU < kr - E) | (r + _TAU > kl + E))
                          | ~((l + -_TAU < kr - E) | (r + -_TAU > kl + E)))
        nkr = np.where(r > kr, r, kr)
        nkl = np.where(l < kl, l, kl)
        moved = ~seam & np.array([nkr <= r + E, nkl >= l - E])
        abort = seam | (nkl < nkr - E)
        # locate_vertex(j) needs C_j's distance, and a side the cone moves the
        # distance of its touch point: one hypot each
        outside = (k < kr - _KEY_SLACK) | (k > kl + _KEY_SLACK)
        ex = np.array([dx, np.where(rs, tx1, tx0) - ax, np.where(ls, tx1, tx0) - ax])
        ey = np.array([dy, np.where(rs, ty1, ty0) - ay, np.where(ls, ty1, ty0) - ay])
        d = libm_np(hypot, ex, ey, np.concatenate([~outside[None], moved]) & cone)
        ux = ex / d
        uy = ey / d
        fb |= (moved & (d[1:] == 0.0)).any(0)
        urx, ulx = np.where(moved, ux[1:], (urx, ulx))
        ury, uly = np.where(moved, uy[1:], (ury, uly))
        nkl = np.where(nkl < nkr, nkr, nkl)

        # _clip: the arcs outside [nkr, nkl] go; the locate reads arc pos of
        # the arcs before, the first ``_front_dist_at`` tries
        pos = np.maximum(_count_le(S[0], valid, k) - 1, 0)
        at_pos = S[:, rix, pos]
        lo = np.zeros(R, dtype=np.intp)
        hi = n - 1
        # with the keys in order, a row keeps every arc unless one of these holds
        drop = (n > 1) & ((S[0][:, 1] <= nkr) | (S[1][:, 0] < nkr - _KEY_SLACK)
                          | (S[0][rix, hi] > nkl))
        if drop.any():
            lo = np.maximum(_count_le(S[0], valid, nkr) - 1, 0)[:, None]
            lo = ((_SLOTS >= lo) & ((_SLOTS >= hi[:, None])
                                    | ~(S[1] < (nkr - _KEY_SLACK)[:, None]))).argmax(1)
            hi = np.maximum(_count_le(S[0], valid, nkl) - 1, lo)[:, None]
            hi = _K - 1 - ((_SLOTS <= hi) & ((_SLOTS <= lo[:, None])
                                             | ~(S[0] > (nkl + _KEY_SLACK)[:, None])))[:, ::-1].argmax(1)
        removed = lo + (n - 1 - hi)
        if lo.any():
            shift = np.minimum(lo[:, None] + _SLOTS, _K - 1)
            S = S[:, col, shift]
            ID = ID[col, shift]
        n = hi - lo + 1
        e = n - 1
        # every ray the step follows, in one call: locate_vertex(j)'s ray on
        # arc pos; the right ray on the first arc and the left on the last,
        # which they cut where they moved in; the left and right rays on C_j
        lo, hi, hit = hits(ax[:, None], ay[:, None],
                           np.array([ux[0], urx, ulx, ulx, urx]).T,
                           np.array([uy[0], ury, uly, uly, ury]).T,
                           np.array([at_pos[6], S[6][:, 0], S[6][rix, e], px, px]).T,
                           np.array([at_pos[7], S[7][:, 0], S[7][rix, e], py, py]).T, delta)
        t = np.where(lo < 0.0, hi, lo)
        fb |= ~outside & ~((at_pos[0] - _KEY_SLACK <= k) & (k <= at_pos[1] + _KEY_SLACK)
                           & hit[:, 0])
        dist = d[0]
        target = ~outside & (dist >= t[:, 0] - EPS_REL * (delta + dist))
        cut0 = S[0][:, 0] < nkr - E
        cut1 = S[1][rix, e] > nkl + E
        fb |= ~abort & ((cut0 & ~hit[:, 1]) | (cut1 & ~hit[:, 2]))
        S[_K0X0Y0, :, 0] = np.where(cut0, (nkr, ax + t[:, 1] * urx, ay + t[:, 1] * ury),
                                    S[_K0X0Y0, :, 0])
        S[_K1X1Y1[:, None], rix, e] = np.where(cut1, (nkl, ax + t[:, 2] * ulx, ay + t[:, 2] * uly),
                                               S[_K1X1Y1[:, None], rix, e])
        q1 = np.where(lo[:, 3:] < 0.0, 0.0, lo[:, 3:])
        q2 = hi[:, 3:]
        hit = hit[:, 3:]

        # _narrow: the left and right wedge rays' letters, from the end arcs'
        # distances and C_j's span on the ray
        live = ~fb & ~abort
        wd = libm_np(hypot, np.array([S[4][rix, e], S[2][:, 0]]).T - ax[:, None],
                     np.array([S[5][rix, e], S[3][:, 0]]).T - ay[:, None],
                     np.array([live, live]).T)
        short, inner = _letters(wd, q1, q2, delta)
        mb = inner[:, 0] & short[:, 1]
        bm = short[:, 0] & inner[:, 1]
        bb = short[:, 0] & short[:, 1]
        mm = inner[:, 0] & inner[:, 1]
        fb |= ~abort & ~(hit.all(1) & (mb | bm | bb | mm))

        # the crossings of C_j's boundary with the arcs, on an arc and on its
        # near side: MB takes the least key's on the first arc from the right
        # end with one (_scan_right), BM the greatest key's on the first from
        # the left (_scan_left); MM (_case_mm, where C_j's boundary meets the
        # wavefront between the rays) the greatest key's on arc pos, where
        # C_j's center key falls among the arcs', and the least key's on arc
        # pos - 1.  A right end moves to crossing R (MB, MM), a left end to L
        # (BM, MM); any other outcome of the scans is the scalar code's.
        eR = np.zeros(R, dtype=np.intp)
        eL = np.zeros(R, dtype=np.intp)
        kR, xR, yR, kL, xL, yL = np.zeros((6, R))
        b = (~fb & ~abort & (mb | bm | mm)).nonzero()[0]
        if b.size:
            Sb = S[:, b]
            nb = n[b]
            bx = ax[b][:, None]
            by = ay[b][:, None]
            x0, y0, x1, y1, m, coinc = CircleKernel.boundary_intersections_np(
                Sb[6], Sb[7], px[b][:, None], py[b][:, None], delta)
            inb = _SLOTS < nb[:, None]
            want = inb & ~coinc
            xs = np.array([x0, x1])
            ys = np.array([y0, y1])
            near = CircleKernel.on_near_side_np(bx, by, Sb[6], Sb[7], xs, ys, delta,
                                                np.array([want & (m >= 1), want & (m >= 2)]))
            kk = _wrap(libm_np(atan2, ys - by, xs - bx, near) - rot[b][:, None])
            v = near & (Sb[0] - _KEY_SLACK <= kk) & (kk <= Sb[1] + _KEY_SLACK)
            found = v[0] | v[1] | (inb & coinc)
            mbb = mb[b]
            mmb = mm[b]
            pos = ((Sb[8] > ck[b][:, None]) & inb).sum(1)
            at = np.where(mbb, found.argmax(1),
                          np.where(mmb, np.minimum(pos, _K - 1), _K - 1 - found[:, ::-1].argmax(1)))
            gotA, coinA, kA, xA, yA = _pick(v, kk, xs, ys, coinc, at, mbb)
            bad = ~gotA | coinA
            if mmb.any():
                atB = np.maximum(pos - 1, 0)
                gotB, coinB, kB, xB, yB = _pick(v, kk, xs, ys, coinc, atB, True)
                # _case_mm's first test: both arcs' ends inside C_j
                br = np.arange(b.size)
                ends_in = CircleKernel.contains_np(
                    px[b], py[b], np.array([Sb[2, br, atB], Sb[4, br, atB], Sb[2, br, at], Sb[4, br, at]]),
                    np.array([Sb[3, br, atB], Sb[5, br, atB], Sb[3, br, at], Sb[5, br, at]]),
                    delta, 4.0 * EPS_REL, np.array([mmb, mmb, mmb, mmb])).all(0)
                bad |= mmb & ((pos < 1) | (pos >= nb) | ~gotB | coinB | ends_in
                              | (inb[:, 1:] & (Sb[8][:, 1:] > Sb[8][:, :-1])).any(1))
                eL[b] = np.where(mmb, atB, at)
                kL[b] = np.where(mmb, kB, kA)
                xL[b] = np.where(mmb, xB, xA)
                yL[b] = np.where(mmb, yB, yA)
            else:
                eL[b] = at
                kL[b] = kA
                xL[b] = xA
                yL[b] = yA
            fb[b[bad]] = True
            eR[b] = at
            kR[b] = kA
            xR[b] = xA
            yR[b] = yA
        fb |= ~abort & ((mb & (n - eR + 1 > _K)) | (bm & (eL + 2 > _K)) | (mm & (n == _K)))

        # the splices: the crossed arcs end at the crossings, and the new arc
        # goes in front of them (MB), after them (BM), between them (MM) or
        # in place of all (BB)
        done = ~fb
        live = done & ~abort
        toR = mb | mm
        toL = bm | mm
        p = (live & toR).nonzero()[0]
        if p.size:
            e = eR[p]
            S[_K0X0Y0[:, None], p, e] = (kR[p], xR[p], yR[p])
            S[1, p, e] = np.where(S[1, p, e] < kR[p], kR[p], S[1, p, e])
        p = (live & toL).nonzero()[0]
        if p.size:
            e = eL[p]
            S[_K1X1Y1[:, None], p, e] = (kL[p], xL[p], yL[p])
            S[0, p, e] = np.where(S[0, p, e] > kL[p], kL[p], S[0, p, e])
        new = (np.where(toL, kL, nkr), np.where(toR, kR, nkl),
               np.where(toL, xL, ax + q1[:, 1] * urx), np.where(toL, yL, ay + q1[:, 1] * ury),
               np.where(toR, xR, ax + q1[:, 0] * ulx), np.where(toR, yR, ay + q1[:, 0] * uly),
               px, py, ck)
        # slot s of the result holds the new arc at ``ins``, else old slot
        # s + sh before it and s + sh - 1 after it (sh: MB's arcs removed)
        ins = np.where(bm, eL + 1, np.where(mm, eR, 0))[:, None]
        src = np.where(_SLOTS == ins, _K, np.minimum(np.maximum(
            _SLOTS - (_SLOTS > ins) + np.where(mb, eR, 0)[:, None], 0), _K - 1))
        S = np.concatenate([S, np.array(new)[:, :, None]], 2)[:, col, src]
        ID = np.concatenate([ID, J[:, None]], 1)[col, src]
        removed += np.where(bb, n, np.where(mb, eR, np.where(bm, n - eL - 1, 0)))
        n = np.where(bb, 1, np.where(mb, n - eR + 1, np.where(bm, eL + 2, n + 1)))

        # commit the state and the counters of the steps taken here
        lr = rows[live]
        self.W[:, lr] = np.array([rot, nkr, nkl, urx, ury, ulx, uly])[:, live]
        self.A[:, lr] = S[:, live]
        self.IDX[lr] = ID[live]
        self.cnt[lr] = n[live]
        self.G[_INS, lr] += 1
        self.G[_REM, lr] += removed[live]
        dr = rows[done]
        self.G[_ARCS, dr] = np.maximum(self.G[_ARCS, dr], self.cnt[dr])
        self._count(np.where(abort, _WE, np.where(bb, _BB, np.where(mb, _MB, np.where(
            bm, _BM, _MM))))[done], dr, c)
        self.tgt[rows[done & target], c] = True
        self._finish(rows[done & abort], True)
        return rows[fb]

    # -- one tile -------------------------------------------------------------

    def _tile(self, rows, o0: int, o1: int):
        """Batch steps o0 .. o1-1 of the rows with no arc or one arc."""
        delta = self.delta
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
        # ``inside``: the apex in C_j, a PREFIX step or a hand-off
        tx0, ty0, tx1, ty1, inside = CircleKernel.tangent_points_np(ax, ay, px, py, delta)
        noarc = self.mode[rows] == _NO_ARC
        proper = inrow & ~inside
        q = np.where(proper.any(1), proper.argmax(1), T)   # a no-arc row's INIT column
        first = np.where(noarc, q, 0)
        need = proper & (col >= first[:, None])
        A = libm_np(math.atan2, np.array([dy, ty0 - ay, ty1 - ay]), np.array([dx, tx0 - ax, tx1 - ax]),
                    np.array([need, need, need]))
        start = np.where(noarc, T, 0)       # first column of a row's one-arc steps

        # PREFIX steps of the rows with no arc: every one is a target
        if noarc.any():
            npre = np.where(noarc, np.minimum(first, last - o0 + 1), 0)
            C[_PRE, rows] += npre
            self.FIRST[_PRE, rows[npre > 0]] = np.minimum(self.FIRST[_PRE, rows[npre > 0]], o0)
            self.tgt[rows, o0:o0 + T] |= col < npre[:, None]

        # INIT: the first proper step sets the frame, the wedge and the arc
        ib = np.nonzero(noarc & (q < T))[0]
        if ib.size:
            iq = q[ib]
            Ai = A[:, ib, iq]
            rot = Ai[0] - 0.5 * _PI
            _, ck, off_r, off_l, rs, ls = _cone(Ai, rot)
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
            erx, ery, elx, ely = trx - iax, tr_y - iay, tlx - iax, tly - iay
            every = np.ones(ib.size, dtype=bool)
            dr = libm_np(math.hypot, erx, ery, every)
            dl = libm_np(math.hypot, elx, ely, every)
            ok = (dr != 0.0) & (dl != 0.0)
            cx = px[ib, iq]
            cy = py[ib, iq]
            # a zero offset: the scalar code's INIT
            h = rows[ib[~ok]]
            self._fold(h)
            self.mode[h] = _SCALAR
            self.nxt[h] = o0 + iq[~ok]
            g = rows[ib[ok]]
            if g.size:
                self.W[:, g] = np.stack([rot, kr, kl, erx / dr, ery / dr, elx / dl, ely / dl])[:, ok]
                self.A[:, g, 0] = np.stack([kr, kl, trx, tr_y, tlx, tly, cx, cy, ck])[:, ok]
                ji = J[ib, iq][ok]
                self.IDX[g, 0] = ji
                self.cnt[g] = 1
                self._count(_INI, g, o0 + iq[ok])
                self.G[_INS, g] += 1
                self.G[_ARCS, g] = np.maximum(self.G[_ARCS, g], 1)
                self.tgt[g, o0 + iq[ok]] = True
                self.mode[g] = _ONE_ARC
                start[ib[ok]] = iq[ok] + 1

        # BB and WEDGE_EMPTY steps of the rows with one arc, from each step's
        # cone in the row's frame: its keys and its right and left touch points
        sub = np.nonzero(start < T)[0]
        if sub.size == rows.size:
            sub = slice(None)
        if not rows[sub].size:
            return
        ax = ax[sub]
        ay = ay[sub]
        k, ck, r, l, rs, ls = _cone(A[:, sub], self.W[0, rows[sub]][:, None])
        del A
        rx = np.where(rs, tx1[sub], tx0[sub]) - ax
        ry = np.where(rs, ty1[sub], ty0[sub]) - ay
        lx = np.where(ls, tx1[sub], tx0[sub]) - ax
        ly = np.where(ls, ty1[sub], ty0[sub]) - ay
        del rs, ls, tx0, ty0, tx1, ty1
        self._one_arc(rows[sub], start[sub], o0, col, inrow[sub], J[sub], ax, ay,
                      px[sub], py[sub], dx[sub], dy[sub], need[sub], inside[sub],
                      k, ck, ck + r, ck + l, rx, ry, lx, ly)

    def _one_arc(self, rows, start, o0, col, inrow, J, ax, ay, px, py, dx, dy,
                 need, early, k, ck, r, l, rx, ry, lx, ly):
        """BB and WEDGE_EMPTY steps of one-arc rows, each from its column ``start`` on.

        ``need`` marks the columns with a proper step from two tangent points,
        and ``early`` those that hand off before any arithmetic of the step.
        Where ``need``, k and ck are C_j's center key (as ``_locate``) and its
        unwrapped twin, r and l the cone's right and left keys, and (rx, ry)
        and (lx, ly) its right and left touch points less the apex.
        """
        delta = self.delta
        ray_hits = CircleKernel.ray_hits_np
        E = EPS_ANGLE
        T = col.size
        rot, kr_in, kl_in, urx_in, ury_in, ulx_in, uly_in = self.W[:, rows]
        k0_in, k1_in, x0_in, y0_in, x1_in, y1_in, cx_in, cy_in, _ = self.A[:, rows, 0]
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
        dr = libm_np(math.hypot, rx, ry, set_r)
        dl = libm_np(math.hypot, lx, ly, set_l)
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
        dc = libm_np(math.hypot, dx, dy, upto)
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
        wx0, wy0, missed = _clip_end(pk0 < kr - E, ax, ay, urx, ury, pcx, pcy,
                                     _lag(nx0, x0_in, s, col), _lag(ny0, y0_in, s, col), delta)
        wx1, wy1, missed_l = _clip_end(pk1 > kl + E, ax, ay, ulx, uly, pcx, pcy,
                                       _lag(nx1, x1_in, s, col), _lag(ny1, y1_in, s, col), delta)
        del pk0, pk1, pcx, pcy
        missed |= missed_l
        f3 = upto & ~seam & ~zero & ~emptied
        bb = (hit & _letters(libm_np(math.hypot, wx1 - ax, wy1 - ay, f3), l1, l2, delta)[0]
              & _letters(libm_np(math.hypot, wx0 - ax, wy0 - ay, f3), r1, r2, delta)[0])
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
        m = np.nonzero(nbb > 0)[0]
        self.C[_BB, rows] += nbb
        self.FIRST[_BB, rows[m]] = np.minimum(self.FIRST[_BB, rows[m]], o0 + start[m])
        self.G[_INS, rows] += nbb
        self.G[_REM, rows] += nbb
        a = np.nonzero(aborts)[0]
        self._count(_WE, rows[a], o0 + f[a])
        self.tgt[rows, o0:o0 + col.size] |= got
        if m.size:
            c = f[m] - 1
            self.W[:, rows[m]] = np.stack([rot[m], kr[m, c], kl[m, c], urx[m, c], ury[m, c],
                                           ulx[m, c], uly[m, c]])
            self.A[:, rows[m], 0] = np.stack([kr[m, c], kl[m, c], nx0[m, c], ny0[m, c],
                                              nx1[m, c], ny1[m, c], px[m, c], py[m, c], ck[m, c]])
            self.IDX[rows[m], 0] = J[m, c]
        # the first step of another kind joins the lockstep
        stop = (f < T) & inrow[fb]
        self._finish(rows[stop & aborts], True)
        h = stop & ~aborts
        self.mode[rows[h]] = _LOCKSTEP
        self.nxt[rows[h]] = o0 + f[h]
