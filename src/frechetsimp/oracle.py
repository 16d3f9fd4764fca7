"""Linear-time decision: is the Frechet distance between a shortcut segment and
the subpolyline it bridges at most delta?

For a single segment against a polyline the Frechet condition collapses to a
monotone matching of the intermediate vertices onto the segment: vertex j must
sit within delta of a segment point seg(t_j) with t_{i+1} <= ... <= t_{k-1}.
Each vertex constrains t to a closed interval (unit balls are convex), so a
greedy left-to-right sweep over the intervals decides feasibility exactly.
Sufficiency follows from convexity: matching vertices monotonically bounds the
distance of every bridged sub-segment by its endpoint distances.

This module is the ground truth the sweep algorithms are verified against, so
the scalar path stays deliberately simple.  One vectorized interval rule,
``_bounds``, decides many (vertex, shortcut) cells at once with the same
closed comparisons.  It has two callers: ``valid_targets_from`` lists one
vertex's targets for the cubic baseline on a tiled (j, k) grid, and
``shortcut_matrix_dense`` builds the whole matrix ``verify`` judges by on a
packed grid that holds each triple i < j < k once.
"""
from __future__ import annotations

import functools
import math
from typing import Optional, Sequence

import numpy as np

from .geometry import Metric, _checked_metric, _finite_vertices, l1_to_linf

Interval = tuple[float, float]


def _interval_l2(cx: float, cy: float, ax: float, ay: float, bx: float, by: float,
                 delta: float) -> Optional[Interval]:
    x0 = ax - cx
    y0 = ay - cy
    vx = bx - ax
    vy = by - ay
    aa = vx * vx + vy * vy
    if aa == 0.0:
        return (0.0, 1.0) if x0 * x0 + y0 * y0 <= delta * delta else None
    bb = x0 * vx + y0 * vy
    cc = x0 * x0 + y0 * y0 - delta * delta
    disc = bb * bb - aa * cc
    if disc < 0.0:
        return None
    root = math.sqrt(disc)
    lo = (-bb - root) / aa
    hi = (-bb + root) / aa
    if lo < 0.0:
        lo = 0.0
    if hi > 1.0:
        hi = 1.0
    if lo > hi:
        return None
    return (lo, hi)


def _interval_linf(cx: float, cy: float, ax: float, ay: float, bx: float, by: float,
                   delta: float) -> Optional[Interval]:
    lo = 0.0
    hi = 1.0
    for p0, v in ((ax - cx, bx - ax), (ay - cy, by - ay)):
        if v == 0.0:
            if abs(p0) > delta:
                return None
            continue
        t1 = (-delta - p0) / v
        t2 = (delta - p0) / v
        if t1 > t2:
            t1, t2 = t2, t1
        if t1 > lo:
            lo = t1
        if t2 < hi:
            hi = t2
    if lo > hi:
        return None
    return (lo, hi)


def ball_segment_interval(center: Sequence[float], delta: float, metric: Metric,
                          seg_a: Sequence[float], seg_b: Sequence[float]) -> Optional[Interval]:
    """The closed set {t in [0,1] : ||center - (a + t(b-a))||_m <= delta}, or None if empty.

    ``metric`` is a ``Metric`` or its value ("l1", "l2" or "linf").
    InvalidInputError for the delta and metric that ``simplify`` rejects and
    for a non-finite coordinate.
    """
    metric = _checked_metric(delta, metric)
    pts = _finite_vertices((center, seg_a, seg_b))
    (cx, cy), (ax, ay), (bx, by) = l1_to_linf(pts) if metric is Metric.L1 else pts
    interval = _interval_l2 if metric is Metric.L2 else _interval_linf
    return interval(cx, cy, ax, ay, bx, by, delta)


def shortcut_is_valid(pts: Sequence[Sequence[float]], i: int, k: int, delta: float,
                      metric: Metric = Metric.L2) -> bool:
    """True iff <p_i, p_k> is a valid shortcut for the polyline under the metric.

    Indices are 0-based with i < k.  k == i+1 is always valid.  The degenerate
    zero-length shortcut (p_i == p_k) is valid iff every bridged vertex lies
    within delta of p_i, decided by the comparisons the batch loop makes (the
    squared L2 length; L1 on its Linf image).  ``metric`` is a ``Metric`` or
    its value.  InvalidInputError for the delta and metric that ``simplify``
    rejects and, where k > i+1, for a non-finite coordinate of p_i ... p_k.
    """
    metric = _checked_metric(delta, metric)     # the code below branches on identity
    n = len(pts)
    if not (0 <= i < k < n):
        raise IndexError(f"need 0 <= i < k < {n}, got i={i} k={k}")
    if k == i + 1:
        return True
    q = _finite_vertices(pts[i:k + 1], i)
    if metric is Metric.L1:
        q = l1_to_linf(q)
    (ax, ay), (bx, by) = q[0], q[-1]
    interval = _interval_l2 if metric is Metric.L2 else _interval_linf
    t = 0.0
    for cx, cy in q[1:-1]:
        iv = interval(cx, cy, ax, ay, bx, by, delta)
        if iv is None:
            return False
        lo, hi = iv
        if lo > t:
            t = lo
        if t > hi:
            return False
    return True


# ---------------------------------------------------------------------------
# Vectorized batch: one interval rule, cross-checked against the scalar path in
# the tests, and its two callers.
# ---------------------------------------------------------------------------


def linf_image(pts: np.ndarray) -> np.ndarray:
    """(x, y) -> (x + y, y - x) for an (n, 2) array: L1 distances become Linf ones."""
    return np.column_stack((pts[:, 0] + pts[:, 1], pts[:, 1] - pts[:, 0]))


def _bounds(px, py, sx, sy, delta: float, metric: Metric):
    """Elementwise (lo, hi, empty) of vertex p_j's interval on shortcut (p_a, p_k).

    (px, py) is p_j - p_a and (sx, sy) is p_k - p_a; the arrays broadcast
    together, and ``metric`` is a ``Metric`` member (L1 coordinates come as
    their Linf image).  The comparisons are the scalar path's: the L2
    quadratic, where a zero-length shortcut takes all of [0,1] iff p_j lies
    within delta of p_a, and the Linf slabs, where a zero direction keeps or
    empties a whole axis.  The L2 ``lo``/``hi`` are clamped to [0,1]
    one-sidedly and the slabs start from [0,1], so an interval entirely
    outside stays empty.
    """
    if metric is Metric.L2:
        # broadcasted dot keeps this off the BLAS thread pool
        aa = sx * sx + sy * sy
        bb = px * sx + py * sy
        cc = px * px + py * py - delta * delta
        disc = bb * bb - aa * cc
        empty = disc < 0.0
        root = np.sqrt(np.maximum(disc, 0.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            lo = (bb - root) / aa
            hi = (bb + root) / aa
        zero = aa == 0.0                    # degenerate shortcut p_k == p_a
        if zero.any():
            lo = np.where(zero, 0.0, lo)
            hi = np.where(zero, 1.0, hi)
            empty = np.where(zero, cc > 0.0, empty)
        lo = np.maximum(lo, 0.0)
        hi = np.minimum(hi, 1.0)
        return lo, hi, empty | (lo > hi)
    else:
        lo, hi = 0.0, 1.0          # the slabs start from [0, 1]
        for p0, v in ((px, sx), (py, sy)):
            with np.errstate(divide="ignore", invalid="ignore"):
                t1 = (p0 - delta) / v
                t2 = (p0 + delta) / v
            tl = np.minimum(t1, t2)
            th = np.maximum(t1, t2)
            vz = v == 0.0
            if vz.any():
                far = np.abs(p0) > delta
                tl = np.where(vz, np.where(far, np.inf, -np.inf), tl)
                th = np.where(vz, np.where(far, -np.inf, np.inf), th)
            lo = np.maximum(tl, lo)    # tl first: a bound of -0.0 yields to lo's 0.0
            hi = np.minimum(hi, th)
        return lo, hi, lo > hi


def valid_targets_from(coords: np.ndarray, i: int, delta: float,
                       metric: Metric = Metric.L2) -> np.ndarray:
    """0-based indices k > i such that <p_i, p_k> is a valid shortcut.

    ``coords`` is an (n, 2) float array.  O((n-i)^2) work on a (j, k) grid,
    in tiles over the targets and the bridged vertices that grow with the
    remaining suffix (capped for cache residency), which keeps the edge-tile
    overhead fraction constant across problem sizes.  The greedy running max
    of ``lo`` is carried from one j tile to the next.
    """
    metric = Metric(metric)
    n = coords.shape[0]
    if not (0 <= i < n - 1):
        raise IndexError(f"need 0 <= i < n-1, got i={i}")
    tile = max(64, min(256, (n - 1 - i) // 8))
    pts = linf_image(coords) if metric is Metric.L1 else coords
    X = pts[:, 0]
    Y = pts[:, 1]
    a = np.array([i])
    ks = np.arange(i + 1, n)
    valid = []
    for c in range(0, ks.size, tile):
        k = ks[c:c + tile]
        sx = X[k] - X[a]                    # segment p_k - p_i, per target
        sy = Y[k] - Y[a]
        jj = np.arange(i + 1, int(k[-1]))[:, None]
        ox = X[jj] - X[a]                   # p_j - p_i, per bridged vertex
        oy = Y[jj] - Y[a]
        dead = np.zeros(k.size, dtype=bool)
        for r0 in range(0, jj.size, tile):
            j = jj[r0:r0 + tile]
            lo, hi, empty = _bounds(ox[r0:r0 + tile], oy[r0:r0 + tile], sx, sy,
                                    delta, metric)
            # vertex j only constrains the shortcuts that bridge it, j < k
            active = j < k
            cm = np.maximum.accumulate(np.where(active, lo, -np.inf), axis=0)
            if r0:                          # the first j tile has nothing to carry
                np.maximum(cm, run, out=cm)
            dead |= (active & (empty | (cm > hi))).any(axis=0)
            run = cm[-1]
        valid.append(~dead)
    return ks[np.concatenate(valid)]


@functools.lru_cache(maxsize=64)
def _packed(n: int):
    """The packed (j, shortcut) grid of ``shortcut_matrix_dense`` for n >= 3 vertices.

    Every shortcut (i, k >= i+2) bridges k-i-1 vertices.  Greedy two-pointer
    packing, longest first: each of the grid's n-2 rows is a bridged vertex,
    and each column holds one long shortcut from the top row down and,
    where the two bridged counts sum to at most n-2, the shortest one left
    from the bottom row up (5,712 cells at n = 30 for 4,060 triples
    i < j < k).  Returns, all read-only: the flat indices a*n+j and a*n+k
    of each cell (start a, bridged vertex j, target k; a cell of neither
    shortcut repeats its top one's first row), the cell masks ``top`` and
    ``bot``, the flat indices i*n+k of the columns' top shortcuts and of
    their bottom ones, and which columns have a bottom one.
    """
    rows = n - 2
    pi, pk = np.nonzero(np.triu(np.ones((n, n), dtype=bool), 2))
    span = pk - pi - 1
    order = np.argsort(-span, kind="stable")
    tops, bots = [], []
    first, last = 0, order.size - 1
    while first <= last:
        tops.append(order[first])
        first += 1
        if first <= last and span[tops[-1]] + span[order[last]] <= rows:
            bots.append(order[last])
            last -= 1
        else:
            bots.append(-1)
    tops = np.array(tops)
    bots = np.array(bots)
    has_bot = bots >= 0
    r = np.arange(rows)[:, None]
    top = r < span[tops]
    skip = rows - np.where(has_bot, span[bots], 0)      # rows above the bottom one
    bot = r >= skip
    a = np.where(bot, pi[bots], pi[tops])
    k = np.where(bot, pk[bots], pk[tops])
    j = np.where(top, pi[tops] + 1 + r,
                 np.where(bot, pi[bots] + 1 + r - skip, pi[tops] + 1))
    bots = bots[has_bot]
    out = (a * n + j, a * n + k, top, bot,
           pi[tops] * n + pk[tops], pi[bots] * n + pk[bots], has_bot)
    for arr in out:
        arr.flags.writeable = False
    return out


def shortcut_matrix_dense(coords: np.ndarray, delta: float,
                          metric: Metric = Metric.L2) -> np.ndarray:
    """One-shot (n, n) validity matrix for small polylines.

    The intervals of ``valid_targets_from`` on the per-n cached packed grid
    of ``_packed``, which holds each triple i < j < k once: much faster for
    the n <= ~40 instances ``verify`` draws.  A column's top shortcut fails
    where the running max of ``lo`` down from the top row exceeds ``hi``,
    its bottom one where ``lo`` exceeds the running min of ``hi`` up from
    the bottom row.  Each scan starts in its own shortcut's rows, and both
    say that some bridged j1 <= j2 has lo[j1] > hi[j2], the greedy test of
    ``shortcut_is_valid``; an empty interval fails the shortcut too.  Every
    (i, i+1) is valid and every k <= i False.
    """
    metric = Metric(metric)
    pts = np.asarray(coords, dtype=float)
    n = pts.shape[0]
    out = np.eye(n, k=1, dtype=bool)
    if n < 3:
        return out
    aj, ak, top, bot, top_at, bot_at, has_bot = _packed(n)
    P = linf_image(pts) if metric is Metric.L1 else pts
    dx = (P[None, :, 0] - P[:, None, 0]).ravel()         # dx[a*n+b] = x_b - x_a
    dy = (P[None, :, 1] - P[:, None, 1]).ravel()
    lo, hi, empty = _bounds(dx[aj], dy[aj], dx[ak], dy[ak], delta, metric)
    flat = out.reshape(-1)
    cm = np.maximum.accumulate(lo, axis=0)
    flat[top_at] = ~(top & (empty | (cm > hi))).any(axis=0)
    cm = np.minimum.accumulate(hi[::-1], axis=0)[::-1]
    flat[bot_at] = ~(bot & (empty | (lo > cm))).any(axis=0)[has_bot]
    return out
