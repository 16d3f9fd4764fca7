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
the scalar path stays deliberately simple.  One vectorized batch loop decides
many shortcuts at once with the same closed comparisons.  It has two callers:
``valid_targets_from`` lists one vertex's targets for the cubic baseline, and
``shortcut_matrix_dense`` builds the whole matrix ``verify`` judges by.
"""
from __future__ import annotations

import functools
import math
from typing import Optional, Sequence

import numpy as np

from .geometry import Metric, lp_distance

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
    """
    return _interval(center, delta, Metric(metric), seg_a, seg_b)


def _interval(center: Sequence[float], delta: float, metric: Metric,
              seg_a: Sequence[float], seg_b: Sequence[float]) -> Optional[Interval]:
    """``ball_segment_interval`` for a ``metric`` that is a ``Metric`` member."""
    cx, cy = center[0], center[1]
    ax, ay = seg_a[0], seg_a[1]
    bx, by = seg_b[0], seg_b[1]
    if metric is Metric.L2:
        return _interval_l2(cx, cy, ax, ay, bx, by, delta)
    if metric is Metric.L1:
        cx, cy = cx + cy, cy - cx
        ax, ay = ax + ay, ay - ax
        bx, by = bx + by, by - bx
    return _interval_linf(cx, cy, ax, ay, bx, by, delta)


def shortcut_is_valid(pts: Sequence[Sequence[float]], i: int, k: int, delta: float,
                      metric: Metric = Metric.L2) -> bool:
    """True iff <p_i, p_k> is a valid shortcut for the polyline under the metric.

    Indices are 0-based with i < k.  k == i+1 is always valid.  The degenerate
    zero-length shortcut (p_i == p_k) is valid iff every bridged vertex lies
    within delta of p_i.  ``metric`` is a ``Metric`` or its value.
    """
    metric = Metric(metric)     # the code below branches on identity
    n = len(pts)
    if not (0 <= i < k < n):
        raise IndexError(f"need 0 <= i < k < {n}, got i={i} k={k}")
    if k == i + 1:
        return True
    pi = pts[i]
    pk = pts[k]
    if pi[0] == pk[0] and pi[1] == pk[1]:
        return all(lp_distance(pts[j], pi, metric) <= delta for j in range(i + 1, k))
    t = 0.0
    for j in range(i + 1, k):
        iv = _interval(pts[j], delta, metric, pi, pk)
        if iv is None:
            return False
        lo, hi = iv
        if lo > t:
            t = lo
        if t > hi:
            return False
    return True


# ---------------------------------------------------------------------------
# Vectorized batch: one greedy loop, cross-checked against the scalar path in
# the tests, and its two callers.
# ---------------------------------------------------------------------------


def linf_image(pts: np.ndarray) -> np.ndarray:
    """(x, y) -> (x + y, y - x) for an (n, 2) array: L1 distances become Linf ones."""
    return np.column_stack((pts[:, 0] + pts[:, 1], pts[:, 1] - pts[:, 0]))


def _greedy_verdicts(coords: np.ndarray, blocks, delta: float, metric: Metric,
                     tile: int) -> np.ndarray:
    """Validity of the shortcuts (a, k) of ``blocks``, concatenated in block order.

    ``coords`` is an (n, 2) float array and ``metric`` a ``Metric`` member.
    Each block is (a, ks): index arrays of the starts and the targets, every
    k > a, that broadcast together.  A one-element ``a`` is shared by the
    whole block (a row), and the terms of j and a then stay one column wide.
    A block is crossed with its bridged vertices j on a (j, pair) grid,
    ``tile`` rows of j at a time, carrying the greedy running max from one j
    tile to the next.
    """
    pts = linf_image(coords) if metric is Metric.L1 else coords
    X = pts[:, 0]
    Y = pts[:, 1]
    verdicts = []
    for a, ks in blocks:
        sx = X[ks] - X[a]                   # segment p_k - p_a, per pair
        sy = Y[ks] - Y[a]
        aa = sx * sx + sy * sy
        zero = aa == 0.0                    # degenerate target p_k == p_a
        jj = np.arange(int(a.min()) + 1, int(ks.max()))[:, None]
        ox = X[jj] - X[a]                   # p_j - p_a: (J, 1) for a shared start
        oy = Y[jj] - Y[a]
        dead = np.zeros(ks.size, dtype=bool)
        for r0 in range(0, jj.size, tile):
            j, px, py = jj[r0:r0 + tile], ox[r0:r0 + tile], oy[r0:r0 + tile]
            if metric is Metric.L2:
                # broadcasted dot keeps this off the BLAS thread pool
                bb = px * sx + py * sy
                cc = px * px + py * py - delta * delta
                disc = bb * bb - aa * cc
                empty = disc < 0.0
                root = np.sqrt(np.maximum(disc, 0.0))
                with np.errstate(divide="ignore", invalid="ignore"):
                    lo = (bb - root) / aa
                    hi = (bb + root) / aa
                if zero.any():
                    lo[:, zero] = 0.0
                    hi[:, zero] = 1.0
                    empty[:, zero] = np.broadcast_to(cc > 0.0, empty.shape)[:, zero]
            else:
                lo, hi, empty = 0.0, 1.0, False
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
                    lo = np.maximum(lo, tl)
                    hi = np.minimum(hi, th)
            # one-sided clamps, matching the scalar path: an interval entirely
            # outside [0,1] stays empty
            lo = np.maximum(lo, 0.0)
            hi = np.minimum(hi, 1.0)
            empty |= lo > hi
            # vertex j only constrains the shortcuts that bridge it, a < j < k
            active = (j > a) & (j < ks)
            lo = np.where(active, lo, -np.inf)
            cm = np.maximum.accumulate(lo, axis=0)
            if r0:                          # the first j tile has nothing to carry
                np.maximum(cm, run, out=cm)
            dead |= (active & (empty | (cm > hi))).any(axis=0)
            run = cm[-1]                    # greedy running max, carried over j tiles
        verdicts.append(~dead)
    return np.concatenate(verdicts)


def valid_targets_from(coords: np.ndarray, i: int, delta: float,
                       metric: Metric = Metric.L2) -> np.ndarray:
    """0-based indices k > i such that <p_i, p_k> is a valid shortcut.

    ``coords`` is an (n, 2) float array.  O((n-i)^2) work, in tiles over the
    targets and the bridged vertices that grow with the remaining suffix
    (capped for cache residency), which keeps the edge-tile overhead
    fraction constant across problem sizes.
    """
    metric = Metric(metric)
    n = coords.shape[0]
    if not (0 <= i < n - 1):
        raise IndexError(f"need 0 <= i < n-1, got i={i}")
    tile = max(64, min(256, (n - 1 - i) // 8))
    ks = np.arange(i + 1, n)
    a = np.array([i])
    blocks = [(a, ks[c:c + tile]) for c in range(0, ks.size, tile)]
    return ks[_greedy_verdicts(coords, blocks, delta, metric, tile)]


@functools.lru_cache(maxsize=64)
def _pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Pairs (i, k) with k >= i+2, the shortcuts that bridge a vertex; read-only."""
    pi, pk = np.nonzero(np.triu(np.ones((n, n), dtype=bool), 2))
    for arr in (pi, pk):
        arr.flags.writeable = False
    return pi, pk


def shortcut_matrix_dense(coords: np.ndarray, delta: float,
                          metric: Metric = Metric.L2) -> np.ndarray:
    """One-shot (n, n) validity matrix for small polylines.

    The greedy loop of ``valid_targets_from``, with all the pairs (i, k >=
    i+2) of a per-n cached list as one block against the whole j axis: much
    faster for the n <= ~40 instances ``verify`` draws.  Every (i, i+1) is
    valid and every k <= i False.
    """
    metric = Metric(metric)
    pts = np.asarray(coords, dtype=float)
    n = pts.shape[0]
    out = np.eye(n, k=1, dtype=bool)
    pi, pk = _pairs(n)
    if pi.size:
        out[pi, pk] = _greedy_verdicts(pts, [(pi, pk)], delta, metric, n)
    return out
