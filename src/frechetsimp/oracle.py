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
the scalar path stays deliberately simple.  A vectorized batch variant feeds
the cubic baseline and the benchmarks; it mirrors the same closed comparisons.
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
# Vectorized batch: all valid shortcut targets from one start vertex.  Used by
# the cubic baseline; kept in lockstep with the scalar greedy above (same
# closed comparisons) and cross-checked against it in the tests.
# ---------------------------------------------------------------------------


def valid_targets_from(coords: np.ndarray, i: int, delta: float,
                       metric: Metric = Metric.L2) -> np.ndarray:
    """0-based indices k > i such that <p_i, p_k> is a valid shortcut.

    ``coords`` is an (n, 2) float array.  Runs the greedy interval sweep for
    every k simultaneously, O((n-i)^2) work, tiled over both the target and
    the bridged-vertex axis.  The tile grows with the remaining suffix
    (capped for cache residency), which keeps the edge-tile overhead
    fraction constant across problem sizes.
    """
    metric = Metric(metric)
    n = coords.shape[0]
    if not (0 <= i < n - 1):
        raise IndexError(f"need 0 <= i < n-1, got i={i}")
    tile = max(64, min(256, (n - 1 - i) // 8))
    pts = coords
    if metric is Metric.L1:
        pts = np.column_stack((coords[:, 0] + coords[:, 1], coords[:, 1] - coords[:, 0]))
    pi = pts[i]
    rest = pts[i + 1:]                      # rows 0..m-1 are vertices i+1..n-1
    m = rest.shape[0]
    valid = np.ones(m, dtype=bool)
    if m <= 1:
        return np.arange(i + 1, n)[valid]
    seg = rest - pi                         # segment vector for target k = row + i+1
    off = rest[:-1] - pi                    # intermediate vertex offsets (vertex i+1..n-2)
    if metric is Metric.L2:
        aa_all = np.einsum("kd,kd->k", seg, seg)
        cc_all = np.einsum("jd,jd->j", off, off) - delta * delta
    for c0 in range(0, m, tile):
        c1 = min(c0 + tile, m)
        sv = seg[c0:c1]                     # (K, 2) targets in this tile
        run = np.full(c1 - c0, -np.inf)     # greedy running max, carried over j tiles
        dead = np.zeros(c1 - c0, dtype=bool)
        for r0 in range(0, min(c1 - 1, off.shape[0]), tile):
            r1 = min(r0 + tile, off.shape[0], c1 - 1)
            ov = off[r0:r1]
            if metric is Metric.L2:
                aa = aa_all[c0:c1]
                # broadcasted dot keeps this off the BLAS thread pool
                bb = ov[:, 0][:, None] * sv[:, 0][None, :] \
                    + ov[:, 1][:, None] * sv[:, 1][None, :]
                cc = cc_all[r0:r1][:, None]
                disc = bb * bb - aa[None, :] * cc
                empty = disc < 0.0
                root = np.sqrt(np.maximum(disc, 0.0))
                with np.errstate(divide="ignore", invalid="ignore"):
                    lo = (bb - root) / aa[None, :]
                    hi = (bb + root) / aa[None, :]
                zero_len = aa == 0.0                         # degenerate target p_k == p_i
                if zero_len.any():
                    inside = cc[:, 0] <= 0.0
                    lo[:, zero_len] = 0.0
                    hi[:, zero_len] = 1.0
                    empty[:, zero_len] = ~inside[:, None]
            else:
                lo = np.zeros((r1 - r0, c1 - c0))
                hi = np.ones_like(lo)
                empty = np.zeros(lo.shape, dtype=bool)
                for d in (0, 1):
                    p0 = ov[:, d][:, None]
                    v = sv[:, d][None, :]
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
            # vertex j only constrains targets k > j
            rows = np.arange(r0, r1)[:, None]
            cols = np.arange(c0, c1)[None, :]
            active = rows < cols
            lo = np.where(active, lo, -np.inf)
            cm = np.maximum.accumulate(lo, axis=0)
            np.maximum(cm, run[None, :], out=cm)
            dead |= (active & (empty | (cm > hi))).any(axis=0)
            run = cm[-1]
        valid[c0:c1] = ~dead
    return np.arange(i + 1, n)[valid]


@functools.lru_cache(maxsize=64)
def _dense_layout(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pairs (i, k) with k >= i+2 and their (pair, j) mask i < j < k; read-only."""
    pi, pk = np.nonzero(np.triu(np.ones((n, n), dtype=bool), 2))
    jj = np.arange(n)[None, :]
    active = (jj > pi[:, None]) & (jj < pk[:, None])
    for arr in (pi, pk, active):
        arr.flags.writeable = False
    return pi, pk, active


def shortcut_matrix_dense(coords: np.ndarray, delta: float,
                          metric: Metric = Metric.L2) -> np.ndarray:
    """One-shot (n, n) validity matrix for small polylines.

    Same semantics as repeated ``valid_targets_from`` but computed in one
    vectorized pass, which is much faster for the n <= ~40 instances the
    randomized verification sweeps through.  Only the pairs (i, k) with
    k >= i+2 bridge a vertex; each is crossed with the whole j axis, a
    (pairs, n) grid whose mask i < j < k comes from ``_dense_layout``, built
    once per n.  Every (i, i+1) is valid and every k <= i False.
    """
    metric = Metric(metric)
    pts = np.asarray(coords, dtype=float)
    if metric is Metric.L1:
        pts = np.column_stack((pts[:, 0] + pts[:, 1], pts[:, 1] - pts[:, 0]))
    n = pts.shape[0]
    out = np.zeros((n, n), dtype=bool)
    out[np.arange(n - 1), np.arange(1, n)] = True
    pi, pk, active = _dense_layout(n)
    if not pi.size:
        return out
    sx = (pts[pk, 0] - pts[pi, 0])[:, None]           # segment p_k - p_i, (pair, 1)
    sy = (pts[pk, 1] - pts[pi, 1])[:, None]
    dx = pts[None, :, 0] - pts[:, None, 0]            # p_j - p_i on the (i, j) grid
    dy = pts[None, :, 1] - pts[:, None, 1]
    ox = dx[pi]                                       # (pair, j)
    oy = dy[pi]
    if metric is Metric.L2:
        aa = sx * sx + sy * sy                        # (pair, 1)
        bb = ox * sx + oy * sy
        cc = (dx * dx + dy * dy - delta * delta)[pi]
        disc = bb * bb - aa * cc
        empty = disc < 0.0
        root = np.sqrt(np.maximum(disc, 0.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            lo = (bb - root) / aa
            hi = (bb + root) / aa
        zero = aa[:, 0] == 0.0                        # p_k == p_i targets
        if zero.any():
            lo[zero] = 0.0
            hi[zero] = 1.0
            empty[zero] = cc[zero] > 0.0
    else:
        lo = np.zeros(ox.shape)
        hi = np.ones(ox.shape)
        empty = np.zeros(ox.shape, dtype=bool)
        for p0, v in ((ox, sx), (oy, sy)):
            with np.errstate(divide="ignore", invalid="ignore"):
                t1 = (p0 - delta) / v
                t2 = (p0 + delta) / v
            tl = np.minimum(t1, t2)
            th = np.maximum(t1, t2)
            vz = np.broadcast_to(v == 0.0, tl.shape)
            far = np.abs(p0) > delta
            tl = np.where(vz, np.where(far, np.inf, -np.inf), tl)
            th = np.where(vz, np.where(far, -np.inf, np.inf), th)
            lo = np.maximum(lo, tl)
            hi = np.minimum(hi, th)
    lo = np.maximum(lo, 0.0)
    hi = np.minimum(hi, 1.0)
    empty |= lo > hi
    lo = np.where(active, lo, -np.inf)
    run = np.maximum.accumulate(lo, axis=1)
    bad = active & (empty | (run > hi))
    out[pi, pk] = ~bad.any(axis=1)
    return out
