"""Randomized differential verification of the sweeps against the oracle.

Instances are seeded and resampled until no critical distance (vertex-vertex
or vertex-segment, under any requested metric) comes within a margin of
delta, so the combinatorial answer is stable under floating point.  For each
instance the wavefront shortcut sets must equal the oracle's exactly, the
minimum link counts of both algorithms must agree, and every emitted link must
revalidate.
"""
from __future__ import annotations

import functools
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import oracle
from .geometry import InternalGeometryError, Metric
from .simplify import SweepStats, link_distances, pool_size, sweep_rows

DEFAULT_METRICS = (Metric.L2, Metric.L1, Metric.LINF)
COORD_RANGE = 10.0        # uniform and cluster styles draw coordinates in [0, COORD_RANGE)


class InstanceError(RuntimeError):
    """No instance with stable combinatorics could be drawn for the config."""


@dataclass
class VerifyConfig:
    count: int = 1000
    max_n: int = 30
    delta_range: tuple[float, float] = (0.1, 3.0)
    metrics: tuple[Metric, ...] = DEFAULT_METRICS
    seed: int = 0
    strict: bool = False          # attach the invariant checker to every sweep
    workers: int = 1              # capped at the usable CPUs (``simplify.pool_size``)
    style: str = "uniform"        # uniform | walk | cluster


@dataclass
class VerifyReport:
    checked: int = 0
    sweeps: int = 0
    resamples: int = 0
    stats: SweepStats = field(default_factory=SweepStats)   # folded over every sweep
    wall_s: float = 0.0
    mismatches: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches


# ---------------------------------------------------------------------------
# instance generation with criticality margins
# ---------------------------------------------------------------------------


def _pairwise(pts: np.ndarray, metric: Metric) -> np.ndarray:
    d = pts[:, None, :] - pts[None, :, :]
    if metric is Metric.L2:
        return np.hypot(d[..., 0], d[..., 1])
    if metric is Metric.L1:
        return np.abs(d[..., 0]) + np.abs(d[..., 1])
    return np.maximum(np.abs(d[..., 0]), np.abs(d[..., 1]))


@functools.lru_cache(maxsize=64)
def _triples(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(a, c, b) index arrays of every triple a < c < b of n vertices; read-only."""
    ii = np.arange(n)
    a, c, b = np.nonzero((ii[:, None, None] < ii[None, :, None])
                         & (ii[None, :, None] < ii[None, None, :]))
    for arr in (a, c, b):
        arr.flags.writeable = False
    return a, c, b


def _seg_point_dists(pts: np.ndarray, metric: Metric) -> np.ndarray:
    """Metric distance from vertex c to segment (a, b), for every a < c < b.

    Flat array over the triples of ``_triples(len(pts))``, in the order of
    ``np.nonzero`` on the (a, c, b) grid; entry 0 of a three-point input is
    the distance from pts[1] to segment (pts[0], pts[2]).  The index arrays
    are built once per n and cached.
    """
    P = oracle.linf_image(pts) if metric is Metric.L1 else pts
    a, c, b = _triples(len(P))
    X = P[:, 0]
    Y = P[:, 1]
    vx = X[b] - X[a]
    vy = Y[b] - Y[a]
    x0 = X[a] - X[c]
    y0 = Y[a] - Y[c]
    if metric is Metric.L2:
        vv = vx * vx + vy * vy
        with np.errstate(divide="ignore", invalid="ignore"):
            t = -(x0 * vx + y0 * vy) / vv
        t = np.where(vv == 0.0, 0.0, np.clip(t, 0.0, 1.0))
        return np.hypot(x0 + t * vx, y0 + t * vy)
    # the closest point under Linf is an endpoint or where a coordinate or a
    # diagonal of the offset crosses zero
    best = np.maximum(np.abs(x0), np.abs(y0))                 # t = 0
    best = np.minimum(best, np.maximum(np.abs(x0 + vx), np.abs(y0 + vy)))
    with np.errstate(divide="ignore", invalid="ignore"):
        for num, den in ((-x0, vx), (-y0, vy),
                         (-(x0 - y0), vx - vy), (-(x0 + y0), vx + vy)):
            t = num / den
            t = np.where(np.isfinite(t), np.clip(t, 0.0, 1.0), 0.0)
            best = np.minimum(best, np.maximum(np.abs(x0 + t * vx), np.abs(y0 + t * vy)))
    return best


def instance_margin(pts: np.ndarray, delta: float,
                    metrics: Sequence[Metric] = DEFAULT_METRICS) -> float:
    """Smallest |critical distance - delta| (and vertex separation) of the instance.

    The vertex-segment distances come from ``_seg_point_dists``, which
    evaluates only the triples a < c < b that a shortcut can bridge.
    """
    n = len(pts)
    margin = np.inf
    off_diag = ~np.eye(n, dtype=bool)
    for m in metrics:
        off = _pairwise(pts, m)[off_diag]
        if off.size:
            margin = min(margin, float(np.min(np.abs(off - delta))), float(np.min(off)))
        if n >= 3:
            margin = min(margin, float(np.min(np.abs(_seg_point_dists(pts, m) - delta))))
    return margin


def _draw(rng, cfg: VerifyConfig):
    n = int(rng.integers(2, cfg.max_n + 1))
    delta = float(rng.uniform(*cfg.delta_range))
    if cfg.style == "walk":
        # slow wander: steps comparable to delta, so circles keep interacting
        steps = rng.normal(0.0, 0.6 * delta, (n, 2))
        pts = np.cumsum(steps, axis=0)
    elif cfg.style == "cluster":
        k = max(1, n // 6)
        centers = rng.uniform(0.0, COORD_RANGE, (k, 2))
        pts = centers[rng.integers(0, k, n)] + rng.normal(0.0, delta, (n, 2))
    else:
        pts = rng.uniform(0.0, COORD_RANGE, (n, 2))
    return pts, delta


def random_instance(cfg: VerifyConfig, idx: int):
    """Seeded random polyline with stable combinatorics; returns (pts, delta, resamples)."""
    resamples = 0
    for attempt in range(200):
        rng = np.random.default_rng([cfg.seed, idx, attempt])
        pts, delta = _draw(rng, cfg)
        if instance_margin(pts, delta, cfg.metrics) > 1e-6 * delta:
            return pts, delta, resamples
        resamples += 1
    raise InstanceError(f"could not draw a clean instance {idx} in 200 attempts "
                        f"(delta range {cfg.delta_range[0]:g} to {cfg.delta_range[1]:g})")


# ---------------------------------------------------------------------------
# per-instance differential check
# ---------------------------------------------------------------------------


def _sweep_sets(pts_list, delta: float, metric: Metric, strict: bool):
    """Wavefront shortcut targets per start vertex, plus the sweeps' folded stats.

    ``strict`` makes ``diagnostics``' checker of the sweep's own state the
    observer of every sweep."""
    watch = None
    if strict:
        # imported on first use, as ``sweep_rows`` imports the sweeps, so
        # that importing the package loads neither
        from .diagnostics import DiskChecker, SquareChecker
        watch = DiskChecker if Metric(metric) is Metric.L2 else SquareChecker
    sets = []
    total = SweepStats()
    for targets, stats in sweep_rows(pts_list, metric, range(len(pts_list) - 1), delta,
                                     watch):
        sets.append(targets)
        total.fold(stats)
    return sets, total


def check_instance(pts, delta: float, metric: Metric, strict: bool = False):
    """Compare sweeps against the oracle; returns (problems, folded sweep stats).

    The sweep's target lists are compared with the oracle's rows in one
    pass; only where they differ are the per-row lists and the oracle's
    link distances built (equal lists give equal link counts)."""
    pts = np.asarray(pts, dtype=float)
    pts_list = list(map(tuple, pts.tolist()))
    n = len(pts_list)
    problems = []
    M = oracle.shortcut_matrix_dense(pts, delta, metric)
    try:
        sets, stats = _sweep_sets(pts_list, delta, metric, strict)
    except InternalGeometryError as exc:
        return [{"kind": "invariant", "detail": str(exc)}], SweepStats()
    d_w, par_w = link_distances(n, reversed(sets))
    row_of, col = np.nonzero(M[:n - 1])
    same = (col.tolist() == [k for targets in sets for k in targets]
            and np.bincount(row_of, minlength=n - 1).tolist() == [len(t) for t in sets])
    if not same:
        rows = [np.nonzero(M[i])[0].tolist() for i in range(n - 1)]
        for i in range(n - 2, -1, -1):
            if rows[i] != sets[i]:
                problems.append({
                    "kind": "shortcut_set", "i": i,
                    "oracle": rows[i], "wavefront": sets[i],
                })
        d_o, _ = link_distances(n, reversed(rows))
        if d_o[0] != d_w[0]:
            problems.append({"kind": "link_count", "oracle": d_o[0], "wavefront": d_w[0]})
    # revalidate the emitted wavefront path link by link
    at = 0
    while at != n - 1:
        j = par_w[at]
        if not oracle.shortcut_is_valid(pts_list, at, j, delta, metric):
            problems.append({"kind": "invalid_link", "i": at, "j": j})
        at = j
    return problems, stats


# ---------------------------------------------------------------------------
# driver (optionally multi-process)
# ---------------------------------------------------------------------------


def _run_range(args):
    cfg, lo, hi = args
    part = VerifyReport()
    for idx in range(lo, hi):
        pts, delta, resamples = random_instance(cfg, idx)
        part.resamples += resamples
        for metric in cfg.metrics:
            problems, stats = check_instance(pts, delta, metric, strict=cfg.strict)
            part.checked += 1
            part.sweeps += len(pts) - 1
            part.stats.fold(stats)
            for p in problems:
                p["instance"] = idx
                p["metric"] = metric.value
                p["delta"] = delta
                p["points"] = [tuple(q) for q in pts]
                part.mismatches.append(p)
    return part


def run_verify(cfg: VerifyConfig) -> VerifyReport:
    t0 = time.perf_counter()
    report = VerifyReport()
    workers = pool_size(cfg.workers)
    if workers <= 1:
        parts = [_run_range((cfg, 0, cfg.count))]
    else:
        chunk = max(1, cfg.count // (workers * 8))
        ranges = [(cfg, lo, min(lo + chunk, cfg.count))
                  for lo in range(0, cfg.count, chunk)]
        with ProcessPoolExecutor(max_workers=workers) as ex:
            parts = list(ex.map(_run_range, ranges))
    for p in parts:
        report.checked += p.checked
        report.sweeps += p.sweeps
        report.resamples += p.resamples
        report.stats.fold(p.stats)
        report.mismatches.extend(p.mismatches)
    report.wall_s = time.perf_counter() - t0
    return report
