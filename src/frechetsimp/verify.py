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
import math
import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import oracle
from .geometry import InternalGeometryError, InvalidInputError, Metric
from .simplify import _CHUNKS_PER_WORKER, SweepStats, link_distances, pool_size, sweep_rows

DEFAULT_METRICS = (Metric.L2, Metric.L1, Metric.LINF)
COORD_RANGE = 10.0        # uniform and cluster styles draw coordinates in [0, COORD_RANGE)
STYLES = ("uniform", "walk", "cluster")


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
    style: str = "uniform"        # one of STYLES

    def __post_init__(self):
        """Checks the config once, before anything is drawn (InvalidInputError),
        and makes each metric a ``Metric`` member."""
        if self.style not in STYLES:
            raise InvalidInputError(f"unknown style {self.style!r}; "
                                    f"choose from {', '.join(STYLES)}")
        if self.count < 1:
            raise InvalidInputError("count must be at least 1")   # 0 checks would read as a pass
        if self.seed < 0:
            raise InvalidInputError("seed must be non-negative")
        if self.max_n < 2:
            raise InvalidInputError("max_n must be at least 2")
        lo, hi = self.delta_range
        if not 0.0 < lo <= hi < math.inf:
            raise InvalidInputError("delta_range must be (low, high) with 0 < low <= high, "
                                    "both finite")
        try:
            self.metrics = tuple(map(Metric, self.metrics))
        except ValueError as exc:
            raise InvalidInputError(str(exc)) from None


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


def _diffs(P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flat coordinate differences of every ordered pair: dx[a*n+b] = x_b - x_a."""
    return (P[None, :, 0] - P[:, None, 0]).ravel(), (P[None, :, 1] - P[:, None, 1]).ravel()


@functools.lru_cache(maxsize=64)
def _flat(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Indices into ``_diffs`` of n vertices, read-only: a*n+b of every pair
    a < b, then a*n+c and a*n+b of every triple a < c < b, in the order of
    ``np.nonzero`` on the (a, c, b) grid."""
    ii = np.arange(n)
    a, c, b = np.nonzero((ii[:, None, None] < ii[None, :, None])
                         & (ii[None, :, None] < ii[None, None, :]))
    pa, pb = np.triu_indices(n, 1)
    out = (pa * n + pb, a * n + c, a * n + b)
    for arr in out:
        arr.flags.writeable = False
    return out


def _seg_point_dists(pts: np.ndarray, metric: Metric, diffs=None) -> np.ndarray:
    """Metric distance from vertex c to segment (a, b), for every a < c < b.

    Flat array over the triples of ``_flat(len(pts))``; entry 0 of a
    three-point input is the distance from pts[1] to segment (pts[0],
    pts[2]).  ``diffs``, if given, is ``_diffs(pts)`` (L1 reads the
    differences of the Linf image).  Each triple gathers four differences,
    u = x_c - x_a, w = y_c - y_a and (vx, vy) = p_b - p_a: the offset from c
    at t is (t vx - u, t vy - w), the exact negation of p_a + t (p_b - p_a)
    - p_c, so every distance is the one that offset gives.
    """
    if metric is Metric.L1:
        diffs = _diffs(oracle.linf_image(pts))
    elif diffs is None:
        diffs = _diffs(pts)
    dx, dy = diffs
    _, ac, ab = _flat(len(pts))
    u = dx[ac]
    w = dy[ac]
    vx = dx[ab]
    vy = dy[ab]
    if metric is Metric.L2:
        vv = vx * vx + vy * vy
        with np.errstate(divide="ignore", invalid="ignore"):
            t = (u * vx + w * vy) / vv
        t = np.where(vv == 0.0, 0.0, np.clip(t, 0.0, 1.0))
        return np.hypot(u - t * vx, w - t * vy)
    # h(t) = max(|t vx - u|, |t vy - w|) is convex and piecewise linear, and
    # it bends only where the two terms are equal: where the binding term
    # crosses zero, the other term is zero too.  So its minimum on [0, 1] lies
    # at an endpoint or where the offset crosses a diagonal, x = y or x = -y;
    # an offset that runs along one diagonal crosses the other where both
    # terms are zero.  A 0/0 crossing is NaN, which ``fmin`` skips; an
    # infinite t clips to an endpoint.
    best = np.minimum(np.maximum(np.abs(u), np.abs(w)),                 # t = 0
                      np.maximum(np.abs(vx - u), np.abs(vy - w)))       # t = 1
    with np.errstate(divide="ignore", invalid="ignore"):
        for num, den in ((u - w, vx - vy), (u + w, vx + vy)):
            t = np.clip(num / den, 0.0, 1.0)
            best = np.fmin(best, np.maximum(np.abs(t * vx - u), np.abs(t * vy - w)))
    return best


def instance_margin(pts: np.ndarray, delta: float,
                    metrics: Sequence[Metric] = DEFAULT_METRICS) -> float:
    """Smallest |critical distance - delta| (and vertex separation) of the instance.

    Each pair a < b is taken once (b to a is the exact negation), and the
    vertex-segment distances come from ``_seg_point_dists``, which evaluates
    only the triples a < c < b that a shortcut can bridge.  ``metrics`` may
    hold ``Metric`` members or their values.
    """
    n = len(pts)
    margin = np.inf
    diffs = _diffs(pts)
    pairs = _flat(n)[0]
    px = diffs[0][pairs]
    py = diffs[1][pairs]
    for m in map(Metric, metrics):
        if px.size:
            if m is Metric.L2:
                off = np.hypot(px, py)
            elif m is Metric.L1:
                off = np.abs(px) + np.abs(py)
            else:
                off = np.maximum(np.abs(px), np.abs(py))
            margin = min(margin, float(np.min(np.abs(off - delta))), float(np.min(off)))
        if n >= 3:
            margin = min(margin, float(np.min(np.abs(_seg_point_dists(pts, m, diffs) - delta))))
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
    """Wavefront shortcut targets per start vertex, plus the sweeps' stats;
    ``metric`` is a ``Metric`` member.

    ``strict`` makes ``diagnostics``' checker of the sweep's own state the
    observer of every sweep."""
    watch = None
    if strict:
        # imported on first use, as ``sweep_rows`` imports the sweeps, so
        # that importing the package loads neither
        from .diagnostics import DiskChecker, SquareChecker
        watch = DiskChecker if metric is Metric.L2 else SquareChecker
    total = SweepStats()
    sets = [targets for targets, _ in sweep_rows(pts_list, metric, range(len(pts_list) - 1),
                                                 delta, watch, total)]
    return sets, total


def check_instance(pts, delta: float, metric: Metric, strict: bool = False):
    """Compare sweeps against the oracle; returns (problems, the sweeps' stats),
    where a sweep that raises leaves the stats empty.

    The sweep's target lists are compared with the oracle's rows in one
    pass; only where they differ are the per-row lists and the oracle's
    link distances built (equal lists give equal link counts)."""
    metric = Metric(metric)
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
    """Checks instances 0 .. count-1 in chunks: in process where there is one
    chunk (``workers`` 1, or too few instances), else in a pool of at most
    ``pool_size(workers)`` processes and no more than there are chunks."""
    t0 = time.perf_counter()
    report = VerifyReport()
    workers = pool_size(cfg.workers)
    chunk = cfg.count if workers == 1 else max(1, cfg.count // (workers * _CHUNKS_PER_WORKER))
    ranges = [(cfg, lo, min(lo + chunk, cfg.count)) for lo in range(0, cfg.count, chunk)]
    if len(ranges) == 1:
        parts = [_run_range(ranges[0])]
    else:
        from concurrent.futures import ProcessPoolExecutor   # as in link_distance_table
        with ProcessPoolExecutor(max_workers=min(workers, len(ranges))) as ex:
            parts = list(ex.map(_run_range, ranges))
    for p in parts:
        report.checked += p.checked
        report.sweeps += p.sweeps
        report.resamples += p.resamples
        report.stats.fold(p.stats)
        report.mismatches.extend(p.mismatches)
    report.wall_s = time.perf_counter() - t0
    return report
