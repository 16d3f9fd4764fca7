"""End-to-end minimum-link simplification.

Vertices are processed in reverse order so each sweep's shortcut list is
consumed immediately into a link-distance table: d[n-1] = 0 and
d[i] = 1 + min over valid shortcuts <p_i, p_j> of d[j].  That keeps memory
linear; a parent-pointer array reconstructs the optimal path.  The cubic
baseline drives the same table from the greedy interval oracle and exists as
the correctness and performance reference.

The wavefront's target lists come from ``sweep_rows``, the one place that
picks a sweep for a metric, in process or in each pool worker; the SVG debug
frames are not drawn here.
"""
from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import oracle
from .geometry import (InvalidInputError, Metric, _checked_metric, _finite_vertices,
                       l1_to_linf, lp_distance)

__all__ = ["SimplificationResult", "Polyline", "preprocess", "simplify",
           "simplify_baseline", "nu_diagnostics", "link_distance_table",
           "link_distances"]

ALGO_WAVEFRONT = "wavefront"
ALGO_BASELINE = "baseline"
_CHUNKS_PER_WORKER = 8      # pool chunks of start vertices per worker process
_POOL_MIN_VERTICES = 64     # shorter inputs sweep in process whatever ``workers`` says


# step case labels (TB/BT are provably unreachable and raise)
CASES = ("PREFIX", "INIT", "WEDGE_EMPTY", "TT_EMPTY",
         "TT", "TM", "MT", "MM", "MB", "BM", "BB")
# The flat list of ints a ``sweep_rows`` call's sweeps add into: the steps by
# case in ``CASES`` order, then the arcs inserted and removed, then the two
# gauges, kept by max
INSERTED, REMOVED, MAX_ARCS, MAX_SEGMENTS = range(len(CASES), len(CASES) + 4)


@dataclass
class SweepStats:
    """Counters and gauges of the sweeps of one ``sweep_rows`` call, or of
    many calls folded together."""

    max_arc_count: int = 0
    max_segment_count: int = 0
    inserted: int = 0
    removed: int = 0
    steps: int = 0
    aborts: int = 0
    case_histogram: dict = field(default_factory=dict)

    def fold(self, other: "SweepStats") -> None:
        """Adds ``other`` in: gauges by max, counts by sum, the histogram by case."""
        if other.max_arc_count > self.max_arc_count:
            self.max_arc_count = other.max_arc_count
        if other.max_segment_count > self.max_segment_count:
            self.max_segment_count = other.max_segment_count
        self.inserted += other.inserted
        self.removed += other.removed
        self.steps += other.steps
        self.aborts += other.aborts
        h = self.case_histogram
        for case, k in other.case_histogram.items():
            h[case] = h.get(case, 0) + k

    @classmethod
    def of(cls, acc) -> "SweepStats":
        """The record of a ``sweep_rows`` accumulator: each step has one
        case, and a sweep that ends early ends at a WEDGE_EMPTY or TT_EMPTY
        step."""
        hist = dict(zip(CASES, acc))
        return cls(max_arc_count=acc[MAX_ARCS], max_segment_count=acc[MAX_SEGMENTS],
                   inserted=acc[INSERTED], removed=acc[REMOVED], steps=sum(hist.values()),
                   aborts=hist["WEDGE_EMPTY"] + hist["TT_EMPTY"],
                   case_histogram={case: k for case, k in hist.items() if k})


def sweep_rows(points: Sequence[Sequence[float]], metric: Metric, starts, delta: float,
               watch=None, total: SweepStats | None = None):
    """Yields (targets, max_arc_count) of the sweep from each start vertex i
    of ``starts``, in order: the ascending j > i with a valid shortcut
    <p_i, p_j> under ``metric``, and the most wavefront arcs that sweep held.

    L2 runs the disk sweep of ``_disk``.  Linf runs the square sweep of
    ``_square``, and L1 the same sweep on the image of the points under
    (x, y) -> (x+y, y-x), which maps L1 balls onto Linf balls; sweeps report
    vertex indices, so nothing maps back.  ``watch(X, Y, i, delta)``, if
    given, makes the observer each sweep calls after every step on the
    working coordinates X, Y.  A sweep that raises raises here when its turn
    comes, and an unknown ``metric`` raises ValueError.

    The sweeps add their counters and gauges into one accumulator per call
    (``CASES``, then ``INSERTED`` ... ``MAX_SEGMENTS``); once the last sweep
    has run, its ``SweepStats`` is folded into ``total``, if given.  A call
    that raises, or is not run to its end, adds nothing.
    """
    metric = Metric(metric)
    # imported here: both sweeps import the accumulator's layout from this module
    if metric is Metric.L2:
        from ._disk import _scalar
    else:
        from ._square import _scalar
    if metric is Metric.L1:
        points = l1_to_linf(points)
    X = [float(p[0]) for p in points]
    Y = [float(p[1]) for p in points]
    delta = float(delta)
    acc = [0] * (MAX_SEGMENTS + 1)
    for i in starts:
        yield _scalar(X, Y, i, delta, acc, watch(X, Y, i, delta) if watch else None)
    if total is not None:
        total.fold(SweepStats.of(acc))


def pool_size(workers: int) -> int:
    """``workers`` capped at the CPUs this process may run on: a pool forks
    all its workers at once, so more would only queue."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, min(workers, cpus or 1))


def _sweep_processes(n: int, workers: int) -> int:
    """The processes ``link_distance_table`` sweeps n vertices in: 1 where
    the input is too short to pay for a pool."""
    return 1 if n < _POOL_MIN_VERTICES else pool_size(workers)


@dataclass(frozen=True)
class Polyline:
    """Preprocessed polyline: consecutive exact duplicates collapsed.

    ``indices`` maps each kept vertex back to its position in the original
    sequence (first occurrence of each run).
    """

    vertices: tuple[tuple[float, float], ...]
    indices: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.vertices)


def preprocess(points: Sequence[Sequence[float]]) -> Polyline:
    if len(points) < 2:
        raise InvalidInputError("a polyline needs at least two vertices")
    verts: list[tuple[float, float]] = []
    idx: list[int] = []
    for k, xy in enumerate(_finite_vertices(points)):
        if not verts or verts[-1] != xy:
            verts.append(xy)
            idx.append(k)
    return Polyline(tuple(verts), tuple(idx))


@dataclass
class SimplificationResult:
    indices: list[int]              # 0-based indices into the original sequence
    link_count: int
    stats: dict = field(default_factory=dict)


def _target_lists(pts, delta: float, metric: Metric, algo: str, starts, total: SweepStats):
    """Yields each start vertex's ascending valid shortcut targets, in the order given.

    The wavefront sweeps' stats are folded into ``total`` once the last list
    is taken; ``sweep_rows`` picks the sweep.
    """
    if algo == ALGO_BASELINE:
        coords = np.asarray(pts, dtype=float)
        for i in starts:
            yield oracle.valid_targets_from(coords, i, delta, metric).tolist()
        return
    for targets, _ in sweep_rows(pts, metric, starts, delta, total=total):
        yield targets


def link_distances(n: int, lists):
    """Link-distance d and parent arrays of the shortcut graph on n vertices.

    ``lists`` yields the valid shortcut targets of vertex i in ascending
    order, for i = n-2 down to 0, so a caller may compute each list on
    demand.  d[n-1] = 0 and d[i] = 1 + min d[j] over the targets, with
    parent[i] the smallest minimizing j; an empty list stands for the
    always-valid <p_i, p_i+1>.
    """
    d = [0] * n
    parent = [-1] * n
    for i, targets in zip(range(n - 2, -1, -1), lists, strict=True):
        best = n                      # above every distance
        arg = i + 1
        for j in targets:
            if d[j] < best:
                best = d[j]
                arg = j
        d[i] = 1 + (best if best < n else d[i + 1])
        parent[i] = arg
    return d, parent


def link_distance_table(pts, delta: float, metric: Metric = Metric.L2,
                        algo: str = ALGO_WAVEFRONT, workers: int = 1):
    """Link-distance d and parent arrays over the (preprocessed) vertices, plus
    the stats of every sweep in one ``SweepStats``.

    ``workers > 1`` lists the shortcuts in a process pool of at most
    ``pool_size(workers)`` processes, unless the input is too short to pay
    for it.
    """
    n = len(pts)
    total = SweepStats()
    workers = _sweep_processes(n, workers)
    if workers == 1:
        lists = _target_lists(pts, delta, metric, algo, range(n - 2, -1, -1), total)
        d, parent = link_distances(n, lists)
        return d, parent, total
    # eight chunks per worker, since the sweeps of low start vertices run
    # longest: small chunks even out the load, and each still sweeps enough
    # rows to pay for shipping the points to its process
    chunk = -(-(n - 1) // (workers * _CHUNKS_PER_WORKER))
    # loaded where a pool starts: it pulls in multiprocessing, which most
    # callers never use
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as ex:
        # the lowest start vertices sweep the longest, so their chunks go
        # first; the table consumes the chunks last to first
        futures = [ex.submit(_pool_worker, pts, delta, metric, algo, lo, min(lo + chunk, n - 1))
                   for lo in range(0, n - 1, chunk)]
        d, parent = link_distances(n, (targets for fut in reversed(futures)
                                       for targets in fut.result()[0]))
    for fut in futures:
        total.fold(fut.result()[1])
    return d, parent, total


def _pool_worker(pts, delta: float, metric: Metric, algo: str, lo: int, hi: int):
    """Target lists of start vertices hi-1 down to lo, plus their stats."""
    total = SweepStats()
    return list(_target_lists(pts, delta, metric, algo, range(hi - 1, lo - 1, -1), total)), total


def simplify(points, delta: float, metric: Metric = Metric.L2,
             algo: str = ALGO_WAVEFRONT, workers: int = 1) -> SimplificationResult:
    """Minimum-link simplification under the local Frechet distance.

    Returns 0-based indices into ``points``; first and last vertex are always
    kept, and every consecutive index pair is a valid shortcut.  Ties between
    equally short simplifications resolve to the smallest next index.
    ``metric`` is a ``Metric`` or its value ("l1", "l2" or "linf").

    ``workers > 1`` sweeps chunks of start vertices in that many processes,
    at most one per CPU this process may use (``pool_size``), and feeds
    their shortcut lists to the same table (same result; a chunk's lists are
    held until the table reaches them).  Its ``stats["parallel_workers"]``
    counts the processes that swept: 1 where the input has too few vertices
    to pay for a pool.
    """
    if algo not in (ALGO_WAVEFRONT, ALGO_BASELINE):
        raise InvalidInputError(f"unknown algorithm {algo!r}")
    metric = _checked_metric(delta, metric)     # the code below branches on identity
    poly = preprocess(points)
    n_orig = len(points)
    t0 = time.perf_counter()
    d, parent, total = link_distance_table(poly.vertices, delta, metric, algo, workers)
    t1 = time.perf_counter()
    chain = [0]
    at = 0
    while at != poly.n - 1:
        at = parent[at]
        chain.append(at)
    t2 = time.perf_counter()
    links = d[0]
    if poly.n == 1:
        # every input vertex coincides; keep the mandatory endpoints
        indices, links = [0, n_orig - 1], 1
    else:
        indices = [poly.indices[c] for c in chain]
        indices[-1] = n_orig - 1   # a collapsed duplicate run at the end keeps the true endpoint
    stats = {"max_wavefront_size": total.max_arc_count,
             "max_segment_count": total.max_segment_count,
             "sweep_aborts": total.aborts,
             "sweep_steps": total.steps,
             "case_histogram": {case: total.case_histogram[case] for case in CASES
                                if case in total.case_histogram},
             "arcs_inserted": total.inserted,
             "arcs_removed": total.removed}
    if workers > 1:
        stats["parallel_workers"] = _sweep_processes(poly.n, workers)
    stats["wall_ms_per_phase"] = {
        "shortcuts_and_table_ms": (t1 - t0) * 1e3,
        "path_extraction_ms": (t2 - t1) * 1e3,
    }
    stats["link_distance"] = links
    return SimplificationResult(indices, len(indices) - 1, stats)


def simplify_baseline(points, delta: float, metric: Metric = Metric.L2) -> SimplificationResult:
    """Cubic-time reference: validity of every pair via the interval oracle."""
    return simplify(points, delta, metric, ALGO_BASELINE)


# ---------------------------------------------------------------------------
# Density diagnostics
# ---------------------------------------------------------------------------


def nu_diagnostics(points, delta: float, metric: Metric = Metric.L2) -> dict:
    """Vertex-density diagnostics that bound the wavefront size.

    ``max_vertices_in_delta_ball``: most vertices within distance 2*delta of
    any one vertex; circles contributing to one wavefront are pairwise within
    2*delta, so this also caps the observed wavefront size.

    ``nu_estimate``: max over vertex pairs of (vertices within r of their
    midpoint) / r^2 with r = d(p, q)/2.  A documented lower-bound estimator of
    the true minimal density constant (the exact value needs smallest
    enclosing balls of all subsets), good enough as a diagnostic; inf where r^2 underflows.

    InvalidInputError for no vertex, a non-finite coordinate and the delta
    and metric that ``simplify`` rejects.
    """
    metric = _checked_metric(delta, metric)
    if not len(points):
        raise InvalidInputError("a polyline needs at least one vertex")
    pts = preprocess(points).vertices if len(points) >= 2 else _finite_vertices(points)
    n = len(pts)
    two_delta = 2.0 * delta
    max_ball = 0
    for p in pts:
        c = sum(1 for q in pts if lp_distance(p, q, metric) <= two_delta)
        if c > max_ball:
            max_ball = c
    nu = 0.0
    for a in range(n):
        for b in range(a + 1, n):
            r = 0.5 * lp_distance(pts[a], pts[b], metric)
            if r <= 0.0:
                continue
            mid = (0.5 * (pts[a][0] + pts[b][0]), 0.5 * (pts[a][1] + pts[b][1]))
            cnt = sum(1 for q in pts if lp_distance(mid, q, metric) <= r)
            est = cnt / (r * r) if r * r > 0.0 else math.inf    # r * r underflows to 0
            if est > nu:
                nu = est
    return {
        "max_vertices_in_delta_ball": max_ball,
        "nu_estimate": nu,
        "implied_wavefront_bound": max(1.0, nu * delta * delta),
    }
