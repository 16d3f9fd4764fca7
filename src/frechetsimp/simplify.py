"""End-to-end minimum-link simplification.

Vertices are processed in reverse order so each sweep's shortcut list is
consumed immediately into a link-distance table: d[n-1] = 0 and
d[i] = 1 + min over valid shortcuts <p_i, p_j> of d[j].  That keeps memory
linear; a parent-pointer array reconstructs the optimal path.  The cubic
baseline drives the same table from the greedy interval oracle and exists as
the correctness and performance reference.
"""
from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import oracle
from ._engine import prepare, sweep_targets
from .geometry import Metric, lp_distance

__all__ = ["SimplificationResult", "Polyline", "preprocess", "simplify",
           "simplify_baseline", "nu_diagnostics", "link_distance_table",
           "link_distances"]

ALGO_WAVEFRONT = "wavefront"
ALGO_BASELINE = "baseline"


class InvalidInputError(ValueError):
    pass


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
    for k, p in enumerate(points):
        x = float(p[0])
        y = float(p[1])
        if not (math.isfinite(x) and math.isfinite(y)):
            raise InvalidInputError(f"non-finite coordinate at vertex {k}")
        if verts and verts[-1] == (x, y):
            continue
        verts.append((x, y))
        idx.append(k)
    return Polyline(tuple(verts), tuple(idx))


@dataclass
class SimplificationResult:
    indices: list[int]              # 0-based indices into the original sequence
    link_count: int
    stats: dict = field(default_factory=dict)


def _targets_provider(pts, delta: float, metric: Metric, algo: str):
    """Returns fn(i) -> ascending valid shortcut targets, plus a stats sink."""
    stats = {"max_wavefront_size": 0, "max_segment_count": 0, "sweep_aborts": 0}
    if algo == ALGO_BASELINE:
        coords = np.asarray(pts, dtype=float)

        def provider(i: int):
            return oracle.valid_targets_from(coords, i, delta, metric).tolist()

        return provider, stats
    work, kern = prepare(pts, metric)

    def provider(i: int):
        targets, sw = sweep_targets(work, i, delta, kern)
        if sw.stats.max_arc_count > stats["max_wavefront_size"]:
            stats["max_wavefront_size"] = sw.stats.max_arc_count
        if sw.stats.max_segment_count > stats["max_segment_count"]:
            stats["max_segment_count"] = sw.stats.max_segment_count
        if sw.aborted:
            stats["sweep_aborts"] += 1
        return targets

    return provider, stats


def link_distances(n: int, targets_of):
    """Link-distance d and parent arrays of the shortcut graph on n vertices.

    ``targets_of(i)`` returns vertex i's valid shortcut targets in ascending
    order; it is called once per vertex, for i = n-2 down to 0, so a caller
    may compute each list on demand.  d[n-1] = 0 and d[i] = 1 + min d[j]
    over the targets, with parent[i] the smallest minimizing j; an empty
    list stands for the always-valid <p_i, p_i+1>.
    """
    d = [0] * n
    parent = [-1] * n
    for i in range(n - 2, -1, -1):
        best = n                      # above every distance
        arg = i + 1
        for j in targets_of(i):
            if d[j] < best:
                best = d[j]
                arg = j
        d[i] = 1 + (best if best < n else d[i + 1])
        parent[i] = arg
    return d, parent


def link_distance_table(pts, delta: float, metric: Metric = Metric.L2,
                        algo: str = ALGO_WAVEFRONT):
    """Link-distance d and parent arrays over the (preprocessed) vertices, plus sweep stats."""
    provider, stats = _targets_provider(pts, delta, metric, algo)
    d, parent = link_distances(len(pts), provider)
    return d, parent, stats


def _simplify_impl(points, delta: float, metric: Metric, algo: str,
                   workers: int = 1) -> SimplificationResult:
    if delta <= 0.0 or not math.isfinite(delta):
        raise InvalidInputError("delta must be a positive finite number")
    if metric not in (Metric.L1, Metric.L2, Metric.LINF):
        raise InvalidInputError(f"unsupported metric {metric!r}")
    poly = preprocess(points)
    n_orig = len(points)
    t0 = time.perf_counter()
    if workers > 1:
        lists, stats = all_shortcut_lists(poly.vertices, delta, metric, algo, workers)
        d, parent = link_distances(poly.n, lists.__getitem__)
        stats["parallel_workers"] = workers
    else:
        d, parent, stats = link_distance_table(poly.vertices, delta, metric, algo)
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
    stats = dict(stats)
    stats["wall_ms_per_phase"] = {
        "shortcuts_and_table_ms": (t1 - t0) * 1e3,
        "path_extraction_ms": (t2 - t1) * 1e3,
    }
    stats["link_distance"] = links
    return SimplificationResult(indices, len(indices) - 1, stats)


def simplify(points, delta: float, metric: Metric = Metric.L2,
             algo: str = ALGO_WAVEFRONT, workers: int = 1) -> SimplificationResult:
    """Minimum-link simplification under the local Frechet distance.

    Returns 0-based indices into ``points``; first and last vertex are always
    kept, and every consecutive index pair is a valid shortcut.  Ties between
    equally short simplifications resolve to the smallest next index.

    ``workers > 1`` switches to a two-pass mode that materializes all
    shortcut lists in parallel (more memory, same result).
    """
    if algo not in (ALGO_WAVEFRONT, ALGO_BASELINE):
        raise InvalidInputError(f"unknown algorithm {algo!r}")
    return _simplify_impl(points, delta, metric, algo, workers)


def simplify_baseline(points, delta: float, metric: Metric = Metric.L2) -> SimplificationResult:
    """Cubic-time reference: validity of every pair via the interval oracle."""
    return _simplify_impl(points, delta, metric, ALGO_BASELINE)


# ---------------------------------------------------------------------------
# Two-pass parallel shortcut listing (optional; trades O(E) memory for speed)
# ---------------------------------------------------------------------------

_POOL_ARGS = None


def _pool_worker(args):
    lo, hi = args
    pts, delta, metric, algo = _POOL_ARGS
    provider, stats = _targets_provider(pts, delta, metric, algo)
    return [(i, provider(i)) for i in range(lo, hi)], stats


def _merge_sweep_stats(parts: list) -> dict:
    """Stats over all sweeps from the workers' stats: gauges by max, aborts by sum."""
    return {"max_wavefront_size": max(p["max_wavefront_size"] for p in parts),
            "max_segment_count": max(p["max_segment_count"] for p in parts),
            "sweep_aborts": sum(p["sweep_aborts"] for p in parts)}


def _pool_init(pts, delta, metric, algo):
    global _POOL_ARGS
    _POOL_ARGS = (pts, delta, metric, algo)


def all_shortcut_lists(pts, delta: float, metric: Metric = Metric.L2,
                       algo: str = ALGO_WAVEFRONT, workers: int = 1):
    """Materialized shortcut lists of the (preprocessed) vertices, optionally in parallel.

    Returns the lists and the sweep stats merged over all sweeps (the same
    keys and values ``link_distance_table`` reports).
    """
    n = len(pts)
    if workers <= 1 or n < 64:
        provider, stats = _targets_provider(pts, delta, metric, algo)
        return [provider(i) for i in range(n - 1)] + [[]], stats
    chunk = max(8, n // (workers * 8))
    ranges = [(lo, min(lo + chunk, n - 1)) for lo in range(0, n - 1, chunk)]
    out: list[list[int]] = [[] for _ in range(n)]
    part_stats = []
    with ProcessPoolExecutor(max_workers=workers, initializer=_pool_init,
                             initargs=(pts, delta, metric, algo)) as ex:
        for part, stats in ex.map(_pool_worker, ranges):
            for i, targets in part:
                out[i] = list(targets)
            part_stats.append(stats)
    return out, _merge_sweep_stats(part_stats)


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
    enclosing balls of all subsets), good enough as a diagnostic.
    """
    poly = preprocess(points) if len(points) >= 2 else None
    pts = poly.vertices if poly else [tuple(map(float, points[0]))]
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
            est = cnt / (r * r)
            if est > nu:
                nu = est
    return {
        "max_vertices_in_delta_ball": max_ball,
        "nu_estimate": nu,
        "implied_wavefront_bound": max(1.0, nu * delta * delta),
    }
