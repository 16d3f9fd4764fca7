"""Desk-scale scaling benchmark: cubic baseline vs the wavefront sweeps.

The input family is a jittered line ("random walk" with a drift): unit steps
in x, small Gaussian wander in y relative to delta.  That keeps most
shortcuts valid, so the baseline does its full cubic work and the sweeps run
the whole polyline, which is the regime where the asymptotic gap shows.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .geometry import Metric
from .simplify import simplify

DEFAULT_SIZES = (250, 500, 1000, 2000)
JOBS = (("wavefront", Metric.L2), ("wavefront", Metric.LINF), ("baseline", Metric.L2))
REPEATS = 2


@dataclass
class BenchRow:
    n: int
    algo: str
    metric: str
    millis: float
    max_wavefront: int
    link_count: int


@dataclass
class BenchResult:
    rows: list = field(default_factory=list)
    fits: dict = field(default_factory=dict)      # (algo, metric) -> exponent
    ratios: dict = field(default_factory=dict)    # (algo, metric) -> {(n1, n2): ratio}


def generate_walk(n: int, seed: int, delta: float = 1.0) -> list[tuple[float, float]]:
    """Forward-drifting walk: unit x steps, y oscillating inside the delta tube.

    The oscillation keeps several circles interacting (non-trivial wavefronts)
    while the tube keeps most shortcuts valid, so sweeps run Theta(n) steps
    and the baseline does its full cubic scan.
    """
    rng = np.random.default_rng([seed, n])
    t = np.arange(n, dtype=float)
    x = 0.3 * delta * t
    y = 0.45 * delta * np.sin(1.2 * t) + np.cumsum(rng.normal(0.0, 0.01 * delta, n))
    return list(zip(x.tolist(), y.tolist()))


def _fit_exponent(ns, times) -> float:
    lx = np.log(np.asarray(ns, dtype=float))
    ly = np.log(np.asarray(times, dtype=float))
    slope = np.polyfit(lx, ly, 1)[0]
    return float(slope)


def run_bench(sizes=DEFAULT_SIZES, seed: int = 0, delta: float = 1.0) -> BenchResult:
    """Time every (size, algorithm, metric) job of ``JOBS`` in process CPU time,
    which other jobs on a shared machine disturb less than wall time; keeps the
    minimum over ``REPEATS`` runs."""
    result = BenchResult()
    series: dict = {}
    for n in sizes:
        pts = generate_walk(n, seed, delta)
        for algo, metric in JOBS:
            ms = math.inf
            for _ in range(REPEATS):
                t0 = time.process_time()
                res = simplify(pts, delta, metric, algo=algo)
                ms = min(ms, (time.process_time() - t0) * 1e3)
            wf = res.stats.get("max_wavefront_size", 0)
            if metric is not Metric.L2:
                wf = res.stats.get("max_segment_count", 0)
            result.rows.append(BenchRow(n, algo, metric.value, ms, wf, res.link_count))
            series.setdefault((algo, metric.value), []).append((n, ms))
    for key, pairs in series.items():
        ns = [p[0] for p in pairs]
        ts = [p[1] for p in pairs]
        if len(ns) >= 2:
            result.fits[key] = _fit_exponent(ns, ts)
            result.ratios[key] = {
                (ns[k], ns[k + 1]): ts[k + 1] / ts[k] for k in range(len(ns) - 1)
            }
    return result


def to_csv(result: BenchResult) -> str:
    lines = ["n,algo,metric,millis,maxWavefrontSize,linkCount"]
    for r in result.rows:
        lines.append(f"{r.n},{r.algo},{r.metric},{r.millis:.3f},{r.max_wavefront},{r.link_count}")
    for (algo, metric), exp in sorted(result.fits.items()):
        lines.append(f"# fit,algo={algo},metric={metric},exponent={exp:.3f}")
    for (algo, metric), rr in sorted(result.ratios.items()):
        for (n1, n2), ratio in rr.items():
            lines.append(f"# ratio,algo={algo},metric={metric},{n1}->{n2},{ratio:.3f}")
    return "\n".join(lines) + "\n"
