"""Desk-scale scaling benchmark: cubic baseline vs the wavefront sweeps.

The input family is a jittered line ("random walk" with a drift): unit steps
in x, small Gaussian wander in y relative to delta.  That keeps most
shortcuts valid, so the baseline does its full cubic work and the sweeps run
the whole polyline, which is the regime where the asymptotic gap shows.
"""
from __future__ import annotations

import math
import signal
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from .geometry import InvalidInputError, Metric
from .simplify import simplify

DEFAULT_SIZES = (250, 500, 1000, 2000)
JOBS = (("wavefront", Metric.L2), ("wavefront", Metric.LINF), ("baseline", Metric.L2))
REPEATS = 2
REF_INTERVAL = 0.02     # seconds between reference-loop samples during a job
REF_SECONDS = 1e-4      # nominal CPU time of one reference loop
REF_EXPONENT = 0.75     # job time goes as loop time to this power (perfbench/clock.py)


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


def _reference_loop(k: int = 2000) -> float:
    """Float arithmetic on two locals: it allocates next to nothing, so the
    job it interrupts changes its speed little through the caches."""
    x = 0.0
    for _ in range(k):
        x = x * 0.999 + 1.0
    return x


def _timed(fn) -> tuple:
    """``fn()``'s result and its CPU time in ms on a core where the reference
    loop takes ``REF_SECONDS``: the loop is timed every ``REF_INTERVAL``
    while ``fn`` runs (main thread only), and the job's own CPU time is
    scaled by (REF_SECONDS / median loop time) ** REF_EXPONENT."""
    loops = []

    def sample(signum=None, frame=None):
        t0 = time.process_time()
        _reference_loop()
        loops.append(time.process_time() - t0)

    previous = signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, REF_INTERVAL, REF_INTERVAL)
    try:
        t0 = time.process_time()
        result = fn()
        cpu = time.process_time() - t0 - sum(loops)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    if not loops:
        sample()                    # a job shorter than REF_INTERVAL
    return result, cpu * (REF_SECONDS / statistics.median(loops)) ** REF_EXPONENT * 1e3


def run_bench(sizes=DEFAULT_SIZES, seed: int = 0, delta: float = 1.0) -> BenchResult:
    """Time every (size, algorithm, metric) job of ``JOBS`` in process CPU time,
    which other jobs on a shared machine disturb less than wall time, rescaled
    to a fixed core speed by ``_timed``; keeps the minimum over ``REPEATS`` runs.

    On a shared 2-vCPU cloud VM one core's speed drifted by up to 1.8x over
    seconds to minutes, which swings unscaled doubling ratios past the bands
    of the scaling test; the reference loop, timed while the job runs,
    follows that drift.  The runs go in rounds, each over every size and
    job, so a job's runs lie a round apart rather than back to back.

    Raises InvalidInputError before any job runs for a size below 2, a
    repeated size (it has no doubling ratio) or a negative seed.
    """
    if any(n < 2 for n in sizes) or len(set(sizes)) < len(sizes):
        raise InvalidInputError("sizes must be distinct vertex counts of at least 2")
    if seed < 0:
        raise InvalidInputError("seed must be non-negative")
    walks = {n: generate_walk(n, seed, delta) for n in sizes}
    best: dict = {}                                 # (n, algo, metric) -> (ms, result)
    for _ in range(REPEATS):
        for n in sizes:
            for algo, metric in JOBS:
                res, ms = _timed(lambda: simplify(walks[n], delta, metric, algo=algo))
                if ms < best.get((n, algo, metric), (math.inf,))[0]:
                    best[n, algo, metric] = (ms, res)
    result = BenchResult()
    series: dict = {}
    for n in sizes:
        for algo, metric in JOBS:
            ms, res = best[n, algo, metric]
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
