"""Seeded input generators, workload definitions and per-operation checks.

Every input comes from a generator in this file, parameterised by
``workloads.json`` and the run's seed, so no change to the package under
test can alter a workload's inputs.  An *operation* is one call into a public
entry point of ``frechetsimp``; a *round* is the workload's fixed list of
operations, run one at a time (closed loop, one worker).
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from frechetsimp import oracle, verify
from frechetsimp.geometry import Metric
from frechetsimp.simplify import simplify

SPEC_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "workloads.json")
METRICS = {"l2": Metric.L2, "linf": Metric.LINF, "l1": Metric.L1}
LINK_SLACK = 1e-6          # links are revalidated at delta * (1 + LINK_SLACK)


def load_spec(name: str, tiny: bool = False) -> dict:
    with open(SPEC_PATH) as fh:
        specs = json.load(fh)
    if name not in specs:
        raise SystemExit(f"unknown workload {name!r}; choose from {', '.join(specs)}")
    spec = dict(specs[name])
    overrides = spec.pop("tiny")
    if tiny:
        spec.update(overrides)
    return spec


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def drift_walk(n: int, seed: int, delta: float) -> list[tuple[float, float]]:
    """Forward-drifting walk inside the delta tube (frechetsimp.bench's formula)."""
    rng = np.random.default_rng([seed, n])
    t = np.arange(n, dtype=float)
    x = 0.3 * delta * t
    y = 0.45 * delta * np.sin(1.2 * t) + np.cumsum(rng.normal(0.0, 0.01 * delta, n))
    return list(zip(x.tolist(), y.tolist()))


def gps_trip(rng, spec: dict) -> list[tuple[float, float]]:
    """One trip: moving legs (heading random walk) alternating with dwell stops."""
    delta = spec["delta"]
    n = spec["vertices"]
    lo, hi = 1.0 - spec["step_jitter"], 1.0 + spec["step_jitter"]
    pos = rng.uniform(0.0, spec["origin_span"] * delta, 2)
    heading = rng.uniform(0.0, 2.0 * np.pi)
    parts = []
    count = 0
    while count < n:
        k = spec["leg_fixes"]
        headings = heading + np.cumsum(rng.normal(0.0, spec["turn_sigma"], k))
        steps = spec["step"] * delta * rng.uniform(lo, hi, k)
        leg = pos + np.cumsum(np.column_stack((steps * np.cos(headings),
                                               steps * np.sin(headings))), axis=0)
        heading = headings[-1] + rng.uniform(-spec["stop_turn"], spec["stop_turn"])
        pos = leg[-1]
        dwell = pos + rng.normal(0.0, spec["dwell_sigma"] * delta, (spec["dwell_fixes"], 2))
        parts += [leg, dwell]
        count += len(leg) + len(dwell)
    pts = np.concatenate(parts)[:n]
    if "quantum" in spec:
        q = spec["quantum"] * delta
        pts = np.round(pts / q) * q
    return [tuple(p) for p in pts.tolist()]


def gps_trips(seed: int, spec: dict) -> list[list[tuple[float, float]]]:
    rng = np.random.default_rng(seed)
    return [gps_trip(rng, spec) for _ in range(spec["trips"])]


# ---------------------------------------------------------------------------
# workloads and operations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Op:
    kind: str                 # "wavefront" | "baseline" | "verify"
    metric: str               # key of METRICS
    key: int                  # polyline index, or verify config index


@dataclass
class OpResult:
    op: Op
    seconds: float            # time of the call alone, as the run's timer measured it
    vertices: int             # input vertices the call processed
    indices: Optional[list] = None
    report: Optional[verify.VerifyReport] = None
    error: Optional[str] = None


@dataclass
class Workload:
    name: str
    seed: int
    spec: dict
    polylines: list = field(default_factory=list)
    configs: list = field(default_factory=list)
    ops: list = field(default_factory=list)

    @property
    def delta(self) -> float:
        return self.spec.get("delta", 1.0)


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    """Generate the workload's inputs and its round of operations."""
    spec = load_spec(name, tiny)
    wl = Workload(name, seed, spec)
    gen = spec["generator"]
    if gen == "verify_configs":
        # chunk-major order spreads each metric's calls over the whole round
        for chunk in range(spec["chunks"]):
            for style in spec["styles"]:
                for m in spec["metrics"]:
                    wl.ops.append(Op("verify", m, len(wl.configs)))
                    wl.configs.append(verify.VerifyConfig(
                        count=spec["count"], max_n=spec["max_n"], metrics=(METRICS[m],),
                        seed=seed * 1000 + chunk, style=style, workers=1, strict=False))
        return wl
    if gen == "drift_walk":
        wl.polylines = [drift_walk(spec["n"], seed, spec["delta"])]
    else:
        wl.polylines = gps_trips(seed, spec)
    for key in range(len(wl.polylines)):
        for m in spec["metrics"]:
            wl.ops.append(Op("wavefront", m, key))
        if spec["baseline"]:
            wl.ops.append(Op("baseline", "l2", key))
    return wl


def run_op(wl: Workload, op: Op, timer) -> OpResult:
    """One untraced call; ``timer(fn)`` runs it and returns (result, seconds)."""
    try:
        if op.kind == "verify":
            rep, seconds = timer(lambda: verify.run_verify(wl.configs[op.key]))
            return OpResult(op, seconds, rep.sweeps + rep.checked, report=rep)
        pts = wl.polylines[op.key]
        res, seconds = timer(lambda: simplify(pts, wl.delta, METRICS[op.metric], algo=op.kind))
        return OpResult(op, seconds, len(pts), indices=list(res.indices))
    except Exception as exc:  # noqa: BLE001 - any raise is a failed operation
        return OpResult(op, 0.0, 0, error=f"{type(exc).__name__}: {exc}")


# ---------------------------------------------------------------------------
# checks (always outside the timed region)
# ---------------------------------------------------------------------------


def check_path(pts, indices, delta: float, metric: Metric) -> Optional[str]:
    """Why a simplification output is wrong, or None when it passes."""
    n = len(pts)
    if not indices or indices[0] != 0 or indices[-1] != n - 1:
        return "path does not run from vertex 0 to vertex n-1"
    if any(b <= a for a, b in zip(indices, indices[1:])):
        return "indices do not strictly increase"
    for a, b in zip(indices, indices[1:]):
        if not oracle.shortcut_is_valid(pts, a, b, delta * (1.0 + LINK_SLACK), metric):
            return f"link ({a}, {b}) fails the oracle"
    return None


def check_round(wl: Workload, results: list) -> tuple[int, int, list]:
    """(attempted, failed, problems) for one round of results.

    A verify call counts its instance x metric checks as operations and each
    instance with a reported mismatch as one failure.
    """
    attempted = failed = 0
    problems = []
    baseline_links = {r.op.key: len(r.indices) - 1 for r in results
                      if r.op.kind == "baseline" and r.indices is not None}
    for r in results:
        if r.op.kind == "verify":
            cfg = wl.configs[r.op.key]
            attempted += r.report.checked if r.report else cfg.count
            if r.error:
                failed += cfg.count
                problems.append((r.op, r.error))
            else:
                bad = {m["instance"] for m in r.report.mismatches}
                failed += len(bad)
                problems += [(r.op, f"mismatch {m['kind']} on instance {m['instance']}")
                             for m in r.report.mismatches[:3]]
            continue
        attempted += 1
        why = r.error
        if why is None:
            pts = wl.polylines[r.op.key]
            why = check_path(pts, r.indices, wl.delta, METRICS[r.op.metric])
        if (why is None and r.op.kind == "wavefront" and wl.spec["baseline"]
                and len(r.indices) - 1 != baseline_links.get(r.op.key)):
            why = (f"{len(r.indices) - 1} links, baseline has "
                   f"{baseline_links.get(r.op.key)}")
        if why is not None:
            failed += 1
            problems.append((r.op, why))
    return attempted, failed, problems
