"""The traced run: the same operations re-driven through the layers' entry points.

``simplify`` gives no hook inside itself, so a traced operation rebuilds it
from the public pieces it is made of: ``simplify.preprocess``, one
``_engine.Sweep`` per start vertex (``locate_vertex`` and ``step`` timed
around each call and aggregated by the returned step case), the link-distance
DP and path extraction.  The baseline re-drives ``oracle.valid_targets_from``;
a verify call re-drives ``verify.random_instance``,
``oracle.shortcut_matrix_dense`` and the sweeps.  Kernel primitives are
counted by handing the engine a counting subclass of its kernel.  Every
re-driven output is compared with the untraced call's output.

Spans (name, start, end, parent span, op id) are kept in memory and written
out when the run ends; per-step timings are counters, not spans.  Layer
times named ``*_ms`` are totals over one round of the workload; ``ns``
figures are per step, per locate call or per oracle pair.
"""
from __future__ import annotations

import json
import time
from collections import Counter

import numpy as np

from frechetsimp import oracle, verify
from frechetsimp._engine import CASES, VALID, Sweep
from frechetsimp.geometry import CircleKernel, Metric, SquareKernel, l1_to_linf
from frechetsimp.simplify import preprocess

from workloads import METRICS, Op, OpResult, Workload

KERNEL_PRIMITIVES = ("distance", "contains", "ray_hits", "tangent_points",
                     "boundary_intersections", "on_near_side", "wave_path",
                     "graze_fallback")
ENGINE_COUNTS = ("sweeps", "steps", "aborts", "max_arcs", "arcs_removed")
_clock = time.perf_counter_ns


def counting_kernel(base, counts: Counter):
    """A subclass of kernel class ``base`` whose primitives bump ``counts``."""
    def counted(name):
        fn = getattr(base, name)

        def call(*args, **kw):
            counts[name] += 1
            return fn(*args, **kw)
        return staticmethod(call)
    return type("Counting" + base.__name__, (base,),
                {name: counted(name) for name in KERNEL_PRIMITIVES})


class EngineStats:
    """Per-metric sweep counters of one traced round."""

    def __init__(self):
        self.case_ns = Counter()
        self.case_steps = Counter()
        self.locate_ns = 0
        self.locates = 0
        self.counts = Counter()
        self.kernel = Counter()


class Tracer:
    """Spans and layer counters of one traced round."""

    def __init__(self):
        self.spans = []                 # [name, start_ns, end_ns, parent, op]
        self.engine = {m: EngineStats() for m in METRICS}
        self.ns = Counter()             # layer time, keyed by per-layer metric name
        self.counts = Counter()         # layer work counts, keyed likewise
        self.kernels = {}
        for m, st in self.engine.items():
            base = CircleKernel if METRICS[m] is Metric.L2 else SquareKernel
            self.kernels[m] = counting_kernel(base, st.kernel)

    def begin(self, name: str, parent, op: int) -> int:
        self.spans.append([name, _clock(), None, parent, op])
        return len(self.spans) - 1

    def end(self, sid: int) -> int:
        """Closes span ``sid``; returns its duration in ns."""
        span = self.spans[sid]
        span[2] = _clock()
        return span[2] - span[1]

    def write(self, fh, origin_ns: int, round_no: int):
        """Writes the spans as JSON lines; span ids are unique within a round."""
        for sid, (name, t0, t1, parent, op) in enumerate(self.spans):
            fh.write(json.dumps({"round": round_no, "id": sid, "name": name,
                                 "op": op, "parent": parent,
                                 "start_ns": t0 - origin_ns,
                                 "end_ns": None if t1 is None else t1 - origin_ns})
                     + "\n")

    # -- the engine layer ---------------------------------------------------

    def sweep(self, metric: str, pts, i: int, delta: float, parent, op: int) -> list:
        """Valid targets from vertex i, as ``_engine.sweep_targets`` finds them."""
        st = self.engine[metric]
        sid = self.begin("sweep", parent, op)
        try:
            sw = Sweep(pts, i, delta, self.kernels[metric])
            out = []
            case_ns = st.case_ns
            case_steps = st.case_steps
            locate_ns = 0
            for j in range(i + 1, len(pts)):
                t0 = _clock()
                loc = sw.locate_vertex(j)
                t1 = _clock()
                case = sw.step(j).case
                t2 = _clock()
                if loc is VALID:
                    out.append(j)
                locate_ns += t1 - t0
                case_ns[case] += t2 - t1
                case_steps[case] += 1
                if sw.aborted:
                    break
        finally:
            self.end(sid)
        steps = sw.stats.steps
        st.locate_ns += locate_ns
        st.locates += steps
        c = st.counts
        c["sweeps"] += 1
        c["steps"] += steps
        c["aborts"] += int(sw.aborted)
        c["arcs_removed"] += sw.stats.removed
        c["max_arcs"] = max(c["max_arcs"], sw.stats.max_arc_count)
        return out

    # -- re-driven operations -------------------------------------------------

    def run_op(self, wl: Workload, op: Op, op_id: int, timer) -> OpResult:
        """One re-driven call; ``timer(fn)`` runs it and returns (result, seconds)."""
        redrive = self._verify if op.kind == "verify" else self._simplify
        sid = self.begin("op", None, op_id)
        try:
            res, seconds = timer(lambda: redrive(wl, op, sid, op_id))
            res.seconds = seconds
        except Exception as exc:  # noqa: BLE001 - any raise is a failed operation
            res = OpResult(op, 0.0, 0, error=f"{type(exc).__name__}: {exc}")
        finally:
            self.end(sid)
        return res

    def _simplify(self, wl: Workload, op: Op, parent: int, op_id: int) -> OpResult:
        points = wl.polylines[op.key]
        delta = wl.delta
        metric = METRICS[op.metric]
        wavefront = op.kind == "wavefront"
        sid = self.begin("preprocess", parent, op_id)
        poly = preprocess(points)
        dt = self.end(sid)
        pts = poly.vertices
        n = poly.n
        if wavefront:
            self.ns["simplify.preprocess_ms"] += dt
            work = l1_to_linf(pts) if metric is Metric.L1 else pts
        else:
            coords = np.asarray(pts, dtype=float)
        d = [0] * n
        parent_of = [-1] * n
        for i in range(n - 2, -1, -1):
            if wavefront:
                targets = self.sweep(op.metric, work, i, delta, parent, op_id)
            else:
                sid = self.begin("oracle", parent, op_id)
                targets = oracle.valid_targets_from(coords, i, delta, metric).tolist()
                self.ns["oracle.ns_per_pair"] += self.end(sid)
                self.counts["oracle.pairs"] += n - 1 - i
            sid = self.begin("dp", parent, op_id)
            best = None
            arg = -1
            for j in targets:
                if best is None or d[j] + 1 < best:
                    best = d[j] + 1
                    arg = j
            if best is None:
                best, arg = d[i + 1] + 1, i + 1
            d[i] = best
            parent_of[i] = arg
            dt = self.end(sid)
            if wavefront:
                self.ns["simplify.dp_ms"] += dt
                self.counts["simplify.dp_edges"] += len(targets)
        sid = self.begin("path", parent, op_id)
        chain = [0]
        while chain[-1] != n - 1:
            chain.append(parent_of[chain[-1]])
        indices = [poly.indices[c] for c in chain]
        indices[-1] = len(points) - 1
        dt = self.end(sid)
        if wavefront:
            self.ns["simplify.path_ms"] += dt
        return OpResult(op, 0.0, len(points), indices=indices)

    def _verify(self, wl: Workload, op: Op, parent: int, op_id: int) -> OpResult:
        """Per instance: draw it, then compare every sweep with the dense oracle."""
        cfg = wl.configs[op.key]
        metric = METRICS[op.metric]
        rep = verify.VerifyReport()
        for idx in range(cfg.count):
            sid = self.begin("verify.draw", parent, op_id)
            pts, delta, resamples = verify.random_instance(cfg, idx)
            self.ns["verify.draw_ms"] += self.end(sid)
            self.counts["verify.resamples"] += resamples
            rep.resamples += resamples
            check = self.begin("verify.check", parent, op_id)
            pts_list = [(float(p[0]), float(p[1])) for p in pts]
            sid = self.begin("oracle", check, op_id)
            dense = oracle.shortcut_matrix_dense(np.asarray(pts_list), delta, metric)
            self.ns["oracle.dense_ms"] += self.end(sid)
            work = l1_to_linf(pts_list) if metric is Metric.L1 else pts_list
            for i in range(len(pts_list) - 1):
                targets = self.sweep(op.metric, work, i, delta, check, op_id)
                if targets != np.nonzero(dense[i])[0].tolist():
                    rep.mismatches.append({"kind": "shortcut_set", "instance": idx, "i": i})
            self.ns["verify.check_ms"] += self.end(check)
            rep.checked += 1
            rep.sweeps += len(pts_list) - 1
        return OpResult(op, 0.0, rep.sweeps + rep.checked, report=rep)

    # -- per-layer metrics -----------------------------------------------------

    def layer_values(self) -> dict:
        """Every per-layer metric of this round except trace_overhead."""
        out = {}
        for m, st in self.engine.items():
            steps = st.counts["steps"]
            for case in CASES:
                k = st.case_steps[case]
                out[f"engine.{m}.ns.{case}"] = st.case_ns[case] / k if k else 0.0
                out[f"engine.{m}.steps.{case}"] = k
            for name in ENGINE_COUNTS:
                out[f"engine.{m}.{name}"] = st.counts[name]
            out[f"engine.{m}.ns_per_step"] = sum(st.case_ns.values()) / steps if steps else 0.0
            out[f"engine.{m}.locate_ns"] = st.locate_ns / st.locates if st.locates else 0.0
            per_step = (lambda c: c / steps) if steps else (lambda c: 0.0)
            out[f"geometry.{m}.kernel_calls_per_step"] = per_step(sum(st.kernel.values()))
            out[f"geometry.{m}.ray_hits_per_step"] = per_step(st.kernel["ray_hits"])
            out[f"geometry.{m}.boundary_intersections_per_step"] = per_step(
                st.kernel["boundary_intersections"])
        pairs = self.counts["oracle.pairs"]
        out["oracle.ns_per_pair"] = self.ns["oracle.ns_per_pair"] / pairs if pairs else 0.0
        out["oracle.pairs"] = pairs
        for name in ("oracle.dense_ms", "simplify.preprocess_ms", "simplify.dp_ms",
                     "simplify.path_ms", "verify.draw_ms", "verify.check_ms"):
            out[name] = self.ns[name] * 1e-6
        out["simplify.dp_edges"] = self.counts["simplify.dp_edges"]
        out["verify.resamples"] = self.counts["verify.resamples"]
        return out
