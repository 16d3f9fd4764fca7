"""frechetsimp benchmark: one workload at one seed, closed loop, one worker.

    python3 perfbench/run.py --workload drift-walk --seed 1 --seconds 30 --trace 0

Run from the repository root.  The run builds the workload's inputs from the
seed, then repeats the workload's round of operations (one call at a time)
while another round still fits in ``--seconds`` (at least once), checks
every output outside the timed region, prints each metric by name with its
unit, and ends with one JSON line ``{"correct", "attempted", "failed",
"metrics"}``.

Times are reference seconds (see clock.py): wall time rescaled by a fixed
reference loop timed during each call.  The wall-clock total is printed too.

``--trace 0`` reports the end-to-end metrics named in ``BENCHMARK.json``.
``--trace 1`` alternates untraced rounds with traced ones (see tracing.py),
reports the per-layer metrics, and writes the spans to ``perfbench/out/``.
Workloads and generator parameters are in ``workloads.json``; which layer
metric should move which end-to-end metric is in ``layer_map.json``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402  (needs the package path above)
from clock import SpeedMeter  # noqa: E402
from tracing import Tracer  # noqa: E402

SETUP_REPEATS = 5
# BENCHMARK.json gates only metrics that every workload reports; these are
# printed, by name and unit, on the workloads they describe
EXTRA_UNITS = {"baseline_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms",
               "verify_checks_per_s": "1/s", "fail_share": "share"}
EXTRA_ON = {"drift-walk": ("baseline_s", "fail_share"),
            "gps-trip": ("op_p50_ms", "op_p90_ms", "fail_share"),
            "verify-corpus": ("verify_checks_per_s", "fail_share")}
# workloads whose operations still fail report no timing (a fix that stops a
# crash would otherwise read as a slowdown)
UNTIMED = {"quantized-trip": ("setup_s", "fail_share", "peak_rss_mb")}


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def measure_setup(args, meter: SpeedMeter) -> float:
    """Median time for a fresh process to import frechetsimp and build the inputs."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--tiny"] if args.tiny else [])
    times = []
    for _ in range(1 if args.tiny else SETUP_REPEATS):
        _, seconds = meter.time(lambda: subprocess.run(
            cmd, check=True, stdout=subprocess.DEVNULL, timeout=120))
        times.append(seconds)
    return statistics.median(times)


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(p / 100.0 * len(s)) - 1)]


def compare_traced(untraced, traced) -> list:
    """Problems where a re-driven output differs from the untraced call's."""
    return [(t.op, "traced output differs from the untraced call")
            for u, t in zip(untraced, traced)
            if not (t.error or u.error) and t.indices != u.indices]


def end_to_end(rounds, failed: int, attempted: int) -> dict:
    """Every end-to-end value this run can give, including the printed-only ones."""
    values = {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "fail_share": failed / attempted}
    ok = [r for rnd in rounds for r in rnd if r.error is None]

    def per_round(keep):
        return statistics.median(sum(r.seconds for r in rnd if r.error is None and keep(r))
                                 for rnd in rounds)

    for m in workloads.METRICS:
        values[f"{m}_s"] = per_round(lambda r: r.op.metric == m and r.op.kind != "baseline")
    values["baseline_s"] = per_round(lambda r: r.op.kind == "baseline")
    main = [r for r in ok if r.op.kind != "baseline"]
    values["vertices_per_s"] = sum(r.vertices for r in main) / max(
        1e-12, sum(r.seconds for r in main))
    latencies = [r.seconds * 1e3 for r in main]
    values["calls"] = len(latencies)
    if latencies:
        values["op_p50_ms"] = percentile(latencies, 50)
        # the highest percentile with at least ten calls beyond it, capped at 90
        values["p_top"] = min(90, math.floor(100.0 * (len(latencies) - 10) / len(latencies)))
        values["op_p90_ms"] = (percentile(latencies, values["p_top"])
                               if values["p_top"] > 50 else float("nan"))
    verify_ops = [r for r in ok if r.report is not None]
    if verify_ops:
        values["verify_checks_per_s"] = (sum(r.report.checked for r in verify_ops)
                                         / sum(r.seconds for r in verify_ops))
    return values


def per_layer(traced_rounds, bench, problems) -> dict:
    """Median layer times over the traced rounds; exact counts, checked to repeat."""
    exact = {m["name"] for m in bench["per_layer"] if m["unit"] in ("count", "calls/step")}
    per_round = []
    for tracer, _, factor in traced_rounds:
        vals = tracer.layer_values()
        per_round.append({k: v if k in exact else v * factor for k, v in vals.items()})
    out = {}
    for name in per_round[0]:
        vals = [v[name] for v in per_round]
        if name in exact:
            if len(set(vals)) != 1:
                problems.append((None, f"count {name} differs between traced rounds"))
            out[name] = vals[0]
        else:
            out[name] = statistics.median(vals)
    return out


def write_spans(args, traced_rounds):
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    path = os.path.join(HERE, "out", f"spans-{args.workload}-seed{args.seed}.jsonl")
    origin = min(t.spans[0][1] for t, _, _ in traced_rounds if t.spans)
    with open(path, "w") as fh:
        for round_no, (tracer, _, _) in enumerate(traced_rounds):
            tracer.write(fh, origin, round_no)
    return path


def run(args):
    bench = load_benchmark()
    wall0 = time.perf_counter()
    meter = SpeedMeter()
    setup_s = measure_setup(args, meter)
    wl = workloads.build(args.workload, args.seed, args.tiny)
    attempted = failed = 0
    problems = []
    rounds, traced_rounds = [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        t_round = time.perf_counter()
        res = [workloads.run_op(wl, op, meter.time) for op in wl.ops]
        a, f, p = workloads.check_round(wl, res)
        attempted, failed, problems = attempted + a, failed + f, problems + p
        rounds.append(res)
        if args.trace:
            tracer = Tracer()
            since = meter.mark()
            op_base = len(traced_rounds) * len(wl.ops)
            tres = [tracer.run_op(wl, op, op_base + k, meter.time)
                    for k, op in enumerate(wl.ops)]
            a, f, p = workloads.check_round(wl, tres)
            differ = compare_traced(res, tres)
            attempted, failed = attempted + a, failed + f + len(differ)
            problems += p + differ
            traced_rounds.append((tracer, tres, meter.factor(since)))
        now = time.perf_counter()
        if now + (now - t_round) > deadline:
            break                 # another round would overrun --seconds

    values = end_to_end(rounds, failed, attempted)
    values["setup_s"] = setup_s
    if args.trace:
        layer = per_layer(traced_rounds, bench, problems)
        layer["trace_overhead"] = (
            statistics.median(sum(r.seconds for r in tres) for _, tres, _ in traced_rounds)
            / statistics.median(sum(r.seconds for r in rnd) for rnd in rounds))
        span_path = write_spans(args, traced_rounds)
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        emitted = {name: (layer[name], unit) for name, unit in units.items()}
    else:
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]} | EXTRA_UNITS
        names = UNTIMED.get(args.workload, [m["name"] for m in bench["end_to_end"]])
        emitted = {name: (values[name], units[name]) for name in names}

    print(f"workload {args.workload}  seed {args.seed}  rounds {len(rounds)}"
          f"  traced rounds {len(traced_rounds)}  ops {len(wl.ops)} per round"
          f"  wall {time.perf_counter() - wall0:.1f} s, {meter.wall:.1f} s in calls"
          f"  reference s per wall s {meter.factor():.3f}")
    for op, why in problems[:10]:
        where = f"{op.kind} {op.metric} #{op.key}" if op else "trace"
        print(f"FAILED {where}: {why}")
    for name, (value, unit) in emitted.items():
        print(f"{name:<44} {value:>16.6g} {unit}")
    if args.trace:
        print(f"spans written to {os.path.relpath(span_path, ROOT)}")
    elif args.workload in EXTRA_ON:
        for name in EXTRA_ON[args.workload]:
            print(f"{name:<44} {values[name]:>16.6g} {EXTRA_UNITS[name]}")
        if "op_p90_ms" in EXTRA_ON[args.workload] and values["p_top"] < 90:
            print(f"  only {values['calls']} calls: op_p90_ms is the p{values['p_top']}")
    print(f"failed operations {failed} of {attempted}")
    print(json.dumps({
        "correct": failed == 0 and not any(op is None for op, _ in problems),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in emitted.items()},
    }))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smoke-test sizes from workloads.json")
    ap.add_argument("--setup-only", action="store_true",
                    help="build the inputs and exit (used to time set-up)")
    args = ap.parse_args(argv)
    if args.setup_only:
        workloads.build(args.workload, args.seed, args.tiny)
        return
    run(args)


if __name__ == "__main__":
    main()
