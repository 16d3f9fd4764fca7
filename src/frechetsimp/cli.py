"""Command-line interface.

Subcommands: simplify | verify | bench | stats.  Reports are JSON or CSV on
stdout and are byte-stable for a fixed (input, config, seed), except for
measured wall-clock fields.  Exit codes: 0 success, 1 input parse error,
2 invalid configuration, 3 verification mismatch, 4 internal geometry error
(a sweep met a configuration it cannot decide).  ``simplify
--svg-debug-dir`` draws its frames after the simplification, in a pass of
their own (``svgdebug.draw_frames``).
"""
from __future__ import annotations

import argparse
import json
import math
import sys
import time

from . import __version__, bench, polyio, svgdebug
from .geometry import InternalGeometryError, Metric
from .simplify import (InvalidInputError, SweepStats, nu_diagnostics, preprocess, simplify,
                       sweep_rows)
from .verify import InstanceError, VerifyConfig, run_verify

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_CONFIG = 2
EXIT_MISMATCH = 3
EXIT_GEOMETRY = 4


def _metric(value: str) -> Metric:
    try:
        return Metric(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"unknown metric {value!r}")


def _positive(value: str) -> float:
    x = float(value)
    if not x > 0.0:
        raise argparse.ArgumentTypeError("must be positive")
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError("must be finite")
    return x


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="frechetsimp",
                                description="Minimum-link polyline simplification "
                                            "under the local Frechet distance")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="cmd", required=True)

    ps = sub.add_parser("simplify", help="simplify a polyline file")
    ps.add_argument("--input", required=True)
    ps.add_argument("--output", required=True)
    ps.add_argument("--delta", type=_positive, required=True)
    ps.add_argument("--metric", type=_metric, default=Metric.L2)
    ps.add_argument("--algo", choices=("wavefront", "baseline"), default="wavefront")
    ps.add_argument("--threads", type=int, default=1)
    ps.add_argument("--svg-debug-dir", default=None)

    pv = sub.add_parser("verify", help="randomized cross-check against the oracle")
    pv.add_argument("--count", type=int, default=1000)
    pv.add_argument("--max-n", type=int, default=30)
    pv.add_argument("--delta", type=_positive, default=None,
                    help="fix delta instead of sampling it")
    pv.add_argument("--metric", type=_metric, default=None,
                    help="restrict to one metric (default: l1, l2 and linf)")
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--strict", action="store_true",
                    help="run the full structural-invariant battery per step")
    pv.add_argument("--style", choices=("uniform", "walk", "cluster"), default="uniform")
    pv.add_argument("--threads", type=int, default=1)
    pv.add_argument("--dump-prefix", default="counterexample",
                    help="file prefix for the first mismatch dump")

    pb = sub.add_parser("bench", help="scaling benchmark of both algorithms")
    pb.add_argument("--seed", type=int, default=0)
    pb.add_argument("--delta", type=_positive, default=1.0)
    pb.add_argument("--sizes", default=None,
                    help="comma-separated vertex counts (default 250,500,1000,2000)")

    pt = sub.add_parser("stats", help="wavefront-size and vertex-density diagnostics")
    pt.add_argument("--input", required=True)
    pt.add_argument("--delta", type=_positive, required=True)
    pt.add_argument("--metric", type=_metric, default=Metric.L2)
    return p


def _cmd_simplify(args) -> int:
    try:
        points = polyio.load_polyline(args.input)
    except (OSError, polyio.ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    t0 = time.perf_counter()
    try:
        res = simplify(points, args.delta, args.metric, args.algo, workers=max(1, args.threads))
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    millis = (time.perf_counter() - t0) * 1e3
    if args.svg_debug_dir:
        poly = preprocess(points)
        svgdebug.draw_frames(poly.vertices, args.metric, range(poly.n - 1), args.delta,
                             svgdebug.file_sink(args.svg_debug_dir))
    polyio.save_polyline(args.output, [points[k] for k in res.indices])
    summary = {
        "n": len(points),
        "kept": len(res.indices),
        "linkCount": res.link_count,
        "maxWavefrontSize": res.stats.get("max_wavefront_size", 0),
        "millis": round(millis, 3),
    }
    print(json.dumps(summary, sort_keys=True))
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.count < 1:
        print("error: --count must be at least 1", file=sys.stderr)
        return EXIT_CONFIG
    if args.max_n < 2:
        print("error: --max-n must be at least 2", file=sys.stderr)
        return EXIT_CONFIG
    metrics = (args.metric,) if args.metric else (Metric.L2, Metric.L1, Metric.LINF)
    delta_range = (args.delta, args.delta) if args.delta else (0.1, 3.0)
    cfg = VerifyConfig(count=args.count, max_n=args.max_n, delta_range=delta_range,
                       metrics=metrics, seed=args.seed, strict=args.strict,
                       workers=max(1, args.threads), style=args.style)
    try:
        rep = run_verify(cfg)
    except InstanceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    summary = {
        "checked": rep.checked,
        "mismatches": len(rep.mismatches),
        "maxWavefrontSize": rep.stats.max_arc_count,
        "maxSegmentCount": rep.stats.max_segment_count,
        "resamples": rep.resamples,
        "seconds": round(rep.wall_s, 3),
    }
    print(json.dumps(summary, sort_keys=True))
    if rep.mismatches:
        first = rep.mismatches[0]
        csv_path = f"{args.dump_prefix}.csv"
        diff_path = f"{args.dump_prefix}.txt"
        polyio.save_polyline(csv_path, first["points"])
        with open(diff_path, "w") as fh:
            fh.write(json.dumps({k: v for k, v in first.items() if k != "points"},
                                sort_keys=True, default=str, indent=2))
            fh.write("\n")
        print(f"first counterexample written to {csv_path} and {diff_path}",
              file=sys.stderr)
        return EXIT_MISMATCH
    return EXIT_OK


def _cmd_bench(args) -> int:
    sizes = bench.DEFAULT_SIZES
    if args.sizes:
        try:
            sizes = tuple(int(s) for s in args.sizes.split(","))
        except ValueError:
            print("error: --sizes expects comma-separated integers", file=sys.stderr)
            return EXIT_CONFIG
        if min(sizes) < 2:
            print("error: --sizes needs vertex counts of at least 2", file=sys.stderr)
            return EXIT_CONFIG
        if len(set(sizes)) < len(sizes):
            print("error: --sizes repeats a vertex count", file=sys.stderr)
            return EXIT_CONFIG
    result = bench.run_bench(sizes=sizes, seed=args.seed, delta=args.delta)
    sys.stdout.write(bench.to_csv(result))
    return EXIT_OK


def _cmd_stats(args) -> int:
    try:
        points = polyio.load_polyline(args.input)
    except (OSError, polyio.ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        poly = preprocess(points)
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    diag = nu_diagnostics(points, args.delta, args.metric)
    per_start = []
    total = SweepStats()
    for _, stats in sweep_rows(poly.vertices, args.metric, range(poly.n - 1), args.delta):
        per_start.append(stats.max_arc_count)
        total.fold(stats)
    out = {
        "maxVerticesInDeltaBall": diag["max_vertices_in_delta_ball"],
        "nuEstimate": diag["nu_estimate"],
        "impliedWavefrontBound": diag["implied_wavefront_bound"],
        "maxWavefrontSizePerStart": per_start,
        "maxWavefrontSize": total.max_arc_count,
    }
    print(json.dumps(out, sort_keys=True))
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    run = {"simplify": _cmd_simplify, "verify": _cmd_verify, "bench": _cmd_bench,
           "stats": _cmd_stats}[args.cmd]
    try:
        return run(args)
    except InternalGeometryError as exc:
        print(f"error: internal geometry error: {exc}", file=sys.stderr)
        return EXIT_GEOMETRY


if __name__ == "__main__":
    sys.exit(main())
