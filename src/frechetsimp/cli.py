"""Command-line interface.

Subcommands: simplify | verify | bench | stats.  Reports are JSON or CSV on
stdout and are byte-stable for a fixed (input, config, seed), except for
measured wall-clock fields (``stats`` prints a non-finite diagnostic as
``null``).  The parser states no library rule: ``--metric`` offers ``Metric``'s
values, ``verify`` takes ``VerifyConfig``'s defaults, and the library checks
each input where it enters (delta before the input file is read);
``main`` alone maps a failure to one ``error:`` line and its exit code:
1 ``ParseError`` (also for a file that is not UTF-8 text) or ``OSError``,
2 ``InvalidInputError``, or ``InstanceError`` where ``verify`` cannot draw
a clean instance, 4 ``InternalGeometryError`` (a sweep met a configuration
it cannot decide).  ``verify`` exits 3 on a mismatch, also where its
counterexample cannot be written.  ``simplify --svg-debug-dir`` draws its
frames after the simplification, in a pass of their own
(``svgdebug.draw_frames``).
"""
from __future__ import annotations

import argparse
import json
import math
import sys
import time

from . import __version__, bench, polyio, svgdebug
from .geometry import InternalGeometryError, Metric, _checked_metric
from .simplify import (ALGO_BASELINE, ALGO_WAVEFRONT, InvalidInputError, nu_diagnostics,
                       preprocess, simplify, sweep_rows)
from .verify import STYLES, InstanceError, VerifyConfig, run_verify

EXIT_OK = 0
EXIT_FILE = 1
EXIT_CONFIG = 2
EXIT_MISMATCH = 3
EXIT_GEOMETRY = 4

METRICS = tuple(m.value for m in Metric)


def _error(message, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="frechetsimp",
                                description="Minimum-link polyline simplification "
                                            "under the local Frechet distance")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="cmd", required=True)

    ps = sub.add_parser("simplify", help="simplify a polyline file")
    ps.add_argument("--input", required=True)
    ps.add_argument("--output", required=True)
    ps.add_argument("--delta", type=float, required=True)
    ps.add_argument("--metric", choices=METRICS, default=Metric.L2.value)
    ps.add_argument("--algo", choices=(ALGO_WAVEFRONT, ALGO_BASELINE), default=ALGO_WAVEFRONT)
    ps.add_argument("--threads", type=int, default=1)
    ps.add_argument("--svg-debug-dir", default=None)

    pv = sub.add_parser("verify", help="randomized cross-check against the oracle")
    pv.add_argument("--count", type=int, default=VerifyConfig.count)
    pv.add_argument("--max-n", type=int, default=VerifyConfig.max_n)
    pv.add_argument("--delta", type=float, default=None,
                    help="fix delta instead of sampling it")
    pv.add_argument("--metric", choices=METRICS, default=None,
                    help="restrict to one metric (default: l1, l2 and linf)")
    pv.add_argument("--seed", type=int, default=VerifyConfig.seed)
    pv.add_argument("--strict", action="store_true",
                    help="run the full structural-invariant battery per step")
    pv.add_argument("--style", choices=STYLES, default=VerifyConfig.style)
    pv.add_argument("--threads", type=int, default=VerifyConfig.workers)
    pv.add_argument("--dump-prefix", default="counterexample",
                    help="file prefix for the first mismatch dump")

    pb = sub.add_parser("bench", help="scaling benchmark of both algorithms")
    pb.add_argument("--seed", type=int, default=0)
    pb.add_argument("--sizes", default=None,
                    help="comma-separated vertex counts (default 250,500,1000,2000)")

    pt = sub.add_parser("stats", help="wavefront-size and vertex-density diagnostics")
    pt.add_argument("--input", required=True)
    pt.add_argument("--delta", type=float, required=True)
    pt.add_argument("--metric", choices=METRICS, default=Metric.L2.value)
    return p


def _cmd_simplify(args) -> int:
    metric = _checked_metric(args.delta, args.metric)     # before the input is read
    points = polyio.load_polyline(args.input)
    t0 = time.perf_counter()
    res = simplify(points, args.delta, metric, args.algo, workers=args.threads)
    millis = (time.perf_counter() - t0) * 1e3
    if args.svg_debug_dir:
        poly = preprocess(points)
        svgdebug.draw_frames(poly.vertices, metric, range(poly.n - 1), args.delta,
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
    metrics = VerifyConfig.metrics if args.metric is None else (args.metric,)
    # VerifyConfig checks delta: `--delta 0` is a bad delta, not a sampled one
    delta_range = VerifyConfig.delta_range if args.delta is None else (args.delta, args.delta)
    cfg = VerifyConfig(count=args.count, max_n=args.max_n, delta_range=delta_range,
                       metrics=metrics, seed=args.seed, strict=args.strict,
                       workers=args.threads, style=args.style)
    rep = run_verify(cfg)
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
        try:
            polyio.save_polyline(csv_path, first["points"])
            with open(diff_path, "w") as fh:
                fh.write(json.dumps({k: v for k, v in first.items() if k != "points"},
                                    sort_keys=True, default=str, indent=2))
                fh.write("\n")
        except OSError as exc:
            return _error(f"cannot write the first counterexample: {exc}", EXIT_MISMATCH)
        print(f"first counterexample written to {csv_path} and {diff_path}",
              file=sys.stderr)
        return EXIT_MISMATCH
    return EXIT_OK


def _cmd_bench(args) -> int:
    sizes = bench.DEFAULT_SIZES
    if args.sizes is not None:            # `--sizes ''` is an error, not the default
        try:
            sizes = tuple(int(s) for s in args.sizes.split(","))
        except ValueError:
            raise InvalidInputError("--sizes expects comma-separated integers") from None
    result = bench.run_bench(sizes=sizes, seed=args.seed)
    sys.stdout.write(bench.to_csv(result))
    return EXIT_OK


def _cmd_stats(args) -> int:
    metric = _checked_metric(args.delta, args.metric)     # before the input is read
    points = polyio.load_polyline(args.input)
    poly = preprocess(points)
    diag = {key: value if math.isfinite(value) else None      # JSON has no Infinity
            for key, value in nu_diagnostics(points, args.delta, metric).items()}
    per_start = [arcs for _, arcs in sweep_rows(poly.vertices, metric, range(poly.n - 1),
                                                args.delta)]
    out = {
        "maxVerticesInDeltaBall": diag["max_vertices_in_delta_ball"],
        "nuEstimate": diag["nu_estimate"],
        "impliedWavefrontBound": diag["implied_wavefront_bound"],
        "maxWavefrontSizePerStart": per_start,
        "maxWavefrontSize": max(per_start, default=0),
    }
    print(json.dumps(out, sort_keys=True))
    return EXIT_OK


def main(argv=None) -> int:
    """Runs one subcommand; the one place that maps a failure to its exit code."""
    args = build_parser().parse_args(argv)
    run = {"simplify": _cmd_simplify, "verify": _cmd_verify, "bench": _cmd_bench,
           "stats": _cmd_stats}[args.cmd]
    try:
        return run(args)
    except (InvalidInputError, InstanceError) as exc:
        return _error(exc, EXIT_CONFIG)
    except (polyio.ParseError, OSError) as exc:
        return _error(exc, EXIT_FILE)
    except InternalGeometryError as exc:
        return _error(f"internal geometry error: {exc}", EXIT_GEOMETRY)


if __name__ == "__main__":
    sys.exit(main())
