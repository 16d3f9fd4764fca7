#!/usr/bin/env python3
"""Long randomized cross-check of the sweeps against the interval oracle.

Heavier than the CLI defaults: mixes instance families and alternates fast
and strict (full invariant battery) passes.  Intended for soak testing after
changes to the engine.
"""
import argparse
import sys

from frechetsimp.verify import VerifyConfig, run_verify


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=20000, help="fast instances per family")
    ap.add_argument("--strict-count", type=int, default=500)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--workers", type=int, default=2)
    args = ap.parse_args()

    failures = 0
    for style in ("uniform", "walk", "cluster"):
        for strict, count in ((False, args.count), (True, args.strict_count)):
            cfg = VerifyConfig(count=count, seed=args.seed, strict=strict,
                               workers=args.workers, style=style)
            rep = run_verify(cfg)
            tag = f"{style:8s} strict={strict!s:5s}"
            print(f"{tag} checked={rep.checked:7d} maxWF={rep.stats.max_arc_count:2d} "
                  f"maxSeg={rep.stats.max_segment_count} wall={rep.wall_s:7.1f}s "
                  f"mismatches={len(rep.mismatches)}")
            for m in rep.mismatches[:3]:
                print("   ", {k: v for k, v in m.items() if k != "points"})
            failures += len(rep.mismatches)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
