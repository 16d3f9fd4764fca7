#!/usr/bin/env python3
"""Render SVG frame galleries for a few instructive sweeps.

Produces one directory per scenario with frame_{i}_{j}.svg files, one per
step of the sweep ``simplify`` runs: the wedge, the wavefront arcs and the
circle being processed under L2; the live cones, the faces their wavefront
shows and the square being processed under L-inf.
"""
import argparse
import math
import os

import numpy as np

from frechetsimp import Metric
from frechetsimp.svgdebug import draw_frames, file_sink


def bulge_cluster(m, delta=1.0, R=3.0, rho=0.8, span_deg=60.0, seed=0):
    rng = np.random.default_rng(seed)
    fracs = [0.0, 1.0, 0.5]
    level = 2
    while len(fracs) < m:
        fracs += [k / (2 ** level) for k in range(1, 2 ** level, 2)]
        level += 1
    phimax = math.radians(span_deg)
    pts = [(0.0, 0.0)]
    for f in fracs[:m]:
        phi = -phimax + 2 * phimax * f
        pts.append((rho * delta * math.sin(phi) + rng.uniform(-1e-3, 1e-3),
                    R * delta + rho * delta * math.cos(phi) + rng.uniform(-1e-3, 1e-3)))
    return pts


SCENARIOS = {
    "collinear_climb": ([(0.0, 0.0), (0.0, 2.0), (0.0, 4.0), (0.0, 6.0)], 1.0, Metric.L2),
    "interior_insertions": (bulge_cluster(10), 1.0, Metric.L2),
    "order_trap": ([(0.0, 0.0), (10.0, 0.0), (0.5, 0.0), (20.0, 0.0)], 1.0, Metric.L2),
    "squares": ([(0.0, 0.0), (2.0, 3.0), (1.0, 6.0), (4.0, 7.0)], 1.5, Metric.LINF),
}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="case_gallery")
    args = ap.parse_args()
    for name, (pts, delta, metric) in SCENARIOS.items():
        directory = os.path.join(args.out, name)
        draw_frames(pts, metric, [0], delta, file_sink(directory))
        print(f"{name}: {len(os.listdir(directory))} frames -> {directory}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
