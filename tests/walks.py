"""Seeded polyline generators shared by tests.

They use ``random.Random`` and ``math`` alone, so the points do not depend on
numpy's vectorised transcendental functions, whose rounding varies with the
SIMD build.
"""
import math
import random


def drift_walk(n, seed, delta=1.0):
    """Forward drift with a y oscillation inside the delta tube (few aborts)."""
    rng = random.Random(seed)
    pts = []
    y_noise = 0.0
    for t in range(n):
        y_noise += rng.gauss(0.0, 0.01 * delta)
        pts.append((0.3 * delta * t, 0.45 * delta * math.sin(1.2 * t) + y_noise))
    return pts


def stop_and_go(n, seed, delta=1.0, leg=20, dwell=8):
    """Heading-walk legs at 0.5 delta per fix, jittered dwells, turns at stops."""
    rng = random.Random(seed)
    x = y = 0.0
    heading = rng.uniform(-math.pi, math.pi)
    pts = []
    while len(pts) < n:
        for _ in range(leg):
            heading += rng.gauss(0.0, 0.08)
            x += 0.5 * delta * math.cos(heading)
            y += 0.5 * delta * math.sin(heading)
            pts.append((x, y))
        for _ in range(dwell):
            pts.append((x + rng.gauss(0.0, 0.25 * delta), y + rng.gauss(0.0, 0.25 * delta)))
        heading += rng.uniform(-1.6, 1.6)
    return pts[:n]


def quantized(pts, quantum):
    """Every coordinate rounded to a multiple of ``quantum`` (fixed-decimal data)."""
    return [(quantum * round(x / quantum), quantum * round(y / quantum)) for x, y in pts]


def lattice_walk(n, seed):
    """Integer-lattice walk drifting along +x: king moves that never stand
    still or step back (integer pixels)."""
    rng = random.Random(seed)
    moves = [(1, -1), (1, 0), (1, 1), (0, -1), (0, 1)]
    x = y = 0
    pts = [(0.0, 0.0)]
    while len(pts) < n:
        dx, dy = rng.choice(moves)
        x += dx
        y += dy
        pts.append((float(x), float(y)))
    return pts
