"""Optimal polyline simplification under the local Frechet distance.

Given a polyline and a tolerance delta, find the minimum-vertex subsequence
whose every shortcut segment stays within Frechet distance delta of the
subpolyline it replaces.  A wedge/wavefront sweep of Euclidean disks serves
L2; Linf runs the square sweep, four running face extremes and one cone per
quadrant, and L1 the same sweep after the exact coordinate change that turns
its balls into Linf balls.  A cubic interval-oracle baseline serves as the
correctness reference.

``simplify`` runs the whole pipeline, ``shortcuts`` lists the valid shortcut
targets of one vertex, and ``shortcut_is_valid`` is the decision oracle.
"""

from .geometry import InternalGeometryError, Metric
from .oracle import ball_segment_interval, shortcut_is_valid
from .simplify import (InvalidInputError, SimplificationResult, _checked_metric,
                       _finite_vertices, simplify, simplify_baseline, sweep_rows)

__version__ = "0.1.0"

__all__ = [
    "InternalGeometryError", "InvalidInputError", "Metric", "SimplificationResult",
    "ball_segment_interval", "shortcut_is_valid", "shortcuts", "simplify",
    "simplify_baseline",
]


def shortcuts(points, i, delta, metric=Metric.L2):
    """Ascending valid shortcut targets k > i of vertex i under any supported
    metric; IndexError unless 0 <= i < len(points), and InvalidInputError for
    the delta, metric and coordinates that ``simplify`` rejects."""
    metric = _checked_metric(delta, metric)
    pts = _finite_vertices(points)
    if not 0 <= i < len(pts):
        raise IndexError(f"need 0 <= i < {len(pts)}, got i={i}")
    return next(sweep_rows(pts, metric, [i], delta))[0]
