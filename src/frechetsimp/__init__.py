"""Optimal polyline simplification under the local Frechet distance.

Given a polyline and a tolerance delta, find the minimum-vertex subsequence
whose every shortcut segment stays within Frechet distance delta of the
subpolyline it replaces.  One wedge/wavefront sweep serves all three norms:
Euclidean disks for L2, axis-aligned squares for Linf, and L1 through the
exact coordinate change that turns its balls into Linf balls.  A cubic
interval-oracle baseline serves as the correctness reference.

``simplify`` runs the whole pipeline, ``shortcuts`` lists the valid shortcut
targets of one vertex, and ``shortcut_is_valid`` is the decision oracle.
"""

from ._engine import prepare, sweep_targets
from .geometry import InternalGeometryError, Metric
from .oracle import ball_segment_interval, shortcut_is_valid
from .simplify import (InvalidInputError, SimplificationResult, simplify,
                       simplify_baseline)

__version__ = "0.1.0"

__all__ = [
    "InternalGeometryError", "InvalidInputError", "Metric", "SimplificationResult",
    "ball_segment_interval", "shortcut_is_valid", "shortcuts", "simplify",
    "simplify_baseline",
]


def shortcuts(points, i, delta, metric=Metric.L2):
    """Ascending valid shortcut targets k > i of vertex i under any supported metric."""
    work, kern = prepare(points, metric)
    return sweep_targets(work, i, delta, kern)[0]
