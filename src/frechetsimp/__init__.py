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

from ._engine import prepare
from ._square import sweep_rows
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
    return next(sweep_rows(work, [i], delta, kern))[0]
