"""The disk sweep (``_disk``): no angles, and a grazing cone as a half-plane."""
import ast
import inspect

import numpy as np

from frechetsimp import _disk, oracle
from frechetsimp.geometry import Metric
from frechetsimp.simplify import sweep_rows


def test_the_disk_sweep_takes_no_angle():
    tree = ast.parse(inspect.getsource(_disk))
    called = {node.func.attr for node in ast.walk(tree)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)}
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert not called & {"atan2", "atan", "cos", "sin", "hypot"}
    assert not names & {"EPS_ANGLE", "_KEY_SLACK", "_loc_cache"}


def test_a_circle_grazing_the_apex_gives_a_half_plane_cone():
    # from vertex 2, C_4 misses the apex by one rounding: dd is
    # 0.09000000000000002 against delta^2 = 0.09
    pts = [(1.4, 2.4), (1.6, 2.7), (1.7, 2.1), (1.5, 2.4), (2.0, 2.1), (2.6, 2.4),
           (2.5, 1.8), (3.1, 2.3), (2.6, 2.2), (2.4, 2.4), (1.9, 2.5), (2.4, 2.3)]
    delta = 0.3
    ox = pts[4][0] - pts[2][0]
    assert ox * ox > delta * delta and pts[4][1] == pts[2][1]
    coords = np.asarray(pts)
    rows = [targets for targets, _ in sweep_rows(pts, Metric.L2, range(len(pts) - 1), delta)]
    assert rows == [oracle.valid_targets_from(coords, i, delta, Metric.L2).tolist()
                    for i in range(len(pts) - 1)]
