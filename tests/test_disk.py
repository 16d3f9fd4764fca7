"""The disk sweep (``_disk``): no angles, a grazing cone as a half-plane, and
each scan's picked crossing as the end of its pair."""
import ast
import collections
import inspect
import random

import numpy as np
import pytest

from frechetsimp import _disk, oracle
from frechetsimp.geometry import Metric
from frechetsimp.simplify import sweep_rows

from test_acceptance import _tie_instance
from walks import drift_walk, lattice_walk, quantized, stop_and_go


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


def _ties():
    rng = random.Random(9)          # c7's tie recipe
    return [_tie_instance(rng) for _ in range(1500)]


PICK_INPUTS = {
    "stopgo": lambda: [(stop_and_go(150, 11), 1.0), (stop_and_go(150, 23, leg=14, dwell=12), 0.6)],
    "drift": lambda: [(drift_walk(120, 7), 1.0), (drift_walk(200, 2), 0.8)],
    "quantized": lambda: [(quantized(stop_and_go(150, 11), 0.01), 1.0),
                          (quantized(stop_and_go(150, 3), 0.1), 1.0),
                          (quantized(drift_walk(120, 2), 0.1), 0.8)],
    "lattice": lambda: [(lattice_walk(120, 5), 1.0), (lattice_walk(120, 8), 1.5)],
    "ties": _ties,
}


@pytest.mark.parametrize("name", sorted(PICK_INPUTS))
def test_a_picked_crossing_is_the_end_of_the_pair_it_replaces(name, monkeypatch):
    # every scan keeps one crossing of a pair: the picked one must be that
    # end of the pair, bit for bit, and None where the circles coincide
    crossings = _disk._crossings
    seen = collections.Counter()

    def checked(a, x, y, rr, pick=None):
        got = crossings(a, x, y, rr, pick)
        if pick is not None:
            pair = crossings(a, x, y, rr)
            want = None if pair is None else pair[pick] if pair else ()
            assert repr(got) == repr(want), (a, x, y, rr, pick)
            seen[pick, None if pair is None else len(pair)] += 1
        return got

    monkeypatch.setattr(_disk, "_crossings", checked)
    for pts, delta in PICK_INPUTS[name]():
        for _ in sweep_rows(pts, Metric.L2, range(len(pts) - 1), delta):
            pass
    assert seen[0, 1] and seen[-1, 1]
    # C_j on the arc's own circle: no pair, and nothing to pick
    arc = [1.0, -1.0, 1.0, 1.0, 2.0, 0.0]
    assert [checked(arc, 2.0, 0.0, 2.0, pick) for pick in (0, -1)] == [None, None]
