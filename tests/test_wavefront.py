import dataclasses
import math
import random

import numpy as np
import pytest

from frechetsimp import _disk, _square, shortcuts, svgdebug
from frechetsimp._engine import BELOW, OUTSIDE, VALID, Sweep, SweepAbortedError, sweep_targets
from frechetsimp.diagnostics import DiskChecker, SquareChecker
from frechetsimp.geometry import CircleKernel, InternalGeometryError, Metric
from frechetsimp.oracle import shortcut_is_valid
from frechetsimp.simplify import sweep_rows
from frechetsimp.verify import VerifyConfig, check_instance, random_instance

from oracles import rasterize_valid_region
from test_acceptance import _tie_instance
from walks import drift_walk


def bulge_cluster(m, delta=1.0, R=3.0, rho=0.8, span_deg=60.0, seed=0):
    """Apex plus m unit circles whose centers bulge away from the apex; the
    binary-subdivision visit order makes every step an interior insertion."""
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


class TestInitAndFirstStep:
    def test_init_whole_plane(self):
        L = [(0.0, 0.0), (0.0, 2.0), (0.0, 4.0)]
        sw = Sweep(L, 0, 1.0, CircleKernel)
        assert sw.kr is None and not sw.arcs and not sw.aborted

    def test_first_step_installs_wave(self):
        L = [(0.0, 0.0), (0.0, 2.0), (0.0, 4.0)]
        sw = Sweep(L, 0, 1.0, CircleKernel)
        rep = sw.step(1)
        assert rep.case == "INIT"
        assert len(sw.arcs) == 1
        a = sw.arcs[0]
        assert (a.x0, a.y0) == pytest.approx((math.sqrt(3) / 2, 1.5))
        assert (a.x1, a.y1) == pytest.approx((-math.sqrt(3) / 2, 1.5))
        # rays at 60 and 120 degrees (world angles)
        assert math.atan2(sw.ur[1], sw.ur[0]) == pytest.approx(math.radians(60))
        assert math.atan2(sw.ul[1], sw.ul[0]) == pytest.approx(math.radians(120))


class TestLocate:
    def make_state(self):
        L = [(0.0, 0.0), (0.0, 2.0), (0.0, 4.0)]
        sw = Sweep(L, 0, 1.0, CircleKernel)
        sw.step(1)
        return sw

    def test_far_point_in_valid_region(self):
        assert self.make_state().locate((0.0, 4.0)) is VALID

    def test_near_point_below_wavefront(self):
        assert self.make_state().locate((0.0, 0.5)) is BELOW

    def test_small_angle_outside_wedge(self):
        assert self.make_state().locate((4.0, 0.1)) is OUTSIDE

    def test_point_on_wavefront_counts_valid(self):
        assert self.make_state().locate((0.0, 1.0)) is VALID

    def test_apex_conventions(self):
        L = [(0.0, 0.0), (0.0, 2.0)]
        sw = Sweep(L, 0, 1.0, CircleKernel)
        assert sw.locate((0.0, 0.0)) is VALID      # no wavefront yet
        sw.step(1)
        assert sw.locate((0.0, 0.0)) is BELOW

    def test_aborted_state_raises(self):
        L = [(0.0, 0.0), (10.0, 0.0), (0.5, 0.0), (20.0, 0.0)]
        sw = Sweep(L, 0, 1.0, CircleKernel)
        for j in (1, 2):
            sw.step(j)
        assert sw.aborted
        with pytest.raises(SweepAbortedError):
            sw.locate((1.0, 1.0))


class TestStepCases:
    def test_collinear_climb_is_case_bb(self):
        L = [(0.0, 0.0), (0.0, 2.0), (0.0, 4.0)]
        sw = Sweep(L, 0, 1.0, CircleKernel)
        sw.step(1)
        rep = sw.step(2)
        assert rep.case == "BB"
        assert len(sw.arcs) == 1
        assert sw.arcs[0].idx == 2
        # wavefront now crosses the +y axis at |p_3| - delta = 3
        k = sw._key(0.0, 4.0)
        assert sw._front_dist_at(k, 0.0, 1.0) == pytest.approx(3.0)

    def test_interior_insertion_is_case_mm(self):
        pts = bulge_cluster(4)
        sw = Sweep(pts, 0, 1.0, CircleKernel)
        reports = [sw.step(j) for j in (1, 2, 3, 4)]
        assert reports[3].case == "MM"
        assert len(sw.arcs) == 4
        # the inserted arc sits between arcs of earlier circles
        order = [a.idx for a in sw.arcs]
        assert order.index(4) not in (0, len(order) - 1)

    def test_trap_aborts_and_rejects_distant_target(self):
        L = [(0.0, 0.0), (10.0, 0.0), (0.5, 0.0), (20.0, 0.0)]
        targets, sw = sweep_targets(L, 0, 1.0, CircleKernel)
        assert targets == [1]
        assert sw.aborted
        assert sw.stats.case_histogram.get("TT_EMPTY") == 1
        assert not shortcut_is_valid(L, 0, 3, 1.0)

    def test_tb_bt_never_occur_on_random_corpora(self):
        cfg = VerifyConfig(count=60, seed=1234)
        for idx in range(60):
            pts, delta, _ = random_instance(cfg, idx)
            pts_l = [tuple(p) for p in pts]
            for i in range(len(pts_l) - 1):
                _, sw = sweep_targets(pts_l, i, delta, CircleKernel)
                hist = sw.stats.case_histogram
                assert "TB" not in hist and "BT" not in hist


class TestShortcutsFrom:
    def test_deviation_one(self):
        assert shortcuts([(0, 0), (2, 1), (4, 0)], 0, 1.0) == [1, 2]

    def test_order_violation_instance(self):
        # vertex (3, 0.5) is 2 away from the segment to (1, 0.5), so only the
        # trivial shortcut survives (value computed with the interval oracle)
        L = [(0, 0), (3, 0.5), (1, 0.5), (4, 0)]
        assert [k for k in (1, 2, 3) if shortcut_is_valid(L, 0, k, 1.0)] == [1]
        assert shortcuts(L, 0, 1.0) == [1]

    def test_huge_delta_everything_valid(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(0, 5, (12, 2)).tolist()
        diam = max(math.dist(p, q) for p in pts for q in pts)
        assert shortcuts(pts, 0, diam + 1.0) == list(range(1, 12))

    def test_prefix_vertices_always_recorded(self):
        L = [(0.0, 0.0), (0.2, 0.0), (0.1, 0.3), (5.0, 0.0), (9.0, 0.0)]
        targets = shortcuts(L, 0, 1.0)
        assert 1 in targets and 2 in targets
        for k in targets:
            assert shortcut_is_valid(L, 0, k, 1.0)

    def test_arc_count_bound_and_conservation(self):
        pts = bulge_cluster(20)
        targets, sw = sweep_targets(pts, 0, 1.0, CircleKernel)
        assert sw.stats.max_arc_count <= len(pts) - 1
        assert sw.stats.removed <= sw.stats.inserted


class TestRegionRasterization:
    """The valid region kept by the sweep equals an independently rasterized
    reachability region, away from its boundary."""

    def region_agreement(self, pts, i, upto_j, delta, bbox, res=1000, guard=3):
        sw = Sweep(pts, i, delta, CircleKernel)
        for j in range(i + 1, upto_j + 1):
            sw.step(j)
        grid = rasterize_valid_region(pts, i, upto_j, delta, Metric.L2, bbox, res)
        # stay ``guard`` cells clear of the classification boundary
        stable = np.ones_like(grid)
        g = grid
        for ax in (0, 1):
            for sh in range(1, guard + 1):
                for s in (sh, -sh):
                    stable &= np.roll(g, s, axis=ax) == g
        xs = np.linspace(bbox[0], bbox[1], res)
        ys = np.linspace(bbox[2], bbox[3], res)
        step_diag = math.hypot(xs[1] - xs[0], ys[1] - ys[0])
        checked = 0
        mismatched = 0
        for r in range(0, res, 7):
            for c in range(0, res, 7):
                if not stable[r, c]:
                    continue
                p = (xs[c], ys[r])
                if math.dist(p, pts[i]) <= 2 * step_diag:
                    continue
                got = sw.locate(p) is VALID
                checked += 1
                if got != bool(grid[r, c]):
                    mismatched += 1
        assert checked > 1000
        assert mismatched == 0

    def test_collinear_climb_region(self):
        pts = [(0.0, 0.0), (0.0, 2.0), (0.0, 4.0)]
        self.region_agreement(pts, 0, 2, 1.0, (-3.0, 3.0, -0.5, 6.0))

    def test_mm_insertion_region(self):
        pts = bulge_cluster(5)
        self.region_agreement(pts, 0, 5, 1.0, (-3.0, 3.0, -0.5, 5.0))


class TestStrictInvariants:
    def test_random_corpus_with_checker(self):
        cfg = VerifyConfig(count=40, seed=808, strict=True)
        for idx in range(40):
            pts, delta, _ = random_instance(cfg, idx)
            problems, _ = check_instance(pts, delta, Metric.L2, strict=True)
            assert problems == [], problems

    def test_checker_catches_fault_injection(self):
        # an observer that drops a middle arc of the disk sweep's wavefront
        # before the checker sees it must trip the battery
        pts = bulge_cluster(8)
        X = [p[0] for p in pts]
        Y = [p[1] for p in pts]
        checker = DiskChecker(X, Y, 0, 1.0)

        def broken(j, case, arcs, wedge):
            if len(arcs) >= 3:
                arcs = arcs[:1] + arcs[2:]
            checker(j, case, arcs, wedge)

        with pytest.raises(InternalGeometryError, match="gap"):
            _disk._scalar(X, Y, 0, 1.0, broken)
        _disk._scalar(X, Y, 0, 1.0, DiskChecker(X, Y, 0, 1.0))      # unbroken, it passes

    @pytest.mark.parametrize("fault", ["lower X-", "swap rays"])
    def test_square_checker_catches_fault_injection(self, fault):
        # an observer that corrupts the square sweep's state at INIT before
        # the checker sees it must trip the battery
        pts = drift_walk(40, 3)
        X = [p[0] for p in pts]
        Y = [p[1] for p in pts]
        checker = SquareChecker(X, Y, 0, 1.0)

        def broken(j, case, faces, cones):
            if case == "INIT" and fault == "lower X-":
                xp, xm, yp, ym = faces
                faces = (xp, xm - 1.0, yp, ym)
            elif case == "INIT":
                q, rx, ry, lx, ly = next(c for c in cones if c[1] * c[4] > c[2] * c[3])
                cones = [[q, lx, ly, rx, ry]]
            checker(j, case, faces, cones)

        with pytest.raises(InternalGeometryError, match="rose" if fault == "lower X-" else
                           "l before r"):
            _square._scalar(X, Y, 0, 1.0, broken)
        _square._scalar(X, Y, 0, 1.0, SquareChecker(X, Y, 0, 1.0))  # unbroken, it passes

    def test_checkers_pass_every_tied_sweep_and_change_no_row(self):
        # c7's tie recipe: the engine the checkers once read raised on
        # hundreds of these sweeps; the shipped sweeps they read now raise on
        # none, and attaching a checker changes no target and no stat
        rng = random.Random(9)
        for _ in range(300):
            pts, delta = _tie_instance(rng)
            starts = range(len(pts) - 1)
            for metric in (Metric.L2, Metric.LINF, Metric.L1):
                checker = DiskChecker if metric is Metric.L2 else SquareChecker
                rows = [[(t, dataclasses.asdict(st))
                         for t, st in sweep_rows(pts, metric, starts, delta, watch=watch)]
                        for watch in (None, checker)]
                assert rows[1] == rows[0], (pts, delta, metric)


def test_svg_sink_receives_deterministic_frames(tmp_path):
    pts = bulge_cluster(4)
    frames = {}

    def sink(i, j, svg):
        frames[(i, j)] = svg

    svgdebug.draw_frames(pts, Metric.L2, [0], 1.0, sink)
    assert set(frames) == {(0, j) for j in range(1, 5)}
    svg = frames[(0, 4)]
    assert svg.count("<line") == 2
    assert svg.count("<path") == 5   # four arcs plus the current circle
    assert "case=MM" in svg
    frames2 = {}
    svgdebug.draw_frames(pts, Metric.L2, [0], 1.0,
                         lambda i, j, s: frames2.__setitem__((i, j), s))
    assert frames == frames2
    d = tmp_path / "frames"
    sink2 = svgdebug.file_sink(str(d))
    sink2(0, 1, frames[(0, 1)])
    assert (d / "frame_0_1.svg").read_text() == frames[(0, 1)]
