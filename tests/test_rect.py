import math

import numpy as np
import pytest

from frechetsimp import shortcuts
from frechetsimp._engine import Sweep, sweep_targets
from frechetsimp.geometry import Metric, SquareKernel
from frechetsimp.oracle import shortcut_is_valid
from frechetsimp.simplify import sweep_rows
from frechetsimp.verify import VerifyConfig, random_instance

from oracles import rasterize_valid_region, square_wave_path
from reference import engine_input

SQ = (Metric.L1, Metric.LINF)


def budgeted_shortcuts(pts, i, delta, metric):
    """``shortcuts``, checked against a sweep that kept the two-segment budget."""
    got = shortcuts(pts, i, delta, metric)
    work, kern = engine_input(pts, metric)
    targets, sw = sweep_targets(work, i, delta, kern)
    assert targets == got
    assert sw.stats.max_segment_count <= 2
    return got


def wave_points(sw):
    """The wavefront as a polyline: each arc's visible square boundary, in
    the sweep's working coordinates, with shared arc endpoints merged."""
    pts = []
    for a in sw.arcs:
        path = SquareKernel.wave_path(sw.ax, sw.ay, a.cx, a.cy, sw.delta,
                                      (a.x0, a.y0), (a.x1, a.y1))
        for p in path:
            if not pts or abs(p[0] - pts[-1][0]) + abs(p[1] - pts[-1][1]) > 1e-12:
                pts.append(p)
    return pts


class TestFirstSquare:
    def test_wave_is_bottom_edge(self):
        L = [(0.0, 0.0), (0.0, 2.0), (0.0, 4.0)]
        sw = Sweep(L, 0, 1.0, SquareKernel)
        sw.step(1)
        wave = wave_points(sw)
        assert len(wave) == 2          # one segment, no corner
        assert sorted(wave) == [(-1.0, 1.0), (1.0, 1.0)]
        # wedge through the square corners: 45 and 135 degrees
        assert math.atan2(sw.ur[1], sw.ur[0]) == pytest.approx(math.radians(45))
        assert math.atan2(sw.ul[1], sw.ul[0]) == pytest.approx(math.radians(135))

    def test_second_square_lifts_wavefront_to_y3(self):
        L = [(0.0, 0.0), (0.0, 2.0), (0.0, 4.0)]
        sw = Sweep(L, 0, 1.0, SquareKernel)
        sw.step(1)
        sw.step(2)
        wave = wave_points(sw)
        assert len(wave) == 2
        for (x, y) in wave:
            assert y == pytest.approx(3.0)
            assert -1.0 - 1e-9 <= x <= 1.0 + 1e-9
        # independently: the rasterized region boundary sits at y = 3 mid-wedge
        grid = rasterize_valid_region(L, 0, 2, 1.0, Metric.LINF,
                                      (-2.0, 2.0, 0.0, 6.0), res=601)
        ys = np.linspace(0.0, 6.0, 601)
        col = grid[:, 300]          # the x = 0 column
        first = ys[np.argmax(col)]
        assert first == pytest.approx(3.0, abs=0.02)

    def test_disjoint_squares_abort(self):
        L = [(0.0, 0.0), (0.0, 2.0), (10.0, -10.0)]
        sw = Sweep(L, 0, 1.0, SquareKernel)
        sw.step(1)
        sw.step(2)
        assert sw.aborted


class TestRectShortcuts:
    def test_deviation_one_linf(self):
        assert budgeted_shortcuts([(0, 0), (2, 1), (4, 0)], 0, 1.0, Metric.LINF) == [1, 2]

    def test_boundary_tight_instance_matches_oracle(self):
        # under Linf both far targets are exactly tube-tight; freeze what the
        # interval oracle computes and require agreement
        L = [(0, 0), (3, 0.5), (1, 0.5), (4, 0)]
        want = [k for k in (1, 2, 3) if shortcut_is_valid(L, 0, k, 1.0, Metric.LINF)]
        assert budgeted_shortcuts(L, 0, 1.0, Metric.LINF) == want == [1, 3]

    @pytest.mark.parametrize("metric", SQ)
    def test_huge_delta_everything_valid(self, metric):
        rng = np.random.default_rng(8)
        pts = rng.uniform(0, 5, (11, 2)).tolist()
        diam = max(abs(p[0] - q[0]) + abs(p[1] - q[1]) for p in pts for q in pts)
        assert budgeted_shortcuts(pts, 0, diam + 1.0, metric) == list(range(1, 11))

    @pytest.mark.parametrize("metric", SQ)
    def test_matches_oracle_on_random_instances(self, metric):
        cfg = VerifyConfig(count=150, seed=55, metrics=(metric,))
        for idx in range(150):
            pts, delta, _ = random_instance(cfg, idx)
            pts_l = [tuple(p) for p in pts]
            for i in range(len(pts_l) - 1):
                got = budgeted_shortcuts(pts_l, i, delta, metric)
                want = [k for k in range(i + 1, len(pts_l))
                        if shortcut_is_valid(pts_l, i, k, delta, metric)]
                assert got == want

    def test_l1_native_equals_transformed_path(self):
        # L1 runs through the rotated-Linf path; its answers must match the
        # direct L1 oracle
        rng = np.random.default_rng(19)
        for _ in range(60):
            n = int(rng.integers(3, 14))
            pts = rng.uniform(0, 8, (n, 2)).tolist()
            delta = float(rng.uniform(0.3, 2.5))
            for i in range(n - 1):
                got = budgeted_shortcuts(pts, i, delta, Metric.L1)
                want = [k for k in range(i + 1, n)
                        if shortcut_is_valid(pts, i, k, delta, Metric.L1)]
                assert got == want


class TestSegmentBudget:
    @pytest.mark.parametrize("metric", SQ)
    def test_never_more_than_two_segments(self, metric):
        cfg = VerifyConfig(count=120, seed=77, metrics=(metric,))
        worst = 0
        for idx in range(120):
            pts, delta, _ = random_instance(cfg, idx)
            work, kern = engine_input([tuple(p) for p in pts], metric)
            for i in range(len(work) - 1):
                _, sw = sweep_targets(work, i, delta, kern)
                worst = max(worst, sw.stats.max_segment_count)
        assert worst <= 2

    @pytest.mark.parametrize("metric", SQ)
    def test_batched_sweeps_keep_the_budget(self, metric):
        # simplify and verify run the square sweep for squares, so this is
        # where the generic engine's square budget is checked over the
        # non-strict rows of sweep_rows, on walks of up to 60 vertices
        cfg = VerifyConfig(count=40, max_n=60, seed=3, style="walk", metrics=(metric,))
        worst = long_walks = 0
        for idx in range(cfg.count):
            pts, delta, _ = random_instance(cfg, idx)
            pts = [tuple(p) for p in pts]
            work, kern = engine_input(pts, metric)
            starts = range(len(work) - 1)
            long_walks += len(starts) >= 48
            for i, (targets, _) in zip(starts, sweep_rows(pts, metric, starts, delta)):
                want, sw = sweep_targets(work, i, delta, kern)
                assert targets == want
                worst = max(worst, sw.stats.max_segment_count)
        assert long_walks >= 5
        assert worst <= 2

    def test_two_segment_state_reachable_with_corner(self):
        # an apex off the diagonal sees two sides of the square
        L = [(0.0, 0.0), (2.0, 3.0), (2.0, 8.0)]
        sw = Sweep(L, 0, 1.0, SquareKernel)
        sw.step(1)
        wave = wave_points(sw)
        assert len(wave) == 3          # two segments meeting at the corner
        assert wave[1] == pytest.approx((1.0, 2.0))


def _gauge_corpus():
    """Generic instances, plus lattice walks whose arcs end on square corners."""
    cfg = VerifyConfig(count=40, seed=91)
    for idx in range(40):
        pts, delta, _ = random_instance(cfg, idx)
        yield [tuple(map(float, p)) for p in pts], delta
    rng = np.random.default_rng(13)
    for _ in range(40):
        steps = rng.integers(-2, 3, (int(rng.integers(6, 16)), 2))
        pts = [(0.0, 0.0)]
        for sx, sy in steps.tolist():
            if sx or sy:
                pts.append((pts[-1][0] + 2.0 * sx + 1.0, pts[-1][1] + 2.0 * sy))
        yield pts, 1.0


@pytest.mark.parametrize("metric", SQ)
def test_segment_gauge_matches_wave_path_after_every_step(metric):
    seen = {"arcs": 0, "two": 0, "corner_end": 0}
    for pts, delta in _gauge_corpus():
        work, _ = engine_input(pts, metric)
        for i in range(len(work) - 1):
            sw = Sweep(work, i, delta, SquareKernel)
            for j in range(i + 1, len(work)):
                sw.locate_vertex(j)
                sw.step(j)
                total = 0
                for a in sw.arcs:
                    args = (sw.ax, sw.ay, a.cx, a.cy, delta)
                    p0, p1 = (a.x0, a.y0), (a.x1, a.y1)
                    got = SquareKernel.arc_segments(*args, a.x0, a.y0, a.x1, a.y1)
                    assert got == max(1, len(SquareKernel.wave_path(*args, p0, p1)) - 1)
                    assert got == max(1, len(square_wave_path(*args, p0, p1)) - 1)
                    total += got
                    seen["arcs"] += 1
                    seen["two"] += got == 2
                    seen["corner_end"] += any(
                        abs(abs(x - a.cx) - delta) <= 1e-7 * delta
                        and abs(abs(y - a.cy) - delta) <= 1e-7 * delta
                        for x, y in (p0, p1))
                assert sw._segment_count() == total
                assert sw.stats.max_segment_count >= total
                if sw.aborted:
                    break
    assert seen["two"] > 0 and seen["corner_end"] > 0
    assert seen["arcs"] > seen["two"]


@pytest.mark.parametrize("p0, p1, want", [
    ((2.0, 3.0), (3.0, 2.0), 2),        # west side to south side: turns the corner
    ((2.0, 2.5), (2.0, 3.5), 1),        # both on the west side
    ((2.0, 2.0), (3.0, 2.0), 1),        # from the facing corner along the south side
    ((2.0, 2.0), (3.5, 4.0), 1),        # from the facing corner, no shared side
    ((2.0 + 1e-9, 3.0), (3.0, 2.0 - 1e-9), 2),
])
def test_arc_segments_hand_cases(p0, p1, want):
    args = (0.0, 0.0, 3.0, 3.0, 1.0)     # apex below-left of the square [2, 4]^2
    assert SquareKernel.arc_segments(*args, *p0, *p1) == want
    assert max(1, len(square_wave_path(*args, p0, p1)) - 1) == want


def test_rect_wavefront_segments_are_orthogonal():
    # the L1 coordinate change is a rotation and a scaling, so segments
    # orthogonal in the working plane are orthogonal in the input plane too
    L = [(0.0, 0.0), (2.0, 3.0), (2.0, 8.0)]
    for metric in SQ:
        work, kern = engine_input(L, metric)
        sw = Sweep(work, 0, 1.0, kern)
        sw.step(1)
        wave = wave_points(sw)
        if len(wave) == 3:
            (a1, b1), (a2, b2) = (wave[0], wave[1]), (wave[1], wave[2])
            v1 = (b1[0] - a1[0], b1[1] - a1[1])
            v2 = (b2[0] - a2[0], b2[1] - a2[1])
            dot = v1[0] * v2[0] + v1[1] * v2[1]
            assert abs(dot) <= 1e-9 * (abs(v1[0]) + abs(v1[1])) * (abs(v2[0]) + abs(v2[1]) + 1)
