import math

import numpy as np
import pytest

from frechetsimp._engine import Sweep
from frechetsimp.geometry import Metric, SquareKernel, l1_to_linf
from frechetsimp.oracle import shortcut_is_valid
from frechetsimp.rect import RectSweep, rect_shortcuts_from, rect_step
from frechetsimp.verify import VerifyConfig, random_instance

from oracles import rasterize_valid_region, square_wave_path

SQ = (Metric.L1, Metric.LINF)


class TestFirstSquare:
    def test_wave_is_bottom_edge(self):
        L = [(0.0, 0.0), (0.0, 2.0), (0.0, 4.0)]
        sw = RectSweep(L, 0, 1.0, Metric.LINF)
        rect_step(sw, L, 1)
        wf = sw.wavefront()
        assert len(wf.segments) == 1
        (a, b) = wf.segments[0]
        assert sorted([a, b]) == [(-1.0, 1.0), (1.0, 1.0)]
        assert wf.corner is None
        # wedge through the square corners: 45 and 135 degrees
        g = sw.sweep
        assert math.atan2(g.ur[1], g.ur[0]) == pytest.approx(math.radians(45))
        assert math.atan2(g.ul[1], g.ul[0]) == pytest.approx(math.radians(135))

    def test_second_square_lifts_wavefront_to_y3(self):
        L = [(0.0, 0.0), (0.0, 2.0), (0.0, 4.0)]
        sw = RectSweep(L, 0, 1.0, Metric.LINF)
        rect_step(sw, L, 1)
        rect_step(sw, L, 2)
        wf = sw.wavefront()
        assert len(wf.segments) == 1
        for (x, y) in wf.segments[0]:
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
        sw = RectSweep(L, 0, 1.0, Metric.LINF)
        rect_step(sw, L, 1)
        rect_step(sw, L, 2)
        assert sw.aborted


class TestRectShortcuts:
    def test_deviation_one_linf(self):
        assert rect_shortcuts_from([(0, 0), (2, 1), (4, 0)], 0, 1.0, Metric.LINF) == [1, 2]

    def test_boundary_tight_instance_matches_oracle(self):
        # under Linf both far targets are exactly tube-tight; freeze what the
        # interval oracle computes and require agreement
        L = [(0, 0), (3, 0.5), (1, 0.5), (4, 0)]
        want = [k for k in (1, 2, 3) if shortcut_is_valid(L, 0, k, 1.0, Metric.LINF)]
        assert rect_shortcuts_from(L, 0, 1.0, Metric.LINF) == want == [1, 3]

    @pytest.mark.parametrize("metric", SQ)
    def test_huge_delta_everything_valid(self, metric):
        rng = np.random.default_rng(8)
        pts = rng.uniform(0, 5, (11, 2)).tolist()
        diam = max(abs(p[0] - q[0]) + abs(p[1] - q[1]) for p in pts for q in pts)
        assert rect_shortcuts_from(pts, 0, diam + 1.0, metric) == list(range(1, 11))

    @pytest.mark.parametrize("metric", SQ)
    def test_matches_oracle_on_random_instances(self, metric):
        cfg = VerifyConfig(count=150, seed=55, metrics=(metric,))
        for idx in range(150):
            pts, delta, _ = random_instance(cfg, idx)
            pts_l = [tuple(p) for p in pts]
            for i in range(len(pts_l) - 1):
                got = rect_shortcuts_from(pts_l, i, delta, metric)
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
                got = rect_shortcuts_from(pts, i, delta, Metric.L1)
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
            pts_l = [tuple(p) for p in pts]
            for i in range(len(pts_l) - 1):
                _, sw = rect_shortcuts_from(pts_l, i, delta, metric, return_state=True)
                worst = max(worst, sw.stats.max_segment_count)
        assert worst <= 2

    def test_two_segment_state_reachable_with_corner(self):
        # an apex off the diagonal sees two sides of the square
        L = [(0.0, 0.0), (2.0, 3.0), (2.0, 8.0)]
        sw = RectSweep(L, 0, 1.0, Metric.LINF)
        rect_step(sw, L, 1)
        wf = sw.wavefront()
        assert len(wf.segments) == 2
        assert wf.corner == pytest.approx((1.0, 2.0))


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
        work = l1_to_linf(pts) if metric is Metric.L1 else pts
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
    L = [(0.0, 0.0), (2.0, 3.0), (2.0, 8.0)]
    for metric in SQ:
        sw = RectSweep(L, 0, 1.0, metric)
        rect_step(sw, L, 1)
        wf = sw.wavefront()
        if len(wf.segments) == 2:
            (a1, b1), (a2, b2) = wf.segments
            v1 = (b1[0] - a1[0], b1[1] - a1[1])
            v2 = (b2[0] - a2[0], b2[1] - a2[1])
            dot = v1[0] * v2[0] + v1[1] * v2[1]
            assert abs(dot) <= 1e-9 * (abs(v1[0]) + abs(v1[1])) * (abs(v2[0]) + abs(v2[1]) + 1)
