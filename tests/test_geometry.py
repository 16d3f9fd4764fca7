import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from frechetsimp._engine import Sweep
from frechetsimp.geometry import (CircleKernel, Metric, SquareKernel, _wrap_angle,
                                 l1_to_linf, lp_distance)
from frechetsimp.oracle import linf_image
from frechetsimp.verify import _flat, _seg_point_dists

D = 1e-9


def test_lp_distance_345():
    assert lp_distance((0, 0), (3, 4), Metric.L2) == 5.0
    assert lp_distance((0, 0), (3, 4), Metric.L1) == 7.0
    assert lp_distance((0, 0), (3, 4), Metric.LINF) == 4.0


@given(st.tuples(*[st.floats(-100, 100) for _ in range(6)]))
def test_lp_distance_symmetry_triangle(vals):
    p = vals[0:2]
    q = vals[2:4]
    r = vals[4:6]
    for m in Metric:
        assert lp_distance(p, q, m) == lp_distance(q, p, m)
        assert lp_distance(p, r, m) <= lp_distance(p, q, m) + lp_distance(q, r, m) + 1e-9


class TestCircleCircle:
    def test_external_tangency(self):
        pts = CircleKernel.boundary_intersections(0.0, 0.0, 2.0, 0.0, 1.0)
        assert len(pts) == 1
        assert pts[0] == pytest.approx((1.0, 0.0))

    def test_two_points_analytic(self):
        pts = sorted(CircleKernel.boundary_intersections(0.0, 0.0, 1.0, 0.0, 1.0),
                     key=lambda p: p[1])
        assert pts[0] == pytest.approx((0.5, -math.sqrt(3) / 2))
        assert pts[1] == pytest.approx((0.5, math.sqrt(3) / 2))

    def test_disjoint(self):
        assert CircleKernel.boundary_intersections(0.0, 0.0, 3.0, 0.0, 1.0) == ()

    def test_coincident_marker(self):
        # equal centers, or centers closer than the 1e-9 relative tolerance,
        # have no pointwise boundary intersection
        for kern in (CircleKernel, SquareKernel):
            assert kern.boundary_intersections(0.0, 0.0, 0.0, 0.0, 1.0) == "coincident"
            assert kern.boundary_intersections(1.0, 1.0, 1.0 + 1e-12, 1.0, 1.0) == "coincident"
            assert kern.boundary_intersections(1.0, 1.0, 1.0 + 1e-6, 1.0, 1.0) != "coincident"

    def test_square_overlapping_edges_extremes(self):
        # shared bottom/top edge lines: the two extreme points of the overlap
        pts = set(SquareKernel.boundary_intersections(0.0, 0.0, 1.2, 0.0, 1.0))
        assert len(pts) == 2
        xs = sorted(p[0] for p in pts)
        assert xs == pytest.approx([0.2, 1.0]) or len({p[1] for p in pts}) == 2

    def test_random_points_lie_on_both_boundaries(self):
        # large randomized check: intersection points sit on both circles
        rng = np.random.default_rng(12345)
        n = 1_000_000
        delta = 1.0
        c1 = rng.uniform(-2, 2, (n, 2))
        c2 = c1 + rng.uniform(-2.2, 2.2, (n, 2))
        checked = 0
        for k in range(0, n, 1):
            res = CircleKernel.boundary_intersections(c1[k, 0], c1[k, 1],
                                                      c2[k, 0], c2[k, 1], delta)
            if res == "coincident":
                continue
            for (x, y) in res:
                d1 = math.hypot(x - c1[k, 0], y - c1[k, 1])
                d2 = math.hypot(x - c2[k, 0], y - c2[k, 1])
                assert abs(d1 - delta) <= 1e-9 * delta
                assert abs(d2 - delta) <= 1e-9 * delta
                checked += 1
        assert checked > 100_000

    def test_square_crossings_are_pinned(self):
        # sha256 of the exact outputs over seeded square pairs, half on a
        # quarter grid, with ~30% of x and of y coordinates tied (some only
        # within the tie tolerance): any change to a returned tuple shows
        rng = np.random.default_rng(17)
        count = 60_000
        grid = rng.integers(-8, 9, (count, 4)) * 0.25
        free = rng.uniform(-2.0, 2.0, (count, 4))
        c = np.where((rng.random(count) < 0.5)[:, None], grid, free)
        for k in (0, 1):
            tie = rng.random(count) < 0.3
            c[tie, 2 + k] = c[tie, k] + rng.choice([0.0, 0.0, 1e-12, -1e-12], int(tie.sum()))
        deltas = rng.choice([0.5, 1.0, 1.25], count).tolist()
        digest = hashlib.sha256()
        for (ax, ay, bx, by), d in zip(c.tolist(), deltas):
            digest.update(repr(SquareKernel.boundary_intersections(ax, ay, bx, by, d)).encode())
        assert digest.hexdigest() == \
            "7804939c0d85f6f1230a398398b8a65c68c649218df6d5e61898a73c1be3b295"


def _ray_points(kern, origin, unit, center, delta):
    """Boundary points the ray meets, near to far, from the kernel's parameters."""
    ts = kern.ray_hits(origin[0], origin[1], unit[0], unit[1], center[0], center[1], delta)
    return tuple((origin[0] + t * unit[0], origin[1] + t * unit[1]) for t in ts)


class TestRayCircle:
    def test_through_circle(self):
        pts = _ray_points(CircleKernel, (0.0, 0.0), (1.0, 0.0), (2.0, 0.0), 1.0)
        assert pts[0] == pytest.approx((1.0, 0.0))
        assert pts[1] == pytest.approx((3.0, 0.0))

    def test_miss(self):
        assert _ray_points(CircleKernel, (0.0, 0.0), (1.0, 0.0), (0.0, 2.0), 1.0) == ()

    def test_origin_inside_single_exit(self):
        pts = _ray_points(CircleKernel, (0.0, 0.0), (1.0, 0.0), (0.5, 0.0), 1.0)
        assert len(pts) == 1
        assert pts[0] == pytest.approx((1.5, 0.0))

    @pytest.mark.parametrize("kern,metric", [(CircleKernel, Metric.L2),
                                             (SquareKernel, Metric.LINF)])
    def test_count_matches_sign_scan(self, kern, metric):
        # crossing count along the ray equals the sign changes of a dense
        # boundary-distance scan
        rng = np.random.default_rng(77)
        t = np.linspace(0.0, 20.0, 10_000)
        for _ in range(200):
            ang = rng.uniform(0, 2 * math.pi)
            ux, uy = math.cos(ang), math.sin(ang)
            cx, cy = rng.uniform(-4, 4, 2)
            delta = rng.uniform(0.3, 2.0)
            hits = kern.ray_hits(0.0, 0.0, ux, uy, cx, cy, delta)
            px = t * ux - cx
            py = t * uy - cy
            if metric is Metric.L2:
                inside = np.hypot(px, py) <= delta
            else:
                inside = np.maximum(np.abs(px), np.abs(py)) <= delta
            scans = int(np.count_nonzero(np.diff(inside.astype(int)) != 0))
            uniq = len({round(h, 9) for h in hits})
            if abs(len(hits) - scans) > 0 and uniq != scans:
                # tangential grazes legitimately differ from a coarse scan
                lo = min(hits) if hits else 0.0
                assert min(abs(kern.distance(0, 0, cx, cy) - delta), abs(uniq - scans)) <= 1
            else:
                assert uniq == scans or len(hits) == scans


def _extreme_touches(kern, apex, center, delta):
    """(right, left) touch points: the tangent points at the smallest and the
    largest angle, measured from the apex relative to the center direction."""
    pts = kern.tangent_points(apex[0], apex[1], center[0], center[1], delta)
    ck = math.atan2(center[1] - apex[1], center[0] - apex[0])

    def off(p):
        a = math.atan2(p[1] - apex[1], p[0] - apex[0]) - ck
        return math.atan2(math.sin(a), math.cos(a))

    return min(pts, key=off), max(pts, key=off)


class TestLocalWedge:
    def test_l2_tangent_rays_60_120(self):
        # tangent half-angle arcsin(1/2) = 30 degrees around the +y direction
        (rx, ry), (lx, ly) = _extreme_touches(CircleKernel, (0, 0), (0, 2), 1.0)
        assert math.atan2(ly, lx) == pytest.approx(math.radians(120))
        assert math.atan2(ry, rx) == pytest.approx(math.radians(60))

    def test_linf_corner_tangency_45_135(self):
        (rx, ry), (lx, ly) = _extreme_touches(SquareKernel, (0, 0), (0, 2), 1.0)
        assert math.atan2(ly, lx) == pytest.approx(math.radians(135))
        assert math.atan2(ry, rx) == pytest.approx(math.radians(45))
        assert (lx, ly) == (-1.0, 1.0)
        assert (rx, ry) == (1.0, 1.0)

    def test_whole_plane_marker(self):
        # an apex inside the unit circle has no tangent cone
        for kern in (CircleKernel, SquareKernel):
            assert kern.tangent_points(0.0, 0.0, 0.5, 0.0, 1.0) is None

    def test_tangent_rays_touch_circle(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            c = rng.uniform(-5, 5, 2)
            delta = rng.uniform(0.1, 2.0)
            if math.hypot(*c) <= delta * 1.01:
                continue
            for p in CircleKernel.tangent_points(0.0, 0.0, c[0], c[1], delta):
                norm = math.hypot(*p)
                ux, uy = p[0] / norm, p[1] / norm
                # distance from the center to the ray line equals delta
                dist = abs(ux * c[1] - uy * c[0])
                assert abs(dist - delta) <= 1e-9 * delta


def _engine_extremes(corners, apex, center, rot):
    """(right, left) touch points exactly as the sweep step picks them: atan2
    keys in a frame rotated by ``rot``, each touch point's offset from the
    center key wrapped to (-pi, pi], strict comparisons, first one wins."""
    ax, ay = apex

    def key(x, y):
        a = math.atan2(y - ay, x - ax) - rot
        if a <= -math.pi:
            a += 2.0 * math.pi
        elif a > math.pi:
            a -= 2.0 * math.pi
        return a

    ck = key(*center)
    if ck <= -0.5 * math.pi:
        ck += 2.0 * math.pi
    off_r = off_l = 0.0
    tp_r = tp_l = None
    for tp in corners:
        off = key(*tp) - ck
        if off <= -math.pi or off > math.pi:
            off = _wrap_angle(off)
        if tp_r is None or off < off_r:
            off_r, tp_r = off, tp
        if tp_l is None or off > off_l:
            off_l, tp_l = off, tp
    return tp_r, tp_l


def _square_apexes(cx, cy, delta):
    """(apex, clear) pairs: apexes in all eight regions around the square, out
    to 1e4 * delta, and on, one ulp off and 1e-12 * delta off each of its four
    side lines; ``clear`` when the apex is 1e-2 * delta or more off them."""
    far = [1.0 + 1e-6, 1.01, 1.5, 3.0, 10.0, 100.0, 1e3, 1e4]
    offs = [0.0, 0.3, 0.9, 0.99, 1.0 - 1e-6]
    for sx in (-1.0, 1.0):
        for sy in (-1.0, 1.0):
            for a in far:
                for b in far:           # corner regions
                    yield (cx + sx * a * delta, cy + sy * b * delta), min(a, b) >= 1.01
                for f in offs:          # side regions
                    clear = a >= 1.01 and f <= 0.99
                    yield (cx + sx * a * delta, cy + sy * f * delta), clear
                    yield (cx + sx * f * delta, cy + sy * a * delta), clear
    for line, vertical in ((cx - delta, True), (cx + delta, True),
                           (cy - delta, False), (cy + delta, False)):
        for v in (line, math.nextafter(line, -math.inf), math.nextafter(line, math.inf),
                  line - 1e-12 * delta, line + 1e-12 * delta):
            for sgn in (-1.0, 1.0):
                for a in far:
                    other = (cy if vertical else cx) + sgn * a * delta
                    yield ((v, other) if vertical else (other, v)), False


@pytest.mark.parametrize("cx,cy,delta", [(0.0, 0.0, 1.0), (12.3, -4.1, 0.37),
                                         (-1e3 / 3, 250.7, 2.5)])
def test_square_silhouette_corners_keep_the_engine_extremes(cx, cy, delta):
    """Two silhouette corners in place of four leave the sweep's tangent
    corners unchanged, bit for bit, in every frame rotation."""
    corners = ((cx - delta, cy - delta), (cx - delta, cy + delta),
               (cx + delta, cy - delta), (cx + delta, cy + delta))
    short = 0
    for apex, clear in _square_apexes(cx, cy, delta):
        tps = SquareKernel.tangent_points(apex[0], apex[1], cx, cy, delta)
        if tps is None:          # on a side line next to the square
            assert SquareKernel.distance(apex[0], apex[1], cx, cy) <= delta
            continue
        assert set(tps) <= set(corners)
        if clear:
            assert len(tps) == 2, apex
        short += len(tps) == 2
        for rot in (0.0, 2.5, -3.0, math.atan2(cy - apex[1], cx - apex[0]) - 0.5 * math.pi):
            assert (_engine_extremes(tps, apex, (cx, cy), rot)
                    == _engine_extremes(corners, apex, (cx, cy), rot)), (apex, rot)
    assert short > 500


class TestWaveOf:
    def test_l2_bottom_arc(self):
        start, end = _extreme_touches(CircleKernel, (0, 0), (0, 2), 1.0)
        assert start == pytest.approx((math.sqrt(3) / 2, 3 / 2))
        assert end == pytest.approx((-math.sqrt(3) / 2, 3 / 2))
        assert CircleKernel.wave_path(0.0, 0.0, 0.0, 2.0, 1.0, start, end) == (start, end)
        # passes through (0, 1): the near intersection along +y
        hits = CircleKernel.ray_hits(0, 0, 0.0, 1.0, 0.0, 2.0, 1.0)
        assert hits[0] == pytest.approx(1.0)

    def test_linf_bottom_edge(self):
        start, end = _extreme_touches(SquareKernel, (0, 0), (0, 2), 1.0)
        path = SquareKernel.wave_path(0.0, 0.0, 0.0, 2.0, 1.0, start, end)
        assert path == ((1.0, 1.0), (-1.0, 1.0))

    def test_whole_plane_empty_wave(self):
        # a first circle around the apex installs no wave: the step is PREFIX
        sw = Sweep([(0.0, 0.0), (0.5, 0.0)], 0, 1.0, CircleKernel)
        assert sw.step(1).case == "PREFIX"
        assert sw.arcs == [] and sw.kr is None


class TestAngularFrame:
    """Sweep keys: angle at the apex minus the frame rotation fixed at INIT,
    which turns the first proper circle's center direction to +y."""

    @staticmethod
    def frame_after_init(apex, target):
        sw = Sweep([apex, target], 0, 1.0, CircleKernel)
        assert sw.step(1).case == "INIT"
        return sw

    def test_zero_rotation(self):
        sw = self.frame_after_init((0.0, 0.0), (0.0, 2.0))
        assert sw.rot == pytest.approx(0.0, abs=1e-12)
        assert sw._key(1.0, 0.0) == pytest.approx(0.0, abs=1e-12)
        assert sw._key(0.0, 1.0) == pytest.approx(math.pi / 2)

    def test_rotated(self):
        sw = self.frame_after_init((0.0, 0.0), (-2.0, 0.0))
        assert sw.rot == pytest.approx(math.pi / 2)
        assert sw._key(0.0, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_toward_maps_target_up(self):
        sw = self.frame_after_init((1.0, 1.0), (4.0, 5.0))
        assert sw._key(4.0, 5.0) == pytest.approx(math.pi / 2)
        assert sw.kr < sw._key(4.0, 5.0) < sw.kl


def test_bottom_arc_pairs_second_crossing_on_top_arcs():
    # two unit circles seen from an outside point: if the bottom arcs cross,
    # the other boundary crossing separates both top arcs
    rng = np.random.default_rng(31)
    checked = 0
    for _ in range(4000):
        c1 = rng.uniform(-3, 3, 2)
        c2 = rng.uniform(-3, 3, 2)
        delta = rng.uniform(0.3, 1.5)
        d12 = math.hypot(*(c1 - c2))
        if d12 < 1e-6 or d12 >= 2 * delta * 0.999:
            continue
        if math.hypot(*c1) <= delta * 1.01 or math.hypot(*c2) <= delta * 1.01:
            continue
        res = CircleKernel.boundary_intersections(c1[0], c1[1], c2[0], c2[1], delta)
        if len(res) != 2:
            continue
        flags = []
        for (x, y) in res:
            on1 = CircleKernel.on_near_side(0, 0, c1[0], c1[1], x, y, delta)
            on2 = CircleKernel.on_near_side(0, 0, c2[0], c2[1], x, y, delta)
            flags.append((on1, on2))
        if (True, True) in flags:
            other = flags[1 - flags.index((True, True))]
            assert other == (False, False)
            checked += 1
    assert checked > 200


def test_l1_transform_is_isometry():
    # exact identity over the reals; floats round once per transformed coordinate
    rng = np.random.default_rng(9)
    for _ in range(1000):
        p = rng.uniform(-10, 10, 2)
        q = rng.uniform(-10, 10, 2)
        tp, tq = l1_to_linf([p, q])
        a = lp_distance(p, q, Metric.L1)
        b = lp_distance(tp, tq, Metric.LINF)
        assert abs(a - b) <= 1e-12 * (1.0 + a)


@pytest.mark.parametrize("metric", [Metric.L2, Metric.L1, Metric.LINF])
def test_segment_point_distance_vs_scan(metric):
    rng = np.random.default_rng(11)
    t = np.linspace(0.0, 1.0, 20001)
    for _ in range(200):
        a = rng.uniform(-5, 5, 2)
        b = rng.uniform(-5, 5, 2)
        c = rng.uniform(-5, 5, 2)
        x = a[0] + t * (b[0] - a[0]) - c[0]
        y = a[1] + t * (b[1] - a[1]) - c[1]
        if metric is Metric.L2:
            scan = float(np.min(np.hypot(x, y)))
        elif metric is Metric.L1:
            scan = float(np.min(np.abs(x) + np.abs(y)))
        else:
            scan = float(np.min(np.maximum(np.abs(x), np.abs(y))))
        # the one triple of [a, c, b] is c against segment (a, b)
        exact = float(_seg_point_dists(np.array([a, c, b]), metric)[0])
        assert exact <= scan + 1e-12
        assert exact >= scan - 1e-3


def _linf_seg_point_exact(x0, y0, vx, vy):
    """min over t in [0,1] of max(|x0 + t vx|, |y0 + t vy|), in rationals:
    the least value at an endpoint or where a coordinate or a diagonal of
    the offset crosses zero."""
    ts = {Fraction(0), Fraction(1)}
    for num, den in ((-x0, vx), (-y0, vy), (y0 - x0, vx - vy), (-(x0 + y0), vx + vy)):
        if den:
            ts.add(min(max(num / den, Fraction(0)), Fraction(1)))
    return min(max(abs(x0 + t * vx), abs(y0 + t * vy)) for t in ts)


@pytest.mark.parametrize("metric", [Metric.LINF, Metric.L1])
def test_segment_point_distance_on_lattice_ties(metric):
    """On one-decimal inputs the distance matches exact rationals on the
    same (L1: Linf-image) coordinates to a few rounding errors, where
    segments run along an axis or a diagonal, have zero length, or pass
    through the vertex."""
    named = [
        [(0.1, 0.3), (0.4, 0.9), (0.7, 0.3)],      # along x
        [(0.2, -0.5), (0.2, 0.1), (0.2, 0.6)],     # along y, through the vertex
        [(0.1, 0.2), (0.3, 0.1), (0.4, 0.5)],      # vx = vy
        [(0.1, 0.2), (0.3, 0.0), (0.4, -0.1)],     # vx = -vy, through the vertex
        [(0.3, 0.3), (0.6, 0.1), (0.3, 0.3)],      # zero length
        [(0.3, 0.3), (0.3, 0.3), (0.3, 0.3)],      # zero length, on the vertex
        [(-0.4, 0.2), (0.1, 0.4), (0.6, 0.2)],     # along x, tied endpoints
        [(-0.3, -0.3), (0.1, 0.0), (0.3, 0.3)],    # diagonal, flat bottom
    ]
    rng = np.random.default_rng(23)
    polylines = [np.array(p) for p in named]
    polylines += [rng.integers(-6, 7, (int(rng.integers(3, 13)), 2)) / 10.0 for _ in range(150)]
    eps = np.finfo(float).eps
    for pts in polylines:
        got = _seg_point_dists(pts, metric)
        P = linf_image(pts) if metric is Metric.L1 else pts
        F = [(Fraction(x), Fraction(y)) for x, y in P.tolist()]
        n = len(pts)
        for ac, ab, d in zip(*_flat(n)[1:], got.tolist()):
            a, c = divmod(int(ac), n)
            b = int(ab) % n
            x0, y0 = F[a][0] - F[c][0], F[a][1] - F[c][1]
            vx, vy = F[b][0] - F[a][0], F[b][1] - F[a][1]
            exact = _linf_seg_point_exact(x0, y0, vx, vy)
            tol = 4 * eps * float(abs(x0) + abs(y0) + abs(vx) + abs(vy))
            assert abs(Fraction(d) - exact) <= tol, (pts.tolist(), (a, c, b), d, float(exact))
