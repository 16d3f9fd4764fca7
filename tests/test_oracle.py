import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import frechetsimp
from frechetsimp.geometry import InternalGeometryError, Metric, lp_distance
from frechetsimp.oracle import (ball_segment_interval, shortcut_is_valid,
                                shortcut_matrix_dense, valid_targets_from)
from frechetsimp.verify import instance_margin

from oracles import dp_reachable, interval_scan
from walks import drift_walk, lattice_walk, quantized

METRICS = (Metric.L2, Metric.L1, Metric.LINF)


class TestBallSegmentInterval:
    def test_tangent_case_exact(self):
        iv = ball_segment_interval((1, 1), 1.0, Metric.L2, (0, 0), (4, 0))
        assert iv == (0.25, 0.25)

    def test_quadratic_case_frozen(self):
        iv = ball_segment_interval((3, 0.5), 1.0, Metric.L2, (0, 0), (4, 0))
        lo = (3 - math.sqrt(0.75)) / 4
        hi = (3 + math.sqrt(0.75)) / 4
        assert iv == pytest.approx((lo, hi), abs=1e-12)
        scan = interval_scan((3, 0.5), 1.0, Metric.L2, (0, 0), (4, 0))
        assert iv[0] == pytest.approx(scan[0], abs=2e-6)
        assert iv[1] == pytest.approx(scan[1], abs=2e-6)

    def test_far_center_empty(self):
        for m in METRICS:
            assert ball_segment_interval((10, 10), 1.0, m, (0, 0), (4, 0)) is None

    @pytest.mark.parametrize("metric", METRICS)
    def test_matches_scan(self, metric):
        rng = np.random.default_rng(17)
        for _ in range(120):
            c = rng.uniform(-3, 3, 2)
            a = rng.uniform(-3, 3, 2)
            b = rng.uniform(-3, 3, 2)
            delta = rng.uniform(0.2, 2.0)
            iv = ball_segment_interval(c, delta, metric, a, b)
            scan = interval_scan(c, delta, metric, a, b, samples=200_001)
            if iv is None:
                # a scan hit with margin would contradict emptiness
                assert scan is None or scan[1] - scan[0] < 1e-3
            else:
                assert scan is not None
                assert iv[0] == pytest.approx(scan[0], abs=1e-3)
                assert iv[1] == pytest.approx(scan[1], abs=1e-3)

    def test_degenerate_segment(self):
        assert ball_segment_interval((0, 0.5), 1.0, Metric.L2, (1, 1), (1, 1)) is None
        assert ball_segment_interval((1, 1.2), 1.0, Metric.L2, (1, 1), (1, 1)) == (0.0, 1.0)


class TestShortcutIsValid:
    def test_deviation_exactly_delta(self):
        L = [(0, 0), (2, 1), (4, 0)]
        assert shortcut_is_valid(L, 0, 2, 1.0) is True
        assert shortcut_is_valid(L, 0, 2, 0.5) is False

    def test_order_violation_hausdorff_would_pass(self):
        L = [(0, 0), (3, 0.5), (1, 0.5), (4, 0)]
        assert shortcut_is_valid(L, 0, 3, 1.0) is False
        # the same two interior vertices are each within delta of the segment
        assert ball_segment_interval((3, 0.5), 1.0, Metric.L2, (0, 0), (4, 0))
        assert ball_segment_interval((1, 0.5), 1.0, Metric.L2, (0, 0), (4, 0))

    def test_adjacent_always_valid(self):
        L = [(0, 0), (100, 100), (0, 1)]
        for m in METRICS:
            assert shortcut_is_valid(L, 0, 1, 1e-9, m)
            assert shortcut_is_valid(L, 1, 2, 1e-9, m)

    def test_on_segment_in_order_any_delta(self):
        L = [(0, 0), (1, 0), (2.5, 0), (7, 0), (9, 0)]
        for m in METRICS:
            assert shortcut_is_valid(L, 0, 4, 1e-12, m)

    def test_zero_length_shortcut_rule(self):
        L = [(0, 0), (0.5, 0), (0, 0)]
        assert shortcut_is_valid(L, 0, 2, 0.6)
        assert not shortcut_is_valid(L, 0, 2, 0.4)

    def test_index_errors(self):
        with pytest.raises(IndexError):
            shortcut_is_valid([(0, 0), (1, 1)], 1, 1, 1.0)
        with pytest.raises(IndexError):
            shortcut_is_valid([(0, 0), (1, 1)], 0, 2, 1.0)

    @given(st.integers(0, 10_000))
    @settings(max_examples=80)
    def test_monotone_in_delta(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 10))
        pts = rng.uniform(0, 10, (n, 2))
        d1 = float(rng.uniform(0.1, 2.0))
        d2 = d1 + float(rng.uniform(0.01, 2.0))
        m = METRICS[seed % 3]
        for i in range(n - 1):
            for k in range(i + 1, n):
                if shortcut_is_valid(pts, i, k, d1, m):
                    assert shortcut_is_valid(pts, i, k, d2, m)


def test_greedy_agrees_with_free_space_dp():
    """10^4 seeded instances, n <= 12, delta kept 1e-3 clear of criticality:
    the greedy interval sweep and a 2000-step reachability DP agree exactly
    on a random shortcut per instance."""
    agree = 0
    for idx in range(10_000):
        rng = np.random.default_rng([2024, idx])
        for _ in range(50):
            n = int(rng.integers(3, 13))
            pts = rng.uniform(0, 10, (n, 2))
            delta = float(rng.uniform(0.3, 3.0))
            if instance_margin(pts, delta) > 1e-3 * delta:
                break
        m = METRICS[idx % 3]
        i = int(rng.integers(0, n - 1))
        k = int(rng.integers(i + 1, n))
        g = shortcut_is_valid(pts, i, k, delta, m)
        d = dp_reachable(pts, i, k, delta, m)
        assert g == d, (idx, i, k, m)
        agree += 1
    assert agree == 10_000


def _assert_routes_agree(pts, delta, metric):
    n = len(pts)
    M = shortcut_matrix_dense(pts, delta, metric)
    assert M.shape == (n, n)
    assert not np.tril(M).any()
    for i in range(n - 1):
        batch = set(valid_targets_from(pts, i, delta, metric).tolist())
        for k in range(i + 1, n):
            s = shortcut_is_valid(pts, i, k, delta, metric)
            assert M[i, k] == s, (pts.tolist(), delta, i, k)
            assert (k in batch) == s, (pts.tolist(), delta, i, k)


@pytest.mark.parametrize("metric", METRICS)
def test_vectorized_routes_match_scalar(metric):
    rng = np.random.default_rng(123)
    for _ in range(150):
        n = int(rng.integers(2, 16))
        pts = rng.uniform(0, 10, (n, 2))
        delta = float(rng.uniform(0.1, 3.0))
        _assert_routes_agree(pts, delta, metric)
    # tie-heavy inputs: integer and one-decimal lattices, where vertices sit
    # exactly at distance delta from each other and from segments, and
    # repeated vertices give zero-length shortcuts
    rng = np.random.default_rng(9)
    for trial in range(500):
        n = int(rng.integers(2, 16))
        if trial % 3 == 0:
            pts = np.round(rng.uniform(0, 5, (n, 2)))
        elif trial % 3 == 1:
            pts = np.round(rng.uniform(0, 3, (n, 2)), 1)
        else:
            pts = np.round(np.cumsum(rng.normal(0, 0.5, (n, 2)), axis=0), 1)
        delta = float(rng.choice([0.3, 0.5, 1.0, 1.3]))
        _assert_routes_agree(pts, delta, metric)


@pytest.mark.parametrize("metric", METRICS, ids=lambda m: m.value)
def test_packed_dense_grid_matches_scalar(metric):
    """n = 17..45, where most columns of the dense oracle's packed grid hold
    a long shortcut from the top and a short one from the bottom: random,
    integer-lattice, one-decimal, repeated-vertex (zero-length shortcuts)
    and axis-parallel (zero Linf directions) inputs, each dense cell against
    ``shortcut_is_valid``."""
    rng = np.random.default_rng(45)
    for n in range(17, 46):
        walk = np.round(np.cumsum(rng.normal(0, 0.5, (n, 2)), axis=0), 1)
        repeated = walk.copy()
        repeated[rng.integers(1, n, n // 3)] = walk[rng.integers(0, n, n // 3)]
        steps = np.round(rng.normal(0, 0.7, (n, 2)))
        steps[np.arange(n), (np.arange(n) // 4) % 2] = 0.0     # runs of 4 along an axis
        inputs = (rng.uniform(0, 10, (n, 2)), np.round(rng.uniform(0, 5, (n, 2))),
                  np.round(rng.uniform(0, 3, (n, 2)), 1), repeated,
                  np.cumsum(steps, axis=0))
        for pts in inputs:
            _assert_routes_agree(pts, float(rng.choice([0.3, 0.5, 1.0, 1.3, 2.0])), metric)


@pytest.mark.parametrize("metric", METRICS, ids=lambda m: m.value)
@pytest.mark.parametrize("n", [130, 300])
def test_multi_tile_rows_match_scalar(n, metric):
    """Rows long enough to span several 64-wide tiles, so the greedy running
    max is carried across bridged-vertex tiles; the lattice and the
    one-decimal walk are full of exact ties.  The sawtooth turns back exactly
    at row 0's first tile boundary, so only the carried max rejects its
    shortcut (0, 129)."""
    sawtooth = [(0.5 * (j % 65), 0.1 * (j % 2)) for j in range(n)]
    inputs = ((drift_walk(n, 1), 0.8), (quantized(drift_walk(n, 2), 0.1), 0.8),
              (lattice_walk(n, 5), 6.0), (sawtooth, 1.0))
    for pts, delta in inputs:
        coords = np.asarray(pts, dtype=float)
        for i in (0, 1, n // 2, n - 3):
            expect = [k for k in range(i + 1, n)
                      if shortcut_is_valid(pts, i, k, delta, metric)]
            assert valid_targets_from(coords, i, delta, metric).tolist() == expect, (i, delta)


def test_zero_length_shortcuts_match_the_batch_oracle_at_ties():
    """One-decimal p0, p1, p0 at one-decimal deltas: p1 often sits exactly at
    distance delta, where the scalar and the batch oracle must still agree,
    and the sweep with them."""
    rng = np.random.default_rng(9)
    count = 6000
    p0 = np.round(rng.uniform(-1.0, 1.0, (count, 2)), 1)
    p1 = np.round(p0 + rng.uniform(-1.5, 1.5, (count, 2)), 1)
    deltas = rng.choice([0.3, 0.5, 0.7, 1.0, 1.3], count)
    checks = 0
    raised = {metric: 0 for metric in METRICS}
    for a, b, delta in zip(p0.tolist(), p1.tolist(), deltas.tolist()):
        pts = [tuple(a), tuple(b), tuple(a)]
        for metric in METRICS:
            dense = shortcut_matrix_dense(np.asarray(pts), delta, metric)
            valid = shortcut_is_valid(pts, 0, 2, delta, metric)
            assert valid == dense[0, 2], (pts, delta, metric)
            checks += 1
            try:
                targets = frechetsimp.shortcuts(pts, 0, delta, metric)
            except InternalGeometryError:
                raised[metric] += 1
                continue
            assert targets == ([1, 2] if valid else [1]), (pts, delta, metric)
    assert checks == 18_000
    # every sweep decides every tie as the oracles do: the L2 sweep by the
    # kernel's apex-inside rule, L-inf and L1 by the square sweep's faces
    assert raised == {metric: 0 for metric in METRICS}


@pytest.mark.parametrize("metric", METRICS, ids=lambda m: m.value)
def test_metric_given_by_value(metric):
    rng = np.random.default_rng(4)
    pts = np.round(rng.uniform(-2, 2, (12, 2)), 1)
    assert np.array_equal(shortcut_matrix_dense(pts, 0.7, metric.value),
                          shortcut_matrix_dense(pts, 0.7, metric))
    assert np.array_equal(valid_targets_from(pts, 2, 0.7, metric.value),
                          valid_targets_from(pts, 2, 0.7, metric))
    assert lp_distance(pts[0], pts[1], metric.value) == lp_distance(pts[0], pts[1], metric)
    with pytest.raises(ValueError):
        lp_distance(pts[0], pts[1], "l3")
    with pytest.raises(ValueError):         # even where no pair bridges a vertex
        shortcut_matrix_dense(pts[:2], 0.7, "l3")
