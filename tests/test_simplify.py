import importlib
import math
import os
from concurrent.futures import Future

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from frechetsimp import verify as verify_mod
from frechetsimp.geometry import Metric
from frechetsimp.oracle import shortcut_is_valid
from frechetsimp.simplify import (InvalidInputError, link_distance_table,
                                  link_distances, nu_diagnostics, preprocess,
                                  simplify, simplify_baseline)
from frechetsimp.verify import VerifyConfig, random_instance, run_verify

from oracles import min_nu_bruteforce
from walks import stop_and_go

# the package's ``simplify`` attribute is the function, not the module
simplify_mod = importlib.import_module("frechetsimp.simplify")

METRICS = (Metric.L2, Metric.L1, Metric.LINF)


class TestSimplifyExamples:
    def test_collinear_two_vertices_remain(self):
        res = simplify([(0, 0), (1, 0), (2, 0), (3, 0)], 0.1)
        assert res.indices == [0, 3]
        assert res.link_count == 1

    def test_zigzag_inside_tube(self):
        res = simplify([(0, 0), (1, 1), (2, 0), (3, 1), (4, 0)], 1.0)
        assert res.indices == [0, 4]
        assert shortcut_is_valid([(0, 0), (1, 1), (2, 0), (3, 1), (4, 0)], 0, 4, 1.0)

    def test_zigzag_small_delta_keeps_all(self):
        res = simplify([(0, 0), (1, 1), (2, 0), (3, 1), (4, 0)], 0.5)
        assert res.indices == [0, 1, 2, 3, 4]

    def test_baseline_matches_on_examples(self):
        for pts, delta in ([[(0, 0), (1, 0), (2, 0), (3, 0)], 0.1],
                           [[(0, 0), (1, 1), (2, 0), (3, 1), (4, 0)], 1.0],
                           [[(0, 0), (1, 1), (2, 0), (3, 1), (4, 0)], 0.5]):
            a = simplify(pts, delta)
            b = simplify_baseline(pts, delta)
            assert a.link_count == b.link_count

    def test_two_vertices(self):
        for m in METRICS:
            assert simplify([(0, 0), (5, 5)], 0.01, m).indices == [0, 1]
            assert simplify_baseline([(0, 0), (5, 5)], 0.01, m).indices == [0, 1]

    def test_delta_above_diameter_collapses(self):
        rng = np.random.default_rng(2)
        pts = rng.uniform(0, 4, (9, 2)).tolist()
        for m in METRICS:
            res = simplify(pts, 50.0, m)
            assert res.indices == [0, 8]


class TestEdgeCasesAndErrors:
    def test_consecutive_duplicates_collapse(self):
        pts = [(0, 0), (0, 0), (1, 0), (1, 0), (1, 0), (2, 0), (3, 0), (3, 0)]
        res = simplify(pts, 0.1)
        assert res.indices[0] == 0
        assert res.indices[-1] == len(pts) - 1
        assert res.link_count == 1

    def test_all_identical_vertices(self):
        res = simplify([(2, 2)] * 5, 1.0)
        assert res.indices == [0, 4]
        assert res.link_count == 1

    @pytest.mark.parametrize("workers", [1, 2])
    def test_single_vertex_stats_schema(self, workers):
        # a polyline that collapses to one vertex reports every stats key
        one = simplify([(2, 2)] * 5, 1.0, workers=workers)
        two = simplify([(0, 0), (1, 1)], 1.0, workers=workers)
        assert set(one.stats) == set(two.stats)
        assert set(one.stats["wall_ms_per_phase"]) == set(two.stats["wall_ms_per_phase"])
        assert one.stats["link_distance"] == one.link_count == 1

    def test_non_consecutive_duplicates_kept(self):
        poly = preprocess([(0, 0), (5, 0), (0, 0), (7, 0)])
        assert poly.n == 4

    def test_errors(self):
        with pytest.raises(InvalidInputError):
            simplify([(0, 0)], 1.0)
        with pytest.raises(InvalidInputError):
            simplify([(0, 0), (1, 1)], 0.0)
        with pytest.raises(InvalidInputError):
            simplify([(0, 0), (1, 1)], -2.0)
        with pytest.raises(InvalidInputError):
            simplify([(0, 0), (float("nan"), 1)], 1.0)
        with pytest.raises(InvalidInputError):
            simplify([(0, 0), (float("inf"), 1)], 1.0)
        with pytest.raises(InvalidInputError):
            simplify([(0, 0), (1, 1)], 1.0, algo="quantum")
        with pytest.raises(InvalidInputError):
            simplify([(0, 0), (1, 1)], 1.0, "l3")

    @pytest.mark.parametrize("algo", ["wavefront", "baseline"])
    @pytest.mark.parametrize("metric", ["l2", Metric.L2], ids=["str", "enum"])
    def test_metric_given_as_string(self, algo, metric):
        # L2 keeps every vertex of this zigzag, Linf would keep [0, 1, 4]
        pts = [(0, 0), (1, 0.9), (2, 0), (3, 0.9), (4, 0)]
        assert simplify(pts, 0.5, metric, algo=algo).indices == [0, 1, 2, 3, 4]
        assert simplify(pts, 0.5, Metric.LINF, algo=algo).indices == [0, 1, 4]

    def test_tie_break_smallest_index(self):
        # whenever several targets reach the end equally fast, the smallest
        # index is chosen; check the emitted chain against the table
        rng = np.random.default_rng(42)
        for _ in range(25):
            n = int(rng.integers(4, 20))
            pts = [tuple(p) for p in rng.uniform(0, 6, (n, 2))]
            delta = float(rng.uniform(0.5, 3.0))
            d, parent, _ = link_distance_table(pts, delta, Metric.L2)
            res = simplify(pts, delta)
            at = 0
            ties_seen = 0
            for nxt in res.indices[1:]:
                targets = [k for k in range(at + 1, n)
                           if shortcut_is_valid(pts, at, k, delta)]
                minimizers = [k for k in targets if d[k] == d[at] - 1]
                ties_seen += len(minimizers) > 1
                assert nxt == min(minimizers)
                at = nxt


    def test_l2_tie_where_a_circle_grazes_the_apex(self):
        # C_4 passes the apex of the sweep from vertex 2 by one rounding
        # (dd = 0.09000000000000002 at delta 0.3): its cone is a half-plane
        pts = [(1.4, 2.4), (1.6, 2.7), (1.7, 2.1), (1.5, 2.4), (2.0, 2.1), (2.6, 2.4),
               (2.5, 1.8), (3.1, 2.3), (2.6, 2.2), (2.4, 2.4), (1.9, 2.5), (2.4, 2.3)]
        res = simplify(pts, 0.3, "l2")
        assert res.indices == simplify(pts, 0.3, "l2", algo="baseline").indices


class TestOptimalityProperties:
    def test_link_distances_ties_and_empty_lists(self):
        # vertex 0 ties between 1 and 2 and takes the smaller index; the
        # empty list of vertex 3 stands for the link <p_3, p_4>
        lists = [[1, 2], [3], [3], [], []]
        d, parent = link_distances(5, (lists[i] for i in range(3, -1, -1)))
        assert d == [3, 2, 2, 1, 0]
        assert parent == [1, 3, 3, 4, -1]
        assert link_distances(1, iter([])) == ([0], [-1])

    @pytest.mark.parametrize("metric", METRICS)
    def test_wavefront_equals_baseline_sizes(self, metric):
        cfg = VerifyConfig(count=120, seed=606, metrics=(metric,))
        for idx in range(120):
            pts, delta, _ = random_instance(cfg, idx)
            pts_l = [tuple(p) for p in pts]
            a = simplify(pts_l, delta, metric)
            b = simplify_baseline(pts_l, delta, metric)
            assert a.link_count == b.link_count
            assert a.indices[0] == 0 and a.indices[-1] == len(pts_l) - 1
            assert all(x < y for x, y in zip(a.indices, a.indices[1:]))
            for x, y in zip(a.indices, a.indices[1:]):
                assert shortcut_is_valid(pts_l, x, y, delta, metric)

    @given(st.integers(0, 100_000))
    @settings(max_examples=40)
    def test_distance_table_steps_by_at_most_one(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 18))
        pts = [tuple(p) for p in rng.uniform(0, 10, (n, 2))]
        delta = float(rng.uniform(0.1, 3.0))
        d, parent, _ = link_distance_table(pts, delta, METRICS[seed % 3])
        assert d[-1] == 0
        for i in range(n - 1):
            assert d[i] <= d[i + 1] + 1
            assert 1 <= d[i] <= n - 1 - i

    @pytest.mark.parametrize("metric", METRICS)
    @pytest.mark.parametrize("algo", ["wavefront", "baseline"])
    def test_parallel_two_pass_matches_sequential(self, algo, metric):
        # 120 vertices: enough for the pool to run rather than fall back
        rng = np.random.default_rng(4)
        pts = [tuple(p) for p in rng.uniform(0, 10, (120, 2))]
        seq = simplify(pts, 1.5, metric, algo=algo)
        par = simplify(pts, 1.5, metric, algo=algo, workers=2)
        assert seq.indices == par.indices
        assert par.stats.pop("parallel_workers") == 2
        for res in (seq, par):
            del res.stats["wall_ms_per_phase"]
        assert par.stats == seq.stats

    @pytest.mark.parametrize("metric", METRICS)
    def test_parallel_stats_equal_sequential(self, metric):
        # stop-and-go input: sweeps abort and square wavefronts reach two segments
        pts = stop_and_go(160, 3)
        seq = simplify(pts, 1.0, metric)
        par = simplify(pts, 1.0, metric, workers=2)
        assert par.indices == seq.indices
        assert par.stats.pop("parallel_workers") == 2
        for res in (seq, par):
            del res.stats["wall_ms_per_phase"]
        assert par.stats == seq.stats
        assert seq.stats["max_wavefront_size"] > 0 and seq.stats["sweep_aborts"] > 0


@pytest.fixture
def three_cpus(monkeypatch):
    """Three CPUs usable by this process, and every pool a stand-in that
    starts no process: it runs each call at once and records its size and
    its call count.  Yields the stand-ins made."""
    pools = []

    class Pool:
        def __init__(self, max_workers):
            self.max_workers = max_workers
            self.calls = 0
            pools.append(self)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            self.calls += 1
            fut = Future()
            fut.set_result(fn(*args))
            return fut

        def map(self, fn, items):
            return [self.submit(fn, item).result() for item in items]

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    monkeypatch.setattr(simplify_mod, "ProcessPoolExecutor", Pool)
    monkeypatch.setattr(verify_mod, "ProcessPoolExecutor", Pool)
    return pools


def test_pools_are_capped_at_the_usable_cpus(three_cpus):
    # a pool forks all its workers at the first call, so an uncapped count
    # of 5000 would fork 5000 processes
    pts = stop_and_go(120, 3)
    res = simplify(pts, 1.0, workers=5000)
    assert [p.max_workers for p in three_cpus] == [3]
    assert three_cpus[0].calls == 24            # eight chunks per worker
    assert res.stats["parallel_workers"] == 3
    assert res.indices == simplify(pts, 1.0).indices
    rep = run_verify(VerifyConfig(count=48, max_n=6, seed=5, workers=5000))
    assert [p.max_workers for p in three_cpus] == [3, 3]
    assert three_cpus[1].calls == 24
    assert rep.ok and rep.checked == 3 * 48


def test_verify_pools_no_more_processes_than_chunks(three_cpus):
    # one instance is one chunk, which runs in process; two make two chunks
    rep = run_verify(VerifyConfig(count=1, max_n=6, seed=5, workers=5000))
    assert three_cpus == [] and rep.checked == 3
    rep = run_verify(VerifyConfig(count=2, max_n=6, seed=5, workers=5000))
    assert [(p.max_workers, p.calls) for p in three_cpus] == [(2, 2)]
    assert rep.ok and rep.checked == 3 * 2


def test_parallel_workers_counts_the_processes_that_swept(three_cpus):
    # under 64 vertices the sweeps run in process, whatever ``workers`` asks
    res = simplify([(0, 0), (1, 1), (2, 0)], 1.0, workers=2)
    assert three_cpus == []
    assert res.stats["parallel_workers"] == 1
    res = simplify(stop_and_go(64, 3), 1.0, workers=2)
    assert [p.max_workers for p in three_cpus] == [2]
    assert res.stats["parallel_workers"] == 2


class TestNuDiagnostics:
    def test_spread_grid_ball_of_one(self):
        pts = [(x * 10.0, y * 10.0) for x in range(4) for y in range(3)]
        d = nu_diagnostics(pts, 1.0)
        assert d["max_vertices_in_delta_ball"] == 1

    def test_clustered_ball_counts_everyone(self):
        rng = np.random.default_rng(6)
        pts = [(5 + 1e-4 * rng.uniform(), 5 + 1e-4 * rng.uniform()) for _ in range(8)]
        d = nu_diagnostics(pts, 1.0)
        assert d["max_vertices_in_delta_ball"] == 8

    def test_estimator_within_factor_four_of_bruteforce(self):
        pts = [(float(k), 0.0) for k in range(8)]
        est = nu_diagnostics(pts, 1.0)["nu_estimate"]
        exact = min_nu_bruteforce(pts)
        assert exact / 4.0 <= est <= exact * (1 + 1e-9)

    def test_implied_bound_floor(self):
        d = nu_diagnostics([(0, 0), (100, 100)], 0.001)
        assert d["implied_wavefront_bound"] >= 1.0

    @pytest.mark.parametrize("points, delta, metric", [
        ([], 1.0, Metric.L2),
        ([(0, 0), (1, 1)], 0.0, Metric.L2),
        ([(0, 0), (1, 1)], -1.0, Metric.L2),
        ([(0, 0), (1, 1)], float("nan"), Metric.L2),
        ([(0, 0), (1, 1)], float("inf"), Metric.L2),
        ([(0, 0), (1, 1)], 1.0, "l3"),
        ([(0, 0), (float("nan"), 1)], 1.0, Metric.L2),
        ([(float("inf"), 0)], 1.0, Metric.L2),
    ], ids=["empty", "zero-delta", "negative-delta", "nan-delta", "inf-delta",
            "unknown-metric", "nan-vertex", "inf-single-vertex"])
    def test_bad_input_raises_invalid_input(self, points, delta, metric):
        with pytest.raises(InvalidInputError):
            nu_diagnostics(points, delta, metric)

    def test_one_vertex_and_a_metric_string(self):
        assert nu_diagnostics([(3, 4)], 1.0) == {
            "max_vertices_in_delta_ball": 1, "nu_estimate": 0.0, "implied_wavefront_bound": 1.0}
        pts = [(0, 0), (1, 1), (2, 0)]
        assert nu_diagnostics(pts, 1.0, "linf") == nu_diagnostics(pts, 1.0, Metric.LINF)
