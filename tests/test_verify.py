"""``verify`` on instances long enough for many wavefront steps per sweep,
and the checks of its config."""
import math

import numpy as np
import pytest

from frechetsimp import _disk, verify
from frechetsimp.geometry import InternalGeometryError, InvalidInputError, Metric
from frechetsimp.simplify import SweepStats
from frechetsimp.verify import (VerifyConfig, check_instance, instance_margin, random_instance,
                                run_verify)


def test_oracle_judges_batched_sweeps(monkeypatch):
    # max_n 60: the dense oracle judges every sweep of walks up to 60
    # vertices long; under L2 each comes from the disk sweep, and L-inf and
    # L1 run the square sweep
    cfg = VerifyConfig(count=6, max_n=60, metrics=(Metric.L2, Metric.LINF, Metric.L1),
                       seed=3, style="walk")
    sizes = [len(random_instance(cfg, idx)[0]) for idx in range(cfg.count)]
    assert sum(n > 48 for n in sizes) >= 2
    disk_sweeps = 0
    scalar = _disk._scalar

    def counted(*args):
        nonlocal disk_sweeps
        disk_sweeps += 1
        return scalar(*args)
    monkeypatch.setattr(_disk, "_scalar", counted)
    rep = run_verify(cfg)
    assert rep.ok, rep.mismatches[:1]
    assert rep.checked == 3 * cfg.count
    assert rep.sweeps == 3 * sum(n - 1 for n in sizes)
    assert disk_sweeps == sum(n - 1 for n in sizes)
    assert rep.stats.steps > 0 and rep.stats.case_histogram.get("BB", 0) > 0


def test_mismatch_report_lists_rows_and_link_counts(monkeypatch):
    """The oracle's per-row lists and link distances are built only when a
    sweep disagrees: a sweep that drops row 0's target 11 and adds 11 to
    row 7 is reported row by row, descending, then by its link count."""
    pts, delta, _ = random_instance(VerifyConfig(seed=7, style="walk", max_n=12), 15)
    sweep_sets = verify._sweep_sets

    def perturbed(pts_list, delta, metric, strict):
        sets, stats = sweep_sets(pts_list, delta, metric, strict)
        sets[0] = sets[0][:-1]
        sets[7] = sets[7] + [11]
        return sets, stats

    problems, stats = check_instance(pts, delta, Metric.L2)
    assert problems == [] and stats.steps == 66
    monkeypatch.setattr(verify, "_sweep_sets", perturbed)
    problems, stats = check_instance(pts, delta, Metric.L2)
    assert problems == [
        {"kind": "shortcut_set", "i": 7, "oracle": [8, 9, 10], "wavefront": [8, 9, 10, 11]},
        {"kind": "shortcut_set", "i": 0, "oracle": [1, 2, 3, 4, 5, 6, 7, 8, 11],
         "wavefront": [1, 2, 3, 4, 5, 6, 7, 8]},
        {"kind": "link_count", "oracle": 1, "wavefront": 2},
    ]
    assert stats.steps == 66


def test_a_sweep_that_raises_adds_no_stats(monkeypatch):
    # the third sweep has counted its steps into the call's accumulator when
    # it raises; the instance is reported and its stats stay empty
    pts, delta, _ = random_instance(VerifyConfig(seed=7, style="walk", max_n=12), 15)
    scalar = _disk._scalar

    def failing(X, Y, i, delta, acc, watch=None):
        res = scalar(X, Y, i, delta, acc, watch)
        if i == 2:
            raise InternalGeometryError("stand-in")
        return res
    monkeypatch.setattr(_disk, "_scalar", failing)
    problems, stats = check_instance(pts, delta, Metric.L2)
    assert problems == [{"kind": "invariant", "detail": "stand-in"}]
    assert stats == SweepStats()


def test_metrics_given_by_value_screen_under_their_own_metric():
    # "l2" once fell through to the Linf branch of the margin (2.0)
    pts = np.array([[0.0, 0.0], [3.0, 4.0], [6.0, 1.0]])
    assert instance_margin(pts, 1.0, ("l2",)) == instance_margin(pts, 1.0, (Metric.L2,))
    assert instance_margin(pts, 1.0, ("l2",)) == pytest.approx(2.452, abs=1e-3)
    cfg = VerifyConfig(count=50, metrics=("l2",), seed=3)
    assert all(type(m) is Metric for m in cfg.metrics)
    assert run_verify(cfg).resamples == 0
    assert run_verify(VerifyConfig(count=50, metrics=(Metric.L2,), seed=3)).resamples == 0


def test_mismatch_of_a_metric_given_by_value_names_it(monkeypatch):
    sweep_sets = verify._sweep_sets

    def dropped(pts_list, delta, metric, strict):
        sets, stats = sweep_sets(pts_list, delta, metric, strict)
        sets[0] = sets[0][:-1]
        return sets, stats
    monkeypatch.setattr(verify, "_sweep_sets", dropped)
    rep = run_verify(VerifyConfig(count=1, max_n=8, metrics=("linf",), seed=2))
    assert rep.mismatches and {p["metric"] for p in rep.mismatches} == {"linf"}


@pytest.mark.parametrize("bad", [
    {"style": "walkk"}, {"max_n": 1}, {"delta_range": (0, 0)}, {"delta_range": (2.0, 1.0)},
    {"delta_range": (0.5, math.inf)}, {"delta_range": (math.nan, 1.0)}, {"metrics": ("l3",)},
    {"seed": -1}, {"count": 0},
])
def test_config_is_checked_before_drawing(bad, monkeypatch):
    def no_draw(rng, cfg):
        raise AssertionError("an instance was drawn")
    monkeypatch.setattr(verify, "_draw", no_draw)
    with pytest.raises(InvalidInputError):
        run_verify(VerifyConfig(**{"count": 2, **bad}))
