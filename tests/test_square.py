"""The square sweep (``_square``) against the generic engine and the oracle.

On the generic pinned inputs the square sweep must agree with the generic
engine sweep by sweep (targets, steps, aborts, both gauges, and the PREFIX
and INIT counts) and so reproduce the engine's pins; on inputs full of ties,
where the engine raises, its targets must be the oracle's.
``_engine.sweep_rows`` must hand squares to the square sweep unless
``strict`` asks for the invariant checker, and never to the batch.
"""
import hashlib

import numpy as np
import pytest

from frechetsimp import _batch, _square, oracle
from frechetsimp._engine import _BATCH_MIN_ROWS, prepare, sweep_rows, sweep_targets
from frechetsimp.geometry import Metric
from frechetsimp.verify import VerifyConfig, random_instance

from test_sweep_pin import INPUTS, PINNED, TIE_INPUTS, refuse_the_batch

SQUARES = [Metric.LINF, Metric.L1]


def _work(pts, metric):
    work, _ = prepare(pts, metric)
    return [p[0] for p in work], [p[1] for p in work]


def _outcome(res):
    targets, st = res
    return (targets, st.steps, st.aborts, st.max_segment_count, st.max_arc_count,
            st.case_histogram)


@pytest.mark.parametrize("metric", SQUARES, ids=lambda m: m.value)
def test_sweep_rows_routes_squares(metric, monkeypatch):
    monkeypatch.setattr(_batch, "Block", refuse_the_batch)
    make, delta = INPUTS["stopgo-a"]
    pts = make()
    work, kern = prepare(pts, metric)
    # enough start vertices for the batch, which squares never reach
    starts = range(len(work) - 1)
    assert len(starts) >= _BATCH_MIN_ROWS
    square = [_outcome(r) for r in _square.square_sweeps(work, starts, delta)]
    assert [_outcome(r) for r in sweep_rows(pts, metric, starts, delta)] == square
    # the invariant checker reads the generic engine's arcs: strict takes
    # the engine's per-start loop
    checked = [_outcome(r) for r in sweep_rows(pts, metric, starts, delta, strict=True)]
    engine = [(t, sw.stats) for t, sw in (sweep_targets(work, i, delta, kern)
                                          for i in starts)]
    assert checked == [_outcome(r) for r in engine]
    assert checked != square        # the engine's case labels differ


@pytest.mark.parametrize("metric", SQUARES, ids=lambda m: m.value)
@pytest.mark.parametrize("name", sorted(INPUTS))
def test_square_sweep_matches_the_engine_and_its_pins(name, metric):
    make, delta = INPUTS[name]
    pts = make()
    work, kern = prepare(pts, metric)
    digest = hashlib.sha256()
    steps = aborts = max_arcs = max_segs = 0
    starts = range(len(work) - 1)
    for i, (targets, st) in zip(starts, _square.square_sweeps(work, starts, delta)):
        want, sw = sweep_targets(work, i, delta, kern)
        e = sw.stats
        assert targets == want, i
        assert (st.steps, st.aborts, st.max_segment_count, st.max_arc_count) == (
            e.steps, e.aborts, e.max_segment_count, e.max_arc_count), i
        for case in ("PREFIX", "INIT"):
            assert st.case_histogram.get(case) == e.case_histogram.get(case), (i, case)
        digest.update(repr((i, targets)).encode())
        steps += st.steps
        aborts += st.aborts
        max_arcs = max(max_arcs, st.max_arc_count)
        max_segs = max(max_segs, st.max_segment_count)
    pin = PINNED[(name, metric.value)]
    assert digest.hexdigest() == pin["sha256"]
    assert steps == sum(pin["cases"].values())
    assert (aborts, max_arcs, max_segs) == (pin["aborts"], pin["max_arcs"], pin["max_segs"])


def _assert_oracle_targets(pts, delta, metric):
    X, Y = _work(pts, metric)
    coords = np.asarray(pts, dtype=float)
    for i in range(len(pts) - 1):
        want = oracle.valid_targets_from(coords, i, delta, metric).tolist()
        assert _square._scalar(X, Y, i, delta)[0] == want, (i, delta, pts)


@pytest.mark.parametrize("metric", SQUARES, ids=lambda m: m.value)
@pytest.mark.parametrize("name", sorted(TIE_INPUTS))
def test_tie_targets_are_the_oracle_targets(name, metric):
    make, delta = TIE_INPUTS[name]
    _assert_oracle_targets(make(), delta, metric)


@pytest.mark.parametrize("metric", SQUARES, ids=lambda m: m.value)
@pytest.mark.parametrize("style", ["uniform", "walk", "cluster"])
def test_verify_corpus_targets_are_the_oracle_targets(style, metric):
    cfg = VerifyConfig(count=150, max_n=30, metrics=(metric,), seed=13, style=style)
    for idx in range(cfg.count):
        pts, delta, _ = random_instance(cfg, idx)
        _assert_oracle_targets([tuple(p) for p in pts.tolist()], delta, metric)


def test_zero_length_shortcuts_follow_the_oracle():
    # p_3 == p_0: valid iff every bridged vertex lies within delta of p_0
    for metric in SQUARES:
        for pts, delta in (([(0.0, 0.0), (0.3, 0.1), (-0.2, 0.3), (0.0, 0.0)], 0.3),
                           ([(0.0, 0.0), (0.3, 0.1), (-0.4, 0.3), (0.0, 0.0)], 0.3),
                           ([(1.0, 1.0), (2.5, 1.0), (1.0, 2.0), (1.0, 1.0)], 1.0)):
            _assert_oracle_targets(pts, delta, metric)
