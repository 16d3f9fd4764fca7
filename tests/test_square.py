"""The square sweep (``_square``) against the generic engine and the oracle.

On the generic pinned inputs the square sweep must agree with the generic
engine sweep by sweep (targets, steps, aborts, both gauges, and the PREFIX
and INIT counts) and so reproduce the engine's pins; on inputs full of ties,
where the engine raises, its targets must be the oracle's.  On both, on
more walks and on random ``verify`` draws, each sweep's gauges must be the
maxima an observer recounts after every step, and no step may show a face
of an axis on which the live cones differ in sign.  ``simplify.sweep_rows``
must hand squares to the square sweep, with or without the invariant
checker.
"""
import functools
import hashlib
import math

import numpy as np
import pytest

from frechetsimp import _square, oracle
from frechetsimp._engine import sweep_targets
from frechetsimp.diagnostics import SquareChecker
from frechetsimp.geometry import Metric
from frechetsimp.simplify import SweepStats
from frechetsimp.verify import STYLES, VerifyConfig, random_instance

from reference import engine_input
from sweeps import each_sweep_stats, fresh_acc
from test_sweep_pin import INPUTS, PINNED, TIE_INPUTS
from walks import lattice_walk, quantized, stop_and_go

SQUARES = [Metric.LINF, Metric.L1]


def _work(pts, metric):
    work, _ = engine_input(pts, metric)
    return [p[0] for p in work], [p[1] for p in work]


def _scalar_stats(X, Y, i, delta, watch=None):
    """(targets, ``SweepStats``) of one ``_square`` sweep on its own accumulator."""
    acc = fresh_acc()
    targets, arcs = _square._scalar(X, Y, i, delta, acc, watch)
    st = SweepStats.of(acc)
    assert arcs == st.max_arc_count
    return targets, st


def _outcome(res):
    targets, st = res
    return (targets, st.steps, st.aborts, st.max_segment_count, st.max_arc_count,
            st.case_histogram)


@pytest.mark.parametrize("metric", SQUARES, ids=lambda m: m.value)
def test_sweep_rows_routes_squares(metric):
    make, delta = INPUTS["stopgo-a"]
    pts = make()
    X, Y = _work(pts, metric)
    starts = range(len(X) - 1)
    square = [_outcome(_scalar_stats(X, Y, i, delta)) for i in starts]
    assert [_outcome(r) for r in each_sweep_stats(pts, metric, starts, delta)] == square
    # the invariant checker watches the same square sweep
    checked = [_outcome(r) for r in each_sweep_stats(pts, metric, starts, delta, SquareChecker)]
    assert checked == square


@pytest.mark.parametrize("metric", SQUARES, ids=lambda m: m.value)
@pytest.mark.parametrize("name", sorted(INPUTS))
def test_square_sweep_matches_the_engine_and_its_pins(name, metric):
    make, delta = INPUTS[name]
    pts = make()
    work, kern = engine_input(pts, metric)
    digest = hashlib.sha256()
    steps = aborts = max_arcs = max_segs = 0
    starts = range(len(work) - 1)
    for i, (targets, st) in zip(starts, each_sweep_stats(pts, metric, starts, delta)):
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
        assert _square._scalar(X, Y, i, delta, fresh_acc())[0] == want, (i, delta, pts)


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


class GaugeReference:
    """Observer that recomputes a square sweep's gauges from what it is
    handed: a face is owned by the step that last changed its extreme, and
    after each INIT, BB and MM step every live cone shows its X face where
    that binds toward l and its Y face where it binds toward r.  It asserts
    the lemma behind the sweep's cap on every such step: no face of an axis
    is shown while the live cones disagree in sign on it, so at most two
    faces are shown."""

    def __init__(self, X, Y, i, delta):
        self.faces = (-math.inf, math.inf, -math.inf, math.inf)
        self.owner = [-1, -1, -1, -1]
        self.segs = self.arcs = 0

    def __call__(self, j, case, faces, cones):
        for f in range(4):
            if faces[f] != self.faces[f]:
                self.owner[f] = j
        self.faces = faces
        if case not in ("INIT", "BB", "MM"):
            return
        xp, xm, yp, ym = faces
        shown = set()               # faces 0..3: X+, X-, Y+, Y-
        for q, rx, ry, lx, ly in cones:
            xn = -xm if q & 1 else xp
            yn = -ym if q & 2 else yp
            if xn > 0.0 and (yn <= 0.0 or ly * xn > lx * yn):
                shown.add(q & 1)
            if yn > 0.0 and (xn <= 0.0 or ry * xn < rx * yn):
                shown.add(2 + (q >> 1))
        if len({q & 1 for q, *_ in cones}) > 1:
            assert not shown & {0, 1}, (j, faces, cones)
        if len({q >> 1 for q, *_ in cones}) > 1:
            assert not shown & {2, 3}, (j, faces, cones)
        assert len(shown) <= 2
        self.segs = max(self.segs, len(shown))
        self.arcs = max(self.arcs, len({self.owner[f] for f in shown}))


def _draws(style):
    # short sweeps where cones often die mid-sweep, which can raise the cap
    cfg = VerifyConfig(count=100, max_n=30, seed=26, style=style)
    return [([tuple(p) for p in pts.tolist()], delta)
            for pts, delta, _ in map(functools.partial(random_instance, cfg), range(cfg.count))]


# name -> a function that makes the (points, delta) instances
GAUGE_INPUTS = {
    **{name: (lambda make=make, delta=delta: [(make(), delta)])
       for name, (make, delta) in {**INPUTS, **TIE_INPUTS}.items()},
    **{f"stopgo-{s}": (lambda s=s: [(stop_and_go(150, s), 1.0)]) for s in range(3)},
    **{f"quantized-{s}": (lambda s=s: [(quantized(stop_and_go(150, s), 0.1), 1.0)])
       for s in range(3)},
    **{f"lattice-{s}": (lambda s=s: [(lattice_walk(120, s), 1.0 + 0.5 * s)]) for s in range(3)},
    **{f"draws-{style}": functools.partial(_draws, style) for style in STYLES},
}


@pytest.mark.parametrize("metric", SQUARES, ids=lambda m: m.value)
@pytest.mark.parametrize("name", sorted(GAUGE_INPUTS))
def test_gauges_match_a_stepwise_recount(name, metric):
    # the sweep reads its gauges only where they can rise; the reference
    # recounts them after every step from the observed state alone
    for pts, delta in GAUGE_INPUTS[name]():
        refs = []

        def watch(*args):
            refs.append(GaugeReference(*args))
            return refs[-1]

        starts = range(len(pts) - 1)
        for i, (_, st) in zip(starts, each_sweep_stats(pts, metric, starts, delta, watch)):
            assert (st.max_segment_count, st.max_arc_count) == (refs[-1].segs,
                                                                 refs[-1].arcs), (i, pts, delta)
        assert len(refs) == len(starts)
