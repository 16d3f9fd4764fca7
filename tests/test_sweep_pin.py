"""Pinned sweep behaviour: exact outputs and counters of fixed seeded inputs.

The engine's hot path is tuned for speed without changing a single floating
point decision, so every sweep here must reproduce the recorded digest of its
per-start target lists, its summed case histogram and its gauges exactly.
A change that moves any of these values changed the sweep's arithmetic.
The disk sweep (``_disk``), which ``simplify.sweep_rows`` runs for L2, must
reproduce the L2 pins too, and match the per-start engine in every target
and counter on generic inputs; squares take the square sweep there, which
``test_square`` checks against the same pins.
"""
import dataclasses
import hashlib

import numpy as np
import pytest

from frechetsimp import oracle, svgdebug
from frechetsimp._engine import CASES, VALID, Sweep, sweep_targets
from frechetsimp.diagnostics import DiskChecker, SquareChecker
from frechetsimp.geometry import CircleKernel, Metric
from frechetsimp.oracle import shortcut_is_valid
from frechetsimp.simplify import sweep_rows

from reference import engine_input
from walks import drift_walk, lattice_walk, quantized, stop_and_go


INPUTS = {
    "drift": (lambda: drift_walk(120, 7), 1.0),
    "stopgo-a": (lambda: stop_and_go(150, 11), 1.0),
    "stopgo-b": (lambda: stop_and_go(150, 23, leg=14, dwell=12), 0.6),
}


# inputs full of exact ties: fixed-decimal coordinates and integer pixels
TIE_INPUTS = {
    "stopgo-q": (lambda: quantized(stop_and_go(150, 11), 0.01), 1.0),
    "lattice-a": (lambda: lattice_walk(120, 5), 1.0),
    "lattice-b": (lambda: lattice_walk(120, 8), 1.5),
}


def each_sweep(work, starts, delta, kern, rows=False):
    """(i, (targets, stats) or the exception its sweep raised) per start vertex.

    ``rows`` takes the disk sweeps from ``sweep_rows``, one start vertex at
    a time, so a raised exception lands in its sweep's place; squares take
    the per-start engine either way.
    """
    for i in starts:
        try:
            if rows and kern is CircleKernel:
                yield i, next(sweep_rows(work, Metric.L2, [i], delta))
            else:
                targets, sw = sweep_targets(work, i, delta, kern)
                yield i, (targets, sw.stats)
        except Exception as exc:  # noqa: BLE001 - the failure itself is compared
            yield i, exc


def sweep_summary(pts, delta, metric, rows=False):
    """Digest of every start vertex's targets plus the summed sweep stats.

    A sweep that raises adds its start vertex and exception type to the
    digest instead of its targets, and nothing to the stats.
    """
    work, kern = engine_input(pts, metric)
    digest = hashlib.sha256()
    hist = {}
    max_arcs = max_segs = aborts = 0
    for i, res in each_sweep(work, range(len(work) - 1), delta, kern, rows):
        if isinstance(res, Exception):
            digest.update(repr((i, type(res).__name__)).encode())
            continue
        targets, stats = res
        digest.update(repr((i, targets)).encode())
        for case, k in stats.case_histogram.items():
            hist[case] = hist.get(case, 0) + k
        max_arcs = max(max_arcs, stats.max_arc_count)
        max_segs = max(max_segs, stats.max_segment_count)
        aborts += stats.aborts
    return {"sha256": digest.hexdigest(), "cases": dict(sorted(hist.items())),
            "max_arcs": max_arcs, "max_segs": max_segs, "aborts": aborts}


# recorded before the hot-path rewrite of the engine; never regenerate these
# to make a failing run pass
PINNED = {
    ("drift", "l2"): {
        "sha256": "591d195ef920e2cbdfd90065e9651312b77a69a1af1d378096295a9140008a8b",
        "cases": {"BB": 849, "BM": 2987, "INIT": 118, "MB": 2822, "MM": 111,
                  "PREFIX": 253},
        "max_arcs": 3, "max_segs": 0, "aborts": 0},
    ("drift", "linf"): {
        "sha256": "591d195ef920e2cbdfd90065e9651312b77a69a1af1d378096295a9140008a8b",
        "cases": {"BB": 6670, "INIT": 116, "PREFIX": 354},
        "max_arcs": 1, "max_segs": 1, "aborts": 0},
    ("drift", "l1"): {
        "sha256": "591d195ef920e2cbdfd90065e9651312b77a69a1af1d378096295a9140008a8b",
        "cases": {"BB": 1875, "BM": 2484, "INIT": 118, "MB": 2452, "MT": 27,
                  "PREFIX": 158, "TM": 26},
        "max_arcs": 2, "max_segs": 2, "aborts": 0},
    ("stopgo-a", "l2"): {
        "sha256": "c49ab4856e5f933db91c372123a0460175bc96476ed36af1ee557f7fc5aaccd5",
        "cases": {"BB": 1872, "BM": 426, "INIT": 147, "MB": 316, "MM": 373, "MT": 81,
                  "PREFIX": 494, "TM": 76, "TT": 4, "WEDGE_EMPTY": 102},
        "max_arcs": 4, "max_segs": 0, "aborts": 102},
    ("stopgo-a", "linf"): {
        "sha256": "fefc970eaea558dc25f56cfcb8d42a86c822dac445ea5450e00deb059c4ae2e9",
        "cases": {"BB": 2028, "BM": 342, "INIT": 147, "MB": 284, "MM": 223, "MT": 308,
                  "PREFIX": 504, "TM": 86, "TT": 140, "TT_EMPTY": 3, "WEDGE_EMPTY": 98},
        "max_arcs": 2, "max_segs": 2, "aborts": 101},
    ("stopgo-a", "l1"): {
        "sha256": "dfa951240fdd7649d7eb7cfbb35a7ec54ded2c7ce62b1b7f6784db30f9f9751b",
        "cases": {"BB": 2035, "BM": 302, "INIT": 148, "MB": 221, "MM": 203, "MT": 167,
                  "PREFIX": 340, "TM": 130, "TT": 123, "TT_EMPTY": 2, "WEDGE_EMPTY": 100},
        "max_arcs": 2, "max_segs": 2, "aborts": 102},
    ("stopgo-b", "l2"): {
        "sha256": "e53bd83cd7499856bc38ec95d9769671a12788c89233a621eb466113b1e99e34",
        "cases": {"BB": 991, "BM": 275, "INIT": 143, "MB": 256, "MM": 498, "MT": 73,
                  "PREFIX": 262, "TM": 73, "TT": 8, "TT_EMPTY": 5, "WEDGE_EMPTY": 122},
        "max_arcs": 4, "max_segs": 0, "aborts": 127},
    ("stopgo-b", "linf"): {
        "sha256": "10eadd288f0c78ff069009932625265dd728aa78608e0600b72c16eab5e1493e",
        "cases": {"BB": 1365, "BM": 191, "INIT": 143, "MB": 208, "MM": 476, "MT": 186,
                  "PREFIX": 348, "TM": 216, "TT": 100, "TT_EMPTY": 27, "WEDGE_EMPTY": 95},
        "max_arcs": 2, "max_segs": 2, "aborts": 122},
    ("stopgo-b", "l1"): {
        "sha256": "cad459e62f1ecec2946d37e8474ca922a6f43d0859c006bcd08bb41eb9c1f67d",
        "cases": {"BB": 852, "BM": 112, "INIT": 144, "MB": 138, "MM": 286, "MT": 152,
                  "PREFIX": 123, "TM": 114, "TT": 61, "TT_EMPTY": 41, "WEDGE_EMPTY": 88},
        "max_arcs": 2, "max_segs": 2, "aborts": 129},
}


@pytest.mark.parametrize("metric", [Metric.L2, Metric.LINF, Metric.L1], ids=lambda m: m.value)
@pytest.mark.parametrize("name", sorted(INPUTS))
def test_sweep_outputs_are_pinned(name, metric):
    make, delta = INPUTS[name]
    assert sweep_summary(make(), delta, metric) == PINNED[(name, metric.value)]


# Recorded before the tie-tuned hot-path rewrite of the engine.  These inputs
# still crash some sweeps and break the two-segment square budget (ROADMAP
# item 1), so a change that fixes the tie handling is expected to move them:
# it re-records these pins and says so in CHANGES.md.  A speed-up never does.
TIE_PINNED = {
    ("lattice-a", "l2"): {
        "sha256": "b0ece226f46ffa57b391026802f8509fe9e8014182f5b0d32b77ff9595f24c79",
        "cases": {"BB": 541, "BM": 83, "INIT": 119, "MB": 63, "MM": 61, "MT": 10,
                  "PREFIX": 80, "TM": 12, "WEDGE_EMPTY": 113},
        "max_arcs": 3, "max_segs": 0, "aborts": 113},
    ("lattice-a", "linf"): {
        "sha256": "1a771a8fac977473be452a0268c8fa889607f28840e35d0e53080cbc6118d03a",
        "cases": {"BB": 528, "BM": 67, "INIT": 105, "MB": 60, "MM": 222, "MT": 3,
                  "PREFIX": 154, "TM": 2, "WEDGE_EMPTY": 95},
        "max_arcs": 2, "max_segs": 3, "aborts": 95},
    ("lattice-a", "l1"): {
        "sha256": "ecb4d07b2bfdcbdf51a374eb45ee27aab92969e50afebc9c63d94cf76dcffaac",
        "cases": {"BB": 556, "BM": 45, "INIT": 117, "MB": 21, "MM": 91, "MT": 8,
                  "PREFIX": 78, "TM": 13, "TT": 3, "WEDGE_EMPTY": 112},
        "max_arcs": 2, "max_segs": 2, "aborts": 112},
    ("lattice-b", "l2"): {
        "sha256": "679cf0cbd440f0950f8202c377757ec8f377fdb6378b0688f664452c410e1757",
        "cases": {"BB": 856, "BM": 197, "INIT": 118, "MB": 199, "MM": 215, "MT": 6,
                  "PREFIX": 205, "TM": 7, "TT": 2, "WEDGE_EMPTY": 107},
        "max_arcs": 3, "max_segs": 0, "aborts": 107},
    ("lattice-b", "linf"): {
        "sha256": "e5a53318de71d1092b5099cdafcb09159f8d21a6de992e768f9e3cf5caa24f37",
        "cases": {"BB": 537, "BM": 238, "INIT": 77, "MB": 149, "MM": 399, "MT": 2,
                  "PREFIX": 142, "WEDGE_EMPTY": 65},
        "max_arcs": 2, "max_segs": 3, "aborts": 65},
    ("lattice-b", "l1"): {
        "sha256": "9cb1c8ed31d313b412af722ff6466fdee5ec8f1a4036d3d03384b6c590dffcff",
        "cases": {"BB": 492, "BM": 69, "INIT": 89, "MB": 78, "MM": 155, "MT": 10,
                  "PREFIX": 78, "TM": 19, "TT": 6, "TT_EMPTY": 1, "WEDGE_EMPTY": 80},
        "max_arcs": 2, "max_segs": 3, "aborts": 81},
    ("stopgo-q", "l2"): {
        "sha256": "bcb7ed39f69ea3a9636e2dccdc66acc4cd73fc61443bb0ff144a425e4f30af1b",
        "cases": {"BB": 1906, "BM": 427, "INIT": 148, "MB": 322, "MM": 372, "MT": 81,
                  "PREFIX": 451, "TM": 78, "TT": 4, "WEDGE_EMPTY": 102},
        "max_arcs": 4, "max_segs": 0, "aborts": 102},
    ("stopgo-q", "linf"): {
        "sha256": "eb2fd84c8937e0e502f836e7bf7ccdb3e97cae381309d2412f4e9a2bd5419434",
        "cases": {"BB": 2029, "BM": 341, "INIT": 147, "MB": 283, "MM": 243, "MT": 290,
                  "PREFIX": 504, "TM": 86, "TT": 139, "TT_EMPTY": 3, "WEDGE_EMPTY": 98},
        "max_arcs": 2, "max_segs": 2, "aborts": 101},
    ("stopgo-q", "l1"): {
        "sha256": "2cf78b51821415e6312437f443529408b3fa9cbc4613b724c24cad833ffd959f",
        "cases": {"BB": 2036, "BM": 276, "INIT": 148, "MB": 222, "MM": 231, "MT": 166,
                  "PREFIX": 339, "TM": 130, "TT": 123, "TT_EMPTY": 2, "WEDGE_EMPTY": 100},
        "max_arcs": 2, "max_segs": 2, "aborts": 102},

}


@pytest.mark.parametrize("metric", [Metric.L2, Metric.LINF, Metric.L1], ids=lambda m: m.value)
@pytest.mark.parametrize("name", sorted(TIE_INPUTS))
def test_tie_sweeps_are_pinned(name, metric):
    make, delta = TIE_INPUTS[name]
    assert sweep_summary(make(), delta, metric) == TIE_PINNED[(name, metric.value)]


def _stepwise_targets(pts, i, delta, kern):
    """``sweep_targets`` rebuilt from the public per-vertex calls, as a
    traced run drives them: ``locate_vertex(j)``, then ``step(j).case``."""
    sw = Sweep(pts, i, delta, kern)
    out = []
    for j in range(i + 1, len(pts)):
        if sw.locate_vertex(j) is VALID:
            out.append(j)
        assert sw.step(j).case in CASES
        if sw.aborted:
            break
    return out, sw


def _outcome(run):
    """Targets, stats and final state of a sweep, or the exception it raised."""
    try:
        res = run()
    except Exception as exc:  # noqa: BLE001 - the failure itself is compared
        res = exc
    return _state(res)


def _state(res):
    """``_outcome`` of a (targets, sweep) pair or of the exception raised instead;
    the case histogram is compared in its order of first occurrence too."""
    if isinstance(res, Exception):
        return ("raised", type(res).__name__, str(res))
    targets, sw = res
    arcs = [(a.k0, a.k1, a.x0, a.y0, a.x1, a.y1, a.cx, a.cy, a.idx, a.ck) for a in sw.arcs]
    return repr((targets, dataclasses.asdict(sw.stats), list(sw.stats.case_histogram),
                 sw.aborted, sw.rot, sw.kr, sw.kl, sw.ur, sw.ul, arcs, sw.keys))


@pytest.mark.parametrize("checked", [False, True], ids=["plain", "checker"])
@pytest.mark.parametrize("metric", [Metric.L2, Metric.LINF, Metric.L1], ids=lambda m: m.value)
@pytest.mark.parametrize("name", ["stopgo-b", "stopgo-q", "lattice-b"])
def test_sweep_targets_matches_the_stepwise_api(name, metric, checked):
    """plain: the engine's ``sweep_targets`` equals its stepwise API, which
    the benchmark's tracer drives.  checker: ``sweep_rows`` with the
    invariant checker of the sweep it picks as ``watch`` yields the plain
    rows and raises nowhere."""
    make, delta = {**INPUTS, **TIE_INPUTS}[name]
    pts = make()[:50] if checked else make()
    work, kern = engine_input(pts, metric)
    starts = range(len(work) - 1)
    if checked:
        checker = DiskChecker if metric is Metric.L2 else SquareChecker
        rows = [[(t, dataclasses.asdict(st))
                 for t, st in sweep_rows(pts, metric, starts, delta, watch=watch)]
                for watch in (None, checker)]
        assert rows[1] == rows[0]
        return
    raised = 0
    for i in starts:
        fast = _outcome(lambda: sweep_targets(work, i, delta, kern))
        stepwise = _outcome(lambda: _stepwise_targets(work, i, delta, kern))
        assert fast == stepwise, i
        raised += fast[0] == "raised"
    assert raised < len(work) - 1      # some sweeps run to the end


METRICS = [Metric.L2, Metric.LINF, Metric.L1]


def test_apex_inside_by_the_kernel_alone_is_the_apex_inside_step():
    # the kernel's tangent_points alone decides "the apex lies in C_j", by
    # the squares both oracles compare, so the sweep keeps exactly their targets
    for pts, delta in (
        # hypot 1.3000000000000003 > delta, sqrt of the squares 1.3 <= delta,
        # dd 1.6900000000000004 > delta^2 1.6900000000000002
        ([(0.6, 0.3), (1.8, 0.8), (0.6, 0.3)], 1.3),
        # hypot 0.5 <= delta, yet dd 0.25000000000000006 > delta^2 0.25
        ([(0.4, 0.8), (0.1, 0.4), (0.4, 0.8)], 0.5),
    ):
        targets, sw = sweep_targets(pts, 0, delta, CircleKernel)
        expect = [k for k in (1, 2) if shortcut_is_valid(pts, 0, k, delta, Metric.L2)]
        assert targets == expect, (pts, delta)
        assert not sw.aborted


# "batched": the rows ``sweep_rows`` yields for a run of start vertices, which
# for L2 come from the disk sweep; squares keep the engine's per-start loop
# here, whose case labels the pins record
@pytest.mark.parametrize("metric", METRICS, ids=lambda m: m.value)
@pytest.mark.parametrize("name", sorted(INPUTS))
def test_batched_sweep_outputs_are_pinned(name, metric):
    make, delta = INPUTS[name]
    assert sweep_summary(make(), delta, metric, rows=True) == PINNED[(name, metric.value)]


# The disk sweep on the tie inputs, where it decides ties by its own
# roundings and no sweep raises.  Recorded when the disk sweep replaced the
# engine for L2; TIE_PINNED above keeps the engine's.  Every target digest is
# the engine's, and lattice-a's case histogram differs from it.
DISK_TIE_PINNED = {
    ("lattice-a", "l2"): {
        "sha256": "b0ece226f46ffa57b391026802f8509fe9e8014182f5b0d32b77ff9595f24c79",
        "cases": {"BB": 540, "BM": 93, "INIT": 119, "MB": 64, "MM": 50, "MT": 10,
                  "PREFIX": 80, "TM": 12, "WEDGE_EMPTY": 113},
        "max_arcs": 3, "max_segs": 0, "aborts": 113},
    ("lattice-b", "l2"): {
        "sha256": "679cf0cbd440f0950f8202c377757ec8f377fdb6378b0688f664452c410e1757",
        "cases": {"BB": 856, "BM": 197, "INIT": 118, "MB": 199, "MM": 215, "MT": 6,
                  "PREFIX": 205, "TM": 7, "TT": 2, "WEDGE_EMPTY": 107},
        "max_arcs": 3, "max_segs": 0, "aborts": 107},
    ("stopgo-q", "l2"): {
        "sha256": "bcb7ed39f69ea3a9636e2dccdc66acc4cd73fc61443bb0ff144a425e4f30af1b",
        "cases": {"BB": 1906, "BM": 427, "INIT": 148, "MB": 322, "MM": 372, "MT": 81,
                  "PREFIX": 451, "TM": 78, "TT": 4, "WEDGE_EMPTY": 102},
        "max_arcs": 4, "max_segs": 0, "aborts": 102},
}


@pytest.mark.parametrize("metric", METRICS, ids=lambda m: m.value)
@pytest.mark.parametrize("name", sorted(TIE_INPUTS))
def test_batched_tie_sweeps_are_pinned(name, metric):
    make, delta = TIE_INPUTS[name]
    pins = DISK_TIE_PINNED if metric is Metric.L2 else TIE_PINNED
    assert sweep_summary(make(), delta, metric, rows=True) == pins[(name, metric.value)]


# longer than the pins' inputs; each seed differs from theirs
DIFF_INPUTS = {
    "drift": (lambda: drift_walk(260, 3), 1.0, "descending"),
    "stopgo": (lambda: stop_and_go(240, 5), 1.0, "descending"),
    # the gps-trip workload's legs and dwells: 40 moving fixes, 12 at a stop
    "trip": (lambda: stop_and_go(240, 5, leg=40, dwell=12), 1.0, "descending"),
    "quantized": (lambda: quantized(stop_and_go(220, 9, leg=16, dwell=10), 0.01), 0.8,
                  "ascending"),
    "lattice": (lambda: lattice_walk(200, 4), 1.5, "ascending"),
}
TIED = ("quantized", "lattice")


@pytest.mark.parametrize("metric", METRICS, ids=lambda m: m.value)
@pytest.mark.parametrize("name", sorted(DIFF_INPUTS))
def test_batched_sweeps_match_the_per_start_loop(name, metric, monkeypatch):
    """``sweep_rows`` never steps the engine, with or without the invariant
    checker, and neither do the SVG frames.  Under L2
    its disk sweep equals the per-start engine in targets and every
    ``SweepStats`` field on generic inputs, and the oracle's rows on tied
    ones, where the two sweeps may split a tie differently."""
    make, delta, order = DIFF_INPUTS[name]
    pts = make()
    work, kern = engine_input(pts, metric)
    starts = list(range(len(work) - 1))
    if order == "descending":           # simplify's order; verify and stats ascend
        starts.reverse()
    generic = metric is Metric.L2 and name not in TIED
    reference = [res for _, res in each_sweep(work, starts, delta, kern)] if generic else None
    engine_steps = 0
    step = Sweep._step

    def counted(sw, j):
        nonlocal engine_steps
        engine_steps += 1
        return step(sw, j)
    monkeypatch.setattr(Sweep, "_step", counted)
    rows = list(sweep_rows(pts, metric, starts, delta))
    checker = DiskChecker if metric is Metric.L2 else SquareChecker
    assert list(sweep_rows(pts, metric, starts[:5], delta, watch=checker)) == rows[:5]
    svgdebug.draw_frames(pts, metric, starts[:5], delta, lambda i, j, svg: None)
    assert engine_steps == 0
    assert len(rows) == len(starts)
    if generic:
        assert [(t, dataclasses.asdict(st)) for t, st in rows] == \
            [(t, dataclasses.asdict(st)) for t, st in reference]
    elif metric is Metric.L2:
        coords = np.asarray(pts, dtype=float)
        for i, (targets, _) in zip(starts, rows):
            assert targets == oracle.valid_targets_from(coords, i, delta, metric).tolist(), i
    # test_square compares the square sweep with the engine and the oracle
