"""Pinned sweep behaviour: exact outputs and counters of fixed seeded inputs.

The engine's hot path is tuned for speed without changing a single floating
point decision, so every sweep here must reproduce the recorded digest of its
per-start target lists, its summed case histogram and its gauges exactly.
A change that moves any of these values changed the sweep's arithmetic.
"""
import hashlib

import pytest

from frechetsimp._engine import sweep_targets
from frechetsimp.geometry import CircleKernel, Metric, SquareKernel, l1_to_linf

from walks import drift_walk, stop_and_go


INPUTS = {
    "drift": (lambda: drift_walk(120, 7), 1.0),
    "stopgo-a": (lambda: stop_and_go(150, 11), 1.0),
    "stopgo-b": (lambda: stop_and_go(150, 23, leg=14, dwell=12), 0.6),
}


def sweep_summary(pts, delta, metric):
    """Digest of every start vertex's targets plus the summed sweep stats."""
    if metric is Metric.L2:
        work, kern = pts, CircleKernel
    else:
        work = l1_to_linf(pts) if metric is Metric.L1 else pts
        kern = SquareKernel
    digest = hashlib.sha256()
    hist = {}
    max_arcs = max_segs = aborts = 0
    for i in range(len(work) - 1):
        targets, sw = sweep_targets(work, i, delta, kern)
        digest.update(repr((i, targets)).encode())
        for case, k in sw.stats.case_histogram.items():
            hist[case] = hist.get(case, 0) + k
        max_arcs = max(max_arcs, sw.stats.max_arc_count)
        max_segs = max(max_segs, sw.stats.max_segment_count)
        aborts += sw.aborted
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
