"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Criteria 1 and 2 share a single 10,000-instance randomized corpus (each
instance checked under L2, L1 and Linf).  Criterion 3 runs the full sampled
invariant battery (360 rays per step) on a seeded sub-corpus: running it on
every instance of the big corpus would cost on the order of 10^10 sampled-ray
evaluations, far beyond any sane test budget in any runtime; the cheap
assertions (case reachability, segment budget, arc-count bound) do cover the
whole corpus.  Set FRECHETSIMP_C3_COUNT to enlarge the strict sub-corpus.
"""
import math
import os
import random
import time

import numpy as np
import pytest

from frechetsimp import bench as bench_mod, shortcuts
from frechetsimp.geometry import Metric
from frechetsimp.oracle import shortcut_is_valid, shortcut_matrix_dense
from frechetsimp.simplify import (nu_diagnostics, preprocess, simplify, simplify_baseline,
                                  sweep_rows)
from frechetsimp.verify import VerifyConfig, check_instance, run_verify

METRICS = (Metric.L2, Metric.L1, Metric.LINF)
WORKERS = min(2, os.cpu_count() or 1)

CORPUS_COUNT = int(os.environ.get("FRECHETSIMP_C12_COUNT", "10000"))
STRICT_COUNT = int(os.environ.get("FRECHETSIMP_C3_COUNT", "250"))
BENCH_SIZES = tuple(int(s) for s in
                    os.environ.get("FRECHETSIMP_BENCH_SIZES", "250,500,1000,2000").split(","))


@pytest.fixture(scope="module")
def corpus_report():
    cfg = VerifyConfig(count=CORPUS_COUNT, max_n=30,
                       delta_range=(0.1, 3.0), metrics=METRICS,
                       seed=20260808, strict=False, workers=WORKERS)
    return run_verify(cfg)


def test_c1_oracle_equivalence(corpus_report):
    """Criterion 1: wavefront shortcut sets equal the greedy oracle exactly on
    10^4 seeded instances under all three norms, within two minutes."""
    rep = corpus_report
    set_bugs = [m for m in rep.mismatches if m["kind"] in ("shortcut_set", "invariant")]
    assert rep.checked == CORPUS_COUNT * len(METRICS)
    assert set_bugs == [], set_bugs[:3]
    assert rep.wall_s < 120.0, f"corpus took {rep.wall_s:.1f}s (budget 120s)"
    print(f"\nPASS criterion 1: {rep.checked} instance-metric checks, "
          f"shortcut sets identical to the oracle, {rep.wall_s:.1f}s")


def test_c2_optimality_and_revalidation(corpus_report):
    """Criterion 2: wavefront and baseline link counts agree everywhere and
    every emitted link revalidates against the oracle."""
    rep = corpus_report
    opt_bugs = [m for m in rep.mismatches if m["kind"] in ("link_count", "invalid_link")]
    assert opt_bugs == [], opt_bugs[:3]
    print(f"PASS criterion 2: link counts optimal and all links revalidated "
          f"on {rep.checked} checks")


def test_c3_structural_invariants(corpus_report):
    """Criterion 3: zero violations of the per-step invariant battery
    (ray-crossing uniqueness, crossing budget, wavefront containment,
    monotone recession, arc and segment bounds) on strict sub-corpora plus
    the always-on checks across the criterion-1 corpus."""
    assert corpus_report.stats.max_segment_count <= 2  # square wavefront budget, full corpus
    totals = 0
    for style, count in (("uniform", STRICT_COUNT),
                         ("walk", STRICT_COUNT // 2),
                         ("cluster", STRICT_COUNT // 2)):
        cfg = VerifyConfig(count=count, seed=4242, strict=True,
                           workers=WORKERS, style=style)
        rep = run_verify(cfg)
        bad = [m for m in rep.mismatches]
        assert bad == [], (style, bad[:3])
        totals += rep.checked
    print(f"PASS criterion 3: invariant battery clean on {totals} strict "
          f"instance-metric checks (360 rays/step); segment budget and case "
          f"reachability clean across the full corpus")


def test_c4_complexity_evidence():
    """Criterion 4: doubling n multiplies the baseline CPU time by 6.5-9.5
    and the wavefront CPU time by 3.4-5.0 at the top sizes; fit exponents
    land in the cubic and quadratic bands; whole bench under 10 minutes of
    wall time."""
    t0 = time.perf_counter()
    result = bench_mod.run_bench(sizes=BENCH_SIZES, seed=1)
    wall = time.perf_counter() - t0
    assert wall < 600.0, f"bench took {wall:.0f}s"
    top = (BENCH_SIZES[-2], BENCH_SIZES[-1])
    base_ratio = result.ratios[("baseline", "l2")][top]
    wf2_ratio = result.ratios[("wavefront", "l2")][top]
    wfi_ratio = result.ratios[("wavefront", "linf")][top]
    base_fit = result.fits[("baseline", "l2")]
    wf2_fit = result.fits[("wavefront", "l2")]
    wfi_fit = result.fits[("wavefront", "linf")]
    for row in result.rows:
        if row.metric == "linf":
            assert row.max_wavefront <= 2
    assert 6.5 <= base_ratio <= 9.5, f"baseline doubling ratio {base_ratio:.2f}"
    assert 3.4 <= wf2_ratio <= 5.0, f"wavefront L2 doubling ratio {wf2_ratio:.2f}"
    assert 3.4 <= wfi_ratio <= 5.0, f"wavefront Linf doubling ratio {wfi_ratio:.2f}"
    assert 2.6 <= base_fit <= 3.4, f"baseline fit exponent {base_fit:.2f}"
    assert 1.8 <= wf2_fit <= 2.4, f"wavefront L2 fit exponent {wf2_fit:.2f}"
    assert 1.8 <= wfi_fit <= 2.4, f"wavefront Linf fit exponent {wfi_fit:.2f}"
    print(f"PASS criterion 4: baseline x{base_ratio:.1f} per doubling "
          f"(fit n^{base_fit:.2f}), wavefront x{wf2_ratio:.1f}/{wfi_ratio:.1f} "
          f"(fits n^{wf2_fit:.2f}/n^{wfi_fit:.2f}), bench {wall:.0f}s")


def _serpentine_grid(rows, cols, spacing, jitter, seed):
    rng = np.random.default_rng(seed)
    pts = []
    for r in range(rows):
        rng_cols = range(cols) if r % 2 == 0 else range(cols - 1, -1, -1)
        for c in rng_cols:
            pts.append((c * spacing + rng.uniform(-jitter, jitter),
                        r * spacing + rng.uniform(-jitter, jitter)))
    return pts


def _bulge_cluster(m, delta=1.0, R=3.0, rho=0.8, span_deg=60.0, seed=0):
    rng = np.random.default_rng(seed)
    fracs = [0.0, 1.0, 0.5]
    level = 2
    while len(fracs) < m:
        fracs += [k / (2 ** level) for k in range(1, 2 ** level, 2)]
        level += 1
    phimax = math.radians(span_deg)
    pts = [(0.0, 0.0)]
    for f in fracs[:m]:
        phi = -phimax + 2 * phimax * f
        pts.append((rho * delta * math.sin(phi) + rng.uniform(-1e-3, 1e-3),
                    R * delta + rho * delta * math.cos(phi) + rng.uniform(-1e-3, 1e-3)))
    return pts


def test_c5_nu_light_bound_and_adversarial_growth():
    """Criterion 5: on sparse (grid) polylines the observed wavefront size
    stays within the delta-ball density bound; on engineered clusters it
    grows with the cluster size, so density is the controlling quantity."""
    for seed in (0, 1, 2):
        spacing = 1.0
        delta = 0.45 * spacing           # spacing >= 2*delta
        pts = _serpentine_grid(5, 6, spacing, 0.04 * spacing, seed)
        ball = nu_diagnostics(pts, delta)["max_vertices_in_delta_ball"]
        worst = max(st.max_arc_count
                    for _, st in sweep_rows(pts, Metric.L2, range(len(pts) - 1), delta))
        assert worst <= ball, (worst, ball)
    sizes = (4, 8, 16)
    fronts = []
    for m in sizes:
        pts = _bulge_cluster(m)
        (_, st), = sweep_rows(pts, Metric.L2, [0], 1.0)
        fronts.append(st.max_arc_count)
    assert fronts[0] < fronts[1] < fronts[2]
    assert fronts[-1] >= sizes[-1] // 2
    print(f"PASS criterion 5: grid sweeps bounded by the 2-delta ball count; "
          f"cluster wavefronts grow {sizes} -> {fronts}")


def test_c6_degenerate_suite():
    """Criterion 6: tiny, collinear, duplicated, inside-delta and
    above-diameter inputs all match the oracle under every norm."""
    trap = [(0.0, 0.0), (10.0, 0.0), (0.5, 0.0), (20.0, 0.0)]
    cases = [
        ("n=2", [(0.0, 0.0), (3.0, 1.0)], 0.5),
        ("collinear", [(float(k), 0.0) for k in range(8)], 0.25),
        ("duplicates", [(0, 0), (0, 0), (1, 0), (1, 0), (2, 0), (2, 0)], 0.3),
        ("prefix-inside", [(0.0, 0.0), (0.2, 0.1), (0.1, -0.2), (4.0, 0.0), (8.0, 0.0)], 1.0),
        ("order-trap", trap, 1.0),
        ("delta>=diameter", [(0, 0), (1, 2), (3, 1), (2, 0), (0, 1)], 10.0),
    ]
    for name, raw, delta in cases:
        poly = preprocess(raw)
        pts = list(poly.vertices)
        n = len(pts)
        for metric in METRICS:
            M = shortcut_matrix_dense(np.asarray(pts), delta, metric)
            for i in range(n - 1):
                got = shortcuts(pts, i, delta, metric)
                want = np.nonzero(M[i])[0].tolist()
                assert got == want, (name, metric, i, got, want)
            a = simplify(raw, delta, metric)
            b = simplify_baseline(raw, delta, metric)
            assert a.link_count == b.link_count
            for x, y in zip(a.indices, a.indices[1:]):
                assert shortcut_is_valid(raw, x, y, delta, metric)
    # the trap's long shortcut must be rejected under every norm
    for metric in METRICS:
        got = shortcuts(trap, 0, 1.0, metric)
        assert 3 not in got
        assert not shortcut_is_valid(trap, 0, 3, 1.0, metric)
    print("PASS criterion 6: degenerate suite matches the oracle under all norms")


def _tie_instance(rng):
    """One-decimal coordinates, uniform in [0, 3]^2 or a walk of steps up to
    0.5 per axis: every distance is a tie of some other."""
    n = rng.randint(3, 15)
    delta = rng.choice((0.3, 0.5, 1.0, 1.3))
    if rng.random() < 0.5:
        return [(rng.randint(0, 30) / 10, rng.randint(0, 30) / 10) for _ in range(n)], delta
    x = y = 0
    pts = []
    for _ in range(n):
        x += rng.randint(-5, 5)
        y += rng.randint(-5, 5)
        pts.append((x / 10, y / 10))
    return pts, delta


def test_c7_tie_contract():
    """Criterion 7: on 1,500 fixed-decimal inputs ``simplify`` never raises
    under any norm, every link is valid at delta(1+eps), and the link count
    lies between the oracle's optima at delta(1+eps) and delta(1-eps),
    eps = 1e-6."""
    eps = 1e-6
    rng = random.Random(9)
    checked = 0
    for _ in range(1500):
        pts, delta = _tie_instance(rng)
        for metric in METRICS:
            res = simplify(pts, delta, metric)
            for a, b in zip(res.indices, res.indices[1:]):
                assert shortcut_is_valid(pts, a, b, delta * (1 + eps), metric), (pts, delta, metric)
            lo = simplify_baseline(pts, delta * (1 + eps), metric).link_count
            hi = simplify_baseline(pts, delta * (1 - eps), metric).link_count
            assert lo <= res.link_count <= hi, (pts, delta, metric)
            checked += 1
    print(f"PASS criterion 7: {checked} tied simplifications within the eps-contract")
