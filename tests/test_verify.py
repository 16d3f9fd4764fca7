"""``verify`` on instances long enough for the batched L2 sweeps."""
from frechetsimp import _engine, verify
from frechetsimp.geometry import Metric
from frechetsimp.verify import VerifyConfig, check_instance, random_instance, run_verify


def test_oracle_judges_batched_sweeps():
    # max_n 60: under L2, instances with more than _BATCH_MIN_ROWS start
    # vertices take their sweeps from the batched entry, and the dense oracle
    # judges every one of them; L-inf and L1 run the square sweep, whose
    # batched engine path test_rect and test_sweep_pin cover
    cfg = VerifyConfig(count=6, max_n=60, metrics=(Metric.L2, Metric.LINF, Metric.L1),
                       seed=3, style="walk")
    sizes = [len(random_instance(cfg, idx)[0]) for idx in range(cfg.count)]
    assert sum(n - 1 >= _engine._BATCH_MIN_ROWS for n in sizes) >= 2
    rep = run_verify(cfg)
    assert rep.ok, rep.mismatches[:1]
    assert rep.checked == 3 * cfg.count
    assert rep.sweeps == 3 * sum(n - 1 for n in sizes)
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
