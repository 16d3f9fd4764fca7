"""``verify`` on instances long enough for the batched L2 sweeps."""
from frechetsimp import _engine
from frechetsimp.geometry import Metric
from frechetsimp.verify import VerifyConfig, random_instance, run_verify


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
