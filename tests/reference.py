"""What the generic engine (``frechetsimp._engine``), the tests' reference
sweep, runs on under each metric."""
from frechetsimp.geometry import CircleKernel, Metric, SquareKernel, l1_to_linf


def engine_input(points, metric):
    """(working points, kernel) of the engine's sweeps under ``metric``: the
    points with disks for L2 and with squares for Linf, and for L1 their
    image under (x, y) -> (x+y, y-x), which maps L1 balls onto Linf balls,
    with squares."""
    metric = Metric(metric)
    if metric is Metric.L2:
        return points, CircleKernel
    if metric is Metric.L1:
        return l1_to_linf(points), SquareKernel
    return points, SquareKernel
