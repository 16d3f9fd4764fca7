"""Each sweep's own stats, which a ``sweep_rows`` call sums over its sweeps."""
from frechetsimp.simplify import MAX_SEGMENTS, SweepStats, sweep_rows


def fresh_acc():
    """An empty accumulator, as ``sweep_rows`` hands its sweeps."""
    return [0] * (MAX_SEGMENTS + 1)


def each_sweep_stats(points, metric, starts, delta, watch=None):
    """(targets, ``SweepStats``) of the sweep from each start vertex, one
    ``sweep_rows`` call per start vertex."""
    for i in starts:
        st = SweepStats()
        (targets, arcs), = sweep_rows(points, metric, [i], delta, watch, st)
        assert arcs == st.max_arc_count, i
        yield targets, st
