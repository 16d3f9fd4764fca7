"""L1/Linf sweep with a constant-size wavefront.

Unit circles are squares here, so the wavefront is the lower-left boundary of
a running rectangle intersection clipped to the wedge: one or two orthogonal
segments, never more.  The sweep reuses the shared case machinery with square
primitives; every step touches at most two stored arcs, so each sweep is
linear time without any ordered container.

L1 runs through the same square code path after the exact change of
coordinates (x, y) -> (x+y, y-x), which turns L1 balls into Linf balls.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from ._engine import Location, StepReport, Sweep, sweep_targets
from .geometry import InternalGeometryError, Metric, SquareKernel, l1_to_linf

__all__ = ["RectSweep", "RectWavefront", "rect_shortcuts_from", "rect_step"]


def _from_linf_xy(u: float, v: float) -> tuple[float, float]:
    return ((u - v) / 2.0, (u + v) / 2.0)


@dataclass(frozen=True)
class RectWavefront:
    """Snapshot view: 1-2 orthogonal segments, plus the corner where they meet."""

    segments: tuple[tuple[tuple[float, float], tuple[float, float]], ...]
    corner: Optional[tuple[float, float]]


class RectSweep:
    """Per-start-vertex sweep under L1 or Linf (square unit circles)."""

    def __init__(self, pts: Sequence[Sequence[float]], i: int, delta: float,
                 metric: Metric = Metric.LINF, strict: bool = False, checker=None,
                 svg_sink: Optional[Callable[[int, int, str], None]] = None):
        if metric not in (Metric.L1, Metric.LINF):
            raise ValueError("RectSweep handles L1 and Linf only")
        if delta <= 0.0:
            raise ValueError("delta must be positive")
        self.metric = metric
        if metric is Metric.L1:
            self._pts = l1_to_linf(pts)
        else:
            self._pts = [(float(p[0]), float(p[1])) for p in pts]
        self.sweep = Sweep(self._pts, i, delta, SquareKernel, strict=strict,
                           checker=checker, svg_sink=svg_sink)

    @property
    def aborted(self) -> bool:
        return self.sweep.aborted

    @property
    def stats(self):
        return self.sweep.stats

    def locate(self, p: Sequence[float]) -> Location:
        if self.metric is Metric.L1:
            p = (p[0] + p[1], p[1] - p[0])
        return self.sweep.locate(p)

    def locate_vertex(self, j: int) -> Location:
        return self.sweep.locate_vertex(j)

    def step(self, j: int) -> StepReport:
        rep = self.sweep.step(j)
        self.assert_segment_budget()
        return rep

    def assert_segment_budget(self):
        segs = self.sweep._segment_count()
        if segs > 2:
            raise InternalGeometryError(
                f"square wavefront grew to {segs} segments; it can never exceed two")

    def wavefront(self) -> RectWavefront:
        """Current wavefront as explicit segments (in original coordinates)."""
        sw = self.sweep
        pts: list[tuple[float, float]] = []
        for a in sw.arcs:
            path = SquareKernel.wave_path(sw.ax, sw.ay, a.cx, a.cy, sw.delta,
                                          (a.x0, a.y0), (a.x1, a.y1))
            for p in path:
                if not pts or abs(p[0] - pts[-1][0]) + abs(p[1] - pts[-1][1]) > 1e-12:
                    pts.append(p)
        if self.metric is Metric.L1:
            pts = [_from_linf_xy(*p) for p in pts]
        segs = tuple((pts[k], pts[k + 1]) for k in range(len(pts) - 1))
        corner = pts[1] if len(pts) == 3 else None
        return RectWavefront(segs, corner)


def rect_step(state: RectSweep, pts: Sequence[Sequence[float]], j: int) -> StepReport:
    """Advance the square-metric sweep over vertex j."""
    return state.step(j)


def rect_shortcuts_from(pts: Sequence[Sequence[float]], i: int, delta: float,
                        metric: Metric = Metric.LINF, strict: bool = False,
                        checker=None, svg_sink=None, return_state: bool = False):
    """Ascending list of k > i with a valid shortcut <p_i, p_k> under L1/Linf."""
    if metric not in (Metric.L1, Metric.LINF):
        raise ValueError("rect_shortcuts_from handles L1 and Linf only")
    work = l1_to_linf(pts) if metric is Metric.L1 else pts
    targets, sw = sweep_targets(work, i, delta, SquareKernel, strict=strict,
                                checker=checker, svg_sink=svg_sink)
    segs = sw.stats.max_segment_count
    if segs > 2:
        raise InternalGeometryError(
            f"square wavefront grew to {segs} segments; it can never exceed two")
    if return_state:
        return targets, sw
    return targets
