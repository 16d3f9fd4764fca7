"""A gallery of instructive sweeps drawn to SVG files, one directory each."""
import os

from frechetsimp import Metric
from frechetsimp.svgdebug import draw_frames, file_sink

from test_acceptance import _bulge_cluster

# a BB climb, interior insertions, the order trap's abort, and squares
GALLERY = {
    "collinear_climb": ([(0.0, 0.0), (0.0, 2.0), (0.0, 4.0), (0.0, 6.0)], 1.0, Metric.L2),
    "interior_insertions": (_bulge_cluster(10), 1.0, Metric.L2),
    "order_trap": ([(0.0, 0.0), (10.0, 0.0), (0.5, 0.0), (20.0, 0.0)], 1.0, Metric.L2),
    "squares": ([(0.0, 0.0), (2.0, 3.0), (1.0, 6.0), (4.0, 7.0)], 1.5, Metric.LINF),
}


def test_render_case_gallery(tmp_path):
    for name, (pts, delta, metric) in GALLERY.items():
        draw_frames(pts, metric, [0], delta, file_sink(str(tmp_path / name)))
    frames = {name: len(os.listdir(tmp_path / name)) for name in GALLERY}
    assert frames == {"collinear_climb": 3, "interior_insertions": 10,
                      "order_trap": 2, "squares": 3}
