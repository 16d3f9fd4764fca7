"""The package's public surface: the exported names and the README quickstart."""
import os
import re

import frechetsimp

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_public_names():
    assert sorted(frechetsimp.__all__) == [
        "InternalGeometryError", "InvalidInputError", "Metric", "SimplificationResult",
        "ball_segment_interval", "shortcut_is_valid", "shortcuts", "simplify",
        "simplify_baseline",
    ]
    for name in frechetsimp.__all__:
        assert hasattr(frechetsimp, name), name


def test_readme_quickstart_runs():
    with open(README) as fh:
        text = fh.read()
    section = text[text.index("## Library quickstart"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    ns = {}
    exec(code, ns)
    res = ns["res"]
    assert res.indices == [0, 4]
    assert res.link_count == 1
    assert res.stats["link_distance"] == 1
    points = ns["points"]
    metric = frechetsimp.Metric
    assert frechetsimp.shortcuts(points, 0, 1.0, metric.LINF) == [1, 2, 3, 4]
    assert frechetsimp.shortcuts(points, 0, 1.0, metric.L1) == \
        [k for k in range(1, 5) if frechetsimp.shortcut_is_valid(points, 0, k, 1.0, metric.L1)]
    assert frechetsimp.shortcut_is_valid(points, 0, 4, 1.0)
