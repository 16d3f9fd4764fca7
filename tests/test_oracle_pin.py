"""Pinned baseline rows: every ``valid_targets_from`` row of fixed seeded inputs.

The cubic baseline lists each start vertex's targets with
``valid_targets_from``, tiled over targets and bridged vertices.  Its kernel
is shared with the dense matrix that ``verify`` judges by, and it is tuned
without changing a single floating point decision, so for every input and
metric below the digest of all rows must reproduce the recorded value
exactly.  ``tests/test_verify_pin.py`` pins the dense matrices.
"""
import hashlib

import numpy as np
import pytest

from frechetsimp.geometry import Metric
from frechetsimp.oracle import valid_targets_from

from walks import drift_walk, quantized, stop_and_go


def _clusters(n, seed, delta):
    """verify's cluster style at a fixed n: jitter of sigma delta round n // 6 centres."""
    rng = np.random.default_rng(seed)
    k = max(1, n // 6)
    centers = rng.uniform(0.0, 10.0, (k, 2))
    return centers[rng.integers(0, k, n)] + rng.normal(0.0, delta, (n, 2))


# the drift walk runs long rows across several tiles; the one-decimal
# stop-and-go trip is full of exact ties; clusters give short rows and
# near-coincident vertices
INPUTS = {
    "drift": (lambda: drift_walk(300, 1), 0.8),
    "stopgo-q": (lambda: quantized(stop_and_go(300, 11), 0.1), 1.0),
    "cluster": (lambda: _clusters(200, 3, 1.5), 1.5),
}


def rows_digest(pts, delta, metric):
    """sha256 of every start vertex's ``valid_targets_from`` row."""
    coords = np.asarray(pts, dtype=float)
    digest = hashlib.sha256()
    for i in range(len(coords) - 1):
        row = valid_targets_from(coords, i, delta, metric)
        digest.update(repr((i, row.tolist())).encode())
    return digest.hexdigest()


# recorded before the row and dense kernels were merged into one loop;
# never regenerate these to make a failing run pass
PINNED = {
    ("drift", "l2"): "f161e5931f2149f9b15c7263d3f5d5d3a417653ebd05e388b6ca5dac9ff014fe",
    ("drift", "linf"): "bd30f6a981f514391618125ce61cb6d1531eedb3da82b55a8bd726c93f60dec6",
    ("drift", "l1"): "f47e39dfaa5b1208b23b255033aa062adbcb67db4876dfa33fde31eae688e41f",
    ("stopgo-q", "l2"): "77cbaf9a2609e32821ad1b930282e8ecd7ab976f02997879f8c1488f3900eec1",
    ("stopgo-q", "linf"): "f0dd8f61ff9556d6cc31cad5c7f8732a8ea4f6fa0d3fff0d469a6b1b0f7f89cd",
    ("stopgo-q", "l1"): "a613612d6e0bc452fd3fd242fd739945b8f83853d0a2a141d7253196cef01464",
    ("cluster", "l2"): "bb1598a37d4e3e8c11861c8cdf5229116766fbd212702128606069e7d50312fe",
    ("cluster", "linf"): "432915a70c60ddab539497df001ef9d41c6cf4e1e9a090f153564dd25af741cc",
    ("cluster", "l1"): "18cb4d2b9b5a49241d042ca2c2e84ea3b126a0546963406e8e9313ea192e6ce9",
}


@pytest.mark.parametrize("metric", [Metric.L2, Metric.LINF, Metric.L1], ids=lambda m: m.value)
@pytest.mark.parametrize("name", INPUTS)
def test_rows_pinned(name, metric):
    make, delta = INPUTS[name]
    assert rows_digest(make(), delta, metric) == PINNED[(name, metric.value)]
