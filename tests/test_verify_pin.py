"""Pinned verification corpus: the drawn instances and their dense oracle matrices.

``verify`` tests exactly the instances ``random_instance`` draws, and judges
the sweeps by ``shortcut_matrix_dense``.  Both kernels are tuned for speed
without changing a single floating point decision, so for every style and
metric set below the digest of each instance's points, delta and resample
count, of its criticality margin, and of its dense matrices, must reproduce
the recorded values exactly.  A change that moves one of them changed what
``verify`` checks.
"""
import hashlib

import numpy as np
import pytest

from frechetsimp.geometry import Metric
from frechetsimp.oracle import shortcut_matrix_dense
from frechetsimp.verify import (DEFAULT_METRICS, VerifyConfig, instance_margin,
                                random_instance)

COUNT = 200
METRIC_SETS = {"l2": (Metric.L2,), "linf": (Metric.LINF,), "l1": (Metric.L1,),
               "all": DEFAULT_METRICS}


def corpus_digests(style, metrics, count=COUNT, seed=5, max_n=30):
    """sha256 of the drawn instances, their margins and their dense matrices."""
    cfg = VerifyConfig(count=count, seed=seed, style=style, metrics=metrics, max_n=max_n)
    drawn = hashlib.sha256()
    margins = hashlib.sha256()
    dense = hashlib.sha256()
    for idx in range(count):
        pts, delta, resamples = random_instance(cfg, idx)
        drawn.update(np.ascontiguousarray(pts, dtype=float).tobytes())
        drawn.update(repr((len(pts), delta, resamples)).encode())
        margins.update(repr(instance_margin(pts, delta, metrics)).encode())
        for m in metrics:
            M = shortcut_matrix_dense(pts, delta, m)
            assert M.shape == (len(pts), len(pts)) and M.dtype == bool
            dense.update(M.tobytes())
    return {"instances": drawn.hexdigest(), "margins": margins.hexdigest(),
            "dense": dense.hexdigest()}


# recorded before the verify kernels were restricted to the index triples
# they read; never regenerate these to make a failing run pass
PINNED = {
    ('uniform', 'all'): {
        "instances": "49e12d3af08852fa95818ad67de0f21eddfbf410ed86e71250fe9ee4bae7c24e",
        "margins": "cb5ce61c6a21e0a3c309265f4bdb2ea2da27ffab4b56f836aec42d7d937bb71b",
        "dense": "454d510bb8d2c3b228fe9db242b66e2362412b5c15bf746d9bf9e1a062f88a11"},
    ('uniform', 'l1'): {
        "instances": "49e12d3af08852fa95818ad67de0f21eddfbf410ed86e71250fe9ee4bae7c24e",
        "margins": "46ff6ff4172d81adc081cefcefb92ea5da8c343b4d863bc08d59a6e5248af224",
        "dense": "b62581a66e8a6efd2359d99d669050462f84d0bcdfbe04df46af631dd1d37f9d"},
    ('uniform', 'l2'): {
        "instances": "49e12d3af08852fa95818ad67de0f21eddfbf410ed86e71250fe9ee4bae7c24e",
        "margins": "967d2cb0650bc6a33572631af1b6a7e2ffe364258fd8fa39a51b7cdc4216596e",
        "dense": "25ff1c9729d9751468703b0e1dd04a06c5516d2cf35a23f721333cf1e8a93d97"},
    ('uniform', 'linf'): {
        "instances": "49e12d3af08852fa95818ad67de0f21eddfbf410ed86e71250fe9ee4bae7c24e",
        "margins": "9f8668e26f03d9cfdaac8d9a9546679f6609d0326767af8ae32450144e0caa25",
        "dense": "7651a66b677ce936e4ac6e6a8b548509a7c06ed0aa3b4a6136869f91a4b5eab3"},
    ('walk', 'all'): {
        "instances": "10b1d5a349e34fdcdd1291e8a267baa57736a2059e4ad857d64bfe70c2b0aab7",
        "margins": "0fe9b5369be2b4cbf761394139e610a6b6a6a5a9cf3d8935cb32a2bf87acda64",
        "dense": "e4f5b16e13922440e18b05bad00c0ff1bd4c8b49eaf281cf7078d3cb26ec73c9"},
    ('walk', 'l1'): {
        "instances": "10b1d5a349e34fdcdd1291e8a267baa57736a2059e4ad857d64bfe70c2b0aab7",
        "margins": "ecd0d07fb0834c64b7d3a2a9e808fbb2f5ac8d3bd3bed94ea0ed44f4c3e4b3cd",
        "dense": "a8bd6c888a2e67afa7ba9244ec905747f3f0b1be2fa18c62b5d54ee1b17bd351"},
    ('walk', 'l2'): {
        "instances": "10b1d5a349e34fdcdd1291e8a267baa57736a2059e4ad857d64bfe70c2b0aab7",
        "margins": "91a3de627d84900c2ab1bb5f50485e076ecd1aa3473ae5cb9bd9029922ce720a",
        "dense": "dee57f0e15020bae07381ab4250459943f3e1e6237bf92cd8f5ea4d5d275043f"},
    ('walk', 'linf'): {
        "instances": "10b1d5a349e34fdcdd1291e8a267baa57736a2059e4ad857d64bfe70c2b0aab7",
        "margins": "5557ae64656c8f7808648aa11a23bdc34e363866ffc2b4e93bd5980548f8f188",
        "dense": "9d6f85e738d67415514c63b790a7fad5a48b7e7635ff2d890878cc894260c06e"},
    ('cluster', 'all'): {
        "instances": "d0a25e41b2b63df07c90173e4da4d1d157d6d92b102248887a6f32bf70e8a796",
        "margins": "faa32e3d3f839fc6fe081399cc64e51f6590964df16242a07fc25c01d1d174c9",
        "dense": "0038f63362191d6ae303f191a2a090340f02c1dd66961f60792c454ca26c0dd2"},
    ('cluster', 'l1'): {
        "instances": "d0a25e41b2b63df07c90173e4da4d1d157d6d92b102248887a6f32bf70e8a796",
        "margins": "653b30c885faaba80847ba5cf15c23a8b9e4c37bcf9b73c0ca106459023aa1f5",
        "dense": "ddbb9e06e61abd78cb017a4b79b6e8f52453825961a2f36d2649e245676c3ff0"},
    ('cluster', 'l2'): {
        "instances": "d5c0aa23f95e3ea4d0fc5498ab92beb67630b69e0d82e539745cdbef5e556ff7",
        "margins": "17af4f42fa7d8a9eb1c9002a1af6294a116e43c682e9fd176f9ef321e655967f",
        "dense": "982389c1c87f0f3c66616b6cbd5a37526960589415ca43070c63bd36d6c82d2e"},
    ('cluster', 'linf'): {
        "instances": "d5c0aa23f95e3ea4d0fc5498ab92beb67630b69e0d82e539745cdbef5e556ff7",
        "margins": "3007fe60575d76c55aba840390027980494b4aa0d35205b3315f41f8fef618bc",
        "dense": "c3e496d24d1e09dc8b2f7441ea0f65a726c7a9e2310e5ecb2f30f8aa1d5e0d54"},
    # 100 instances of up to 45 vertices (count=100, max_n=45), where most
    # columns of the dense oracle's packed grid hold two shortcuts; recorded
    # from the (j, shortcut) grid the packed one replaced
    ('walk', 45, 'all'): {
        "instances": "cbe80b8d2fd24647436c08b388a4b4dbc90174eb174e7b5d47a36975d0cccde5",
        "margins": "b0baca9fdaa69435238ba38b66432556f1b9e380f8b8e080de80918fb82ecc51",
        "dense": "e4d5ddb7adf7654bb4a7e374a94266e6b226cd1d99ce68046077f80839ee8a22"},
    ('walk', 45, 'l1'): {
        "instances": "cbe80b8d2fd24647436c08b388a4b4dbc90174eb174e7b5d47a36975d0cccde5",
        "margins": "b051cfcd7d991c196d44cddac73968f2964fbe953b0b1dbbded20483b9068635",
        "dense": "e85b56c1f65392207397a901230afdd3f008f6986724aea8b57068772653355b"},
    ('walk', 45, 'l2'): {
        "instances": "cbe80b8d2fd24647436c08b388a4b4dbc90174eb174e7b5d47a36975d0cccde5",
        "margins": "c0b1d8e59dfcd76a7014b64a6e6f06dfd97b7cc98f5ea0c71d3248f36361af2f",
        "dense": "690366a590b2e22de23f1dce5bf4da1013bb6d095549db5fec1b718c595ec022"},
    ('walk', 45, 'linf'): {
        "instances": "cbe80b8d2fd24647436c08b388a4b4dbc90174eb174e7b5d47a36975d0cccde5",
        "margins": "16b2d37047225a9fa710c1e4518d10f36293055515d149952b0a7388bc6afadd",
        "dense": "84b755ab41c5a4be6cb389026e960d28197ac7b9856f79b22972f8d260962fba"},
    ('cluster', 45, 'all'): {
        "instances": "436e84ca5d62c74bf2719ce33ec3cd5d2c032970d62bdeaa011dfd9913c35fb7",
        "margins": "c03d6ef9710997976d479f1d712c873d57655055002b5a1648b0c1dd35fda6cd",
        "dense": "35570c63eb54ab9e4c47b730e75ae5ccfff0a09346fd39475f0466c768019a3e"},
    ('cluster', 45, 'l1'): {
        "instances": "c9a8e3210ef66f05cd3af49b3983f85bce602b824c86bb1df149fc4d0be4d061",
        "margins": "e3c80b6da6b8acba3a5f3f1a496851e5ad829684393f15398d47c9726f237b7b",
        "dense": "64f03129ff44550ec665e202c135050cf31affe02dc25ba031d81aa6590fde0a"},
    ('cluster', 45, 'l2'): {
        "instances": "41c220320c5bf563e95686cce11aa945221749b25daba8695b267ff160884c7a",
        "margins": "501302dc5f8220fbefa0427b0334ed4537e472bcbedbeabbe2803896fc47b5b4",
        "dense": "897f2f2e2d5f658692cd52eef2b32e7e2f6ad2f32deec82ff1a38f77755ae542"},
    ('cluster', 45, 'linf'): {
        "instances": "45d2abf4eb0a4a555cbc2483d137245f91add9482f66078ff4d2667fa9d83667",
        "margins": "9300d9027dd130c2a04e5050c9a97b2610a0a6f1cac3554ed488358a3adf5e4f",
        "dense": "f76cf978101bcd53a63201d3094ea02c80caebc284ef7a1a8c07c38f1090704e"},
}


@pytest.mark.parametrize("metrics", sorted(METRIC_SETS))
@pytest.mark.parametrize("style", ["uniform", "walk", "cluster"])
def test_verify_corpus_is_pinned(style, metrics):
    assert corpus_digests(style, METRIC_SETS[metrics]) == PINNED[(style, metrics)]


@pytest.mark.parametrize("metrics", sorted(METRIC_SETS))
@pytest.mark.parametrize("style", ["walk", "cluster"])
def test_long_verify_corpus_is_pinned(style, metrics):
    assert (corpus_digests(style, METRIC_SETS[metrics], count=100, max_n=45)
            == PINNED[(style, 45, metrics)])
