"""The bytes of the ``cluster_job`` stand-in files, pinned by digest.

``benchmarks/e2e`` builds its ``cluster_job`` cluster with
``load_stand_in`` at these record counts and seeds (``build(1)`` and
``build(7)``: the big file at ``seed``, the small one at ``seed + 1``).
A renderer change that moves one byte of them fails here.
"""

import hashlib

import pytest

from repro.cluster import Cluster
from repro.workloads import load_stand_in

#: (records, seed, logical_gb) -> sha256 of the file's bytes.
DIGESTS = {
    (200_000, 1, 50):
        "3b68839e1c1c92a5ac74d7b9e86b76f5243995ee7ee41a043e08a5d4ce3416ea",
    (40_000, 2, 10):
        "56d872ecaf1f7d462c9c9b0064ace8e9272f7bbcb1930ef5b35a4b2158da3904",
    (200_000, 7, 50):
        "eb991974224bc5c9d88e0fa477bf113699867fe94956651dc7b67b6be07fd4e3",
    (40_000, 8, 10):
        "c89b1677a73064fe54ddd9ccf5a6b930cebac71f80be18b97d344ba180646052",
}


@pytest.mark.parametrize("records,seed,logical_gb", sorted(DIGESTS))
def test_cluster_job_stand_in_bytes(records, seed, logical_gb):
    cluster = Cluster(n_nodes=5, block_size=64 * 1024, replication=2,
                      seed=seed)
    ds = load_stand_in(cluster, "/data/f", logical_gb=logical_gb,
                       records=records, seed=seed)
    data = cluster.hdfs.read_bytes("/data/f")
    assert len(data) == ds.actual_bytes == 16 * records
    assert (hashlib.sha256(data).hexdigest()
            == DIGESTS[(records, seed, logical_gb)])
