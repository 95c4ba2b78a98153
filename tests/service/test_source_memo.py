"""What a registration derives from its data is derived once.

A durable service fingerprints a spec's source at submit time (so a
restart never replays against changed data) and every grouped query
factorizes its ``group_by`` column.  Both depend on the registered data
alone, so they are computed on first use and kept until the name is
registered again — with the same bytes the per-submit computation
journaled.
"""

import asyncio
import hashlib

import numpy as np

import repro.service.service as service_module
from repro.core import EarlConfig
from repro.service import ApproxQueryService, DurableSessionStore, LocalClient

STAT = {"kind": "statistic", "dataset": "pop", "statistic": "mean"}
QUERY = {"kind": "query", "table": "orders", "group_by": "region",
         "select": [{"statistic": "mean", "column": "amount"}]}


def _population(seed=0):
    return np.random.default_rng(seed).lognormal(1.0, 0.5, 20_000)


def _orders(seed=3):
    rng = np.random.default_rng(seed)
    return {"region": np.repeat(["east", "west"], 3000),
            "amount": rng.exponential(40.0, 6000)}


def _digest_of(*arrays_by_name):
    """The digest exactly as every submit used to compute it."""
    digest = hashlib.sha256()
    for name, values in arrays_by_name:
        if name is not None:
            digest.update(name.encode())
        arr = np.asarray(values)
        digest.update(str(arr.dtype).encode())
        digest.update(repr(arr.shape).encode())
        digest.update(arr.tobytes())
    return digest.hexdigest()


def _run(tmp_path, monkeypatch, scenario):
    hashed = []
    real = service_module._digest_array
    monkeypatch.setattr(
        service_module, "_digest_array",
        lambda digest, values: hashed.append(1) or real(digest, values))

    async def main():
        service = ApproxQueryService(
            config=EarlConfig(sigma=0.05, B_override=15, n_override=200),
            seed=7, batch_window=5.0,
            store=DurableSessionStore(str(tmp_path / "wal"), fsync=False))
        service.register_dataset("pop", _population())
        service.register_table("orders", _orders())
        await service.start()
        try:
            return await scenario(service, LocalClient(service), hashed)
        finally:
            await service.stop()
    return asyncio.run(asyncio.wait_for(main(), 60.0))


def _fingerprints(service, sids):
    return [service.store.get(sid).fingerprint for sid in sids]


def test_fingerprint_hashed_once_per_registration_same_bytes(
        tmp_path, monkeypatch):
    async def scenario(service, client, hashed):
        assert hashed == []                                   # lazy
        sids = [await client.submit(STAT) for _ in range(4)]
        assert len(hashed) == 1
        assert set(_fingerprints(service, sids)) == {
            _digest_of((None, _population()))}
        qids = [await client.submit(QUERY) for _ in range(2)]
        assert len(hashed) == 1 + 2                           # two columns
        orders = _orders()
        assert set(_fingerprints(service, qids)) == {_digest_of(
            ("amount", orders["amount"]), ("region", orders["region"]))}
    _run(tmp_path, monkeypatch, scenario)


def test_registering_the_name_again_drops_what_was_derived(
        tmp_path, monkeypatch):
    async def scenario(service, client, hashed):
        (before,) = _fingerprints(service, [await client.submit(STAT)])
        (q_before,) = _fingerprints(service, [await client.submit(QUERY)])
        strata = service._tables["orders"].data.factorization("region")
        assert service._tables["orders"].data.factorization("region") is strata

        service.register_dataset("pop", _population(seed=1))
        service.register_table("orders", _orders(seed=4))
        (after,) = _fingerprints(service, [await client.submit(STAT)])
        (q_after,) = _fingerprints(service, [await client.submit(QUERY)])
        assert after == _digest_of((None, _population(seed=1))) != before
        assert q_after != q_before
        assert service._tables["orders"].data.factorization("region") \
            is not strata
    _run(tmp_path, monkeypatch, scenario)


def test_a_strided_column_hashes_as_the_bytes_it_holds():
    wide = np.random.default_rng(5).exponential(40.0, (6000, 3))
    table = {"region": np.repeat(["east", "west"], 3000),
             "amount": wide[:, 1]}          # every third float of `wide`
    assert not table["amount"].flags.c_contiguous
    service = ApproxQueryService(seed=7)
    service.register_table("orders", table)
    spec = service_module.parse_spec(QUERY)
    assert service._fingerprint(spec) == _digest_of(
        ("amount", table["amount"]), ("region", table["region"]))


# ------------------------------------------------------------ job sources

JOB = {"kind": "job", "cluster": "sim", "path": "/data/values",
       "statistic": "mean"}
#: Never-met bound: a job that iterates (and can be crashed mid-run).
JOB_CFG = dict(sigma=0.001, B_override=15, n_override=200,
               expansion_factor=1.6, max_iterations=6)


def _cluster():
    from repro.cluster import Cluster
    from repro.workloads import load_stand_in

    cluster = Cluster(n_nodes=4, block_size=16 * 1024, replication=2, seed=9)
    load_stand_in(cluster, JOB["path"], logical_gb=2.0, records=6_000,
                  seed=10)
    return cluster


def _job_digest_of(cluster, lines):
    """A job's fingerprint exactly as every submit used to compute it
    (``lines=None``: the file cannot be read in full)."""
    digest = hashlib.sha256()
    if lines is None:
        digest.update(b"<missing>")
    else:
        for line in lines:
            digest.update(str(line).encode())
            digest.update(b"\n")
    digest.update(repr(sorted(node.node_id for node in cluster.nodes
                              if node.alive)).encode())
    return digest.hexdigest()


def _job_service(tmp_path, cluster, **kwargs):
    service = ApproxQueryService(
        config=EarlConfig(**JOB_CFG), seed=7,
        store=DurableSessionStore(str(tmp_path / "wal"), fsync=False),
        **kwargs)
    service.register_cluster("sim", cluster)
    return service


def _count_reads(cluster, monkeypatch):
    reads = []
    real = cluster.hdfs.read_lines
    monkeypatch.setattr(
        cluster.hdfs, "read_lines",
        lambda path, **kw: reads.append(path) or real(path, **kw))
    return reads


def test_job_source_is_read_once_per_file_version_same_bytes(
        tmp_path, monkeypatch):
    cluster = _cluster()
    lines = cluster.hdfs.read_lines(JOB["path"])
    reads = _count_reads(cluster, monkeypatch)
    spec = service_module.parse_spec(JOB)

    async def scenario():
        service = _job_service(tmp_path, cluster)
        await service.start()
        try:
            client = LocalClient(service)
            sids = [await client.submit(JOB) for _ in range(5)]
            for sid in sids:
                await client.cancel(sid)
            return service, _fingerprints(service, sids)
        finally:
            await service.stop()

    service, prints = asyncio.run(asyncio.wait_for(scenario(), 60.0))
    assert reads == [JOB["path"]]
    assert set(prints) == {_job_digest_of(cluster, lines)}

    # A rewrite is a new file version: read again, once, new bytes.
    other = [f"{i}.5" for i in range(300)]
    cluster.hdfs.write_lines(JOB["path"], other, overwrite=True)
    assert service._fingerprint(spec) == service._fingerprint(spec) \
        == _job_digest_of(cluster, other) != prints[0]
    assert len(reads) == 2
    # An empty file hashes no line at all.
    cluster.hdfs.write_lines(JOB["path"], [], overwrite=True)
    assert service._fingerprint(spec) == _job_digest_of(cluster, [])
    # Deleted: nothing to read, and nothing stale served.
    cluster.hdfs.delete(JOB["path"])
    assert service._fingerprint(spec) == _job_digest_of(cluster, None)


def test_job_fingerprint_follows_node_failures(tmp_path, monkeypatch):
    cluster = _cluster()
    lines = cluster.hdfs.read_lines(JOB["path"])
    service = _job_service(tmp_path, cluster)
    spec = service_module.parse_spec(JOB)
    healthy = service._fingerprint(spec)
    assert healthy == _job_digest_of(cluster, lines)
    reads = _count_reads(cluster, monkeypatch)

    # One node down, every block still has a replica: same content
    # (served from the memo), another live set.
    cluster.fail_node("node-0")
    assert cluster.hdfs.available_fraction(JOB["path"]) == 1.0
    one_down = service._fingerprint(spec)
    assert one_down == _job_digest_of(cluster, lines) != healthy
    assert reads == []
    # Blocks lost: the file cannot be read in full, whatever is cached.
    cluster.fail_node("node-1")
    cluster.fail_node("node-2")
    assert cluster.hdfs.available_fraction(JOB["path"]) < 1.0
    assert service._fingerprint(spec) == _job_digest_of(cluster, None)
    # Back up: the same file version, the same digest as before.
    for node_id in ("node-0", "node-1", "node-2"):
        cluster.recover_node(node_id)
    assert service._fingerprint(spec) == healthy
    service.store.close()


def test_restarted_service_replays_a_job_against_the_memoized_source(
        tmp_path):
    async def drain(client, sid, after, collected):
        while True:
            page = await client.poll(sid, after=after, wait=True,
                                     timeout=5.0)
            for event in page.events:
                collected.append(event.raw)
                after = event.seq
            if not page.events and page.terminal:
                return

    async def reference():
        service = _job_service(tmp_path / "ref", _cluster(),
                               event_capacity=4)
        await service.start()
        try:
            client = LocalClient(service)
            sid = await client.submit(JOB)
            collected = []
            await drain(client, sid, 0, collected)
            return sid, collected
        finally:
            await service.stop()

    async def crashed_and_resumed():
        cluster = _cluster()            # outlives both generations
        service = _job_service(tmp_path / "live", cluster,
                               event_capacity=4)
        await service.start()
        client = LocalClient(service)
        sid = await client.submit(JOB)
        collected, after = [], 0
        while len(collected) < 3:
            page = await client.poll(sid, after=after, wait=True,
                                     timeout=5.0)
            for event in page.events:
                collected.append(event.raw)
                after = event.seq
        await service.crash()

        assert cluster.hdfs.split_cache.content_digest(
            cluster.hdfs, JOB["path"]) is not None
        restarted = _job_service(tmp_path / "live", cluster,
                                 event_capacity=4)
        await restarted.start()
        try:
            await drain(LocalClient(restarted), sid, after, collected)
        finally:
            await restarted.stop()
        return sid, collected

    async def both():
        return await reference(), await crashed_and_resumed()

    (ref_sid, expected), (sid, collected) = asyncio.run(
        asyncio.wait_for(both(), 120.0))
    assert sid == ref_sid and collected == expected
    assert len(collected) > 4 and not any(
        '"degraded":true' in raw for raw in collected)
