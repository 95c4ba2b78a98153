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
