"""End-to-end service behaviour over the in-process client: lifecycle,
shared-pilot batching, determinism, cancellation, TTL expiry,
backpressure bounds, the TCP transport, and error responses.

The tests are synchronous pytest functions that own an event loop via
``asyncio.run`` — no async test plugin is needed (or available)."""

import asyncio

import numpy as np
import pytest

from repro.core import EarlConfig
from repro.service import (
    ERR_BAD_REQUEST,
    ERR_BAD_SPEC,
    ERR_RESUME_GAP,
    ERR_UNKNOWN_OP,
    ERR_UNKNOWN_SESSION,
    EVENT_FINAL,
    EVENT_SNAPSHOT,
    EVENT_STATE,
    STATE_CANCELLED,
    STATE_DONE,
    STATE_EXPIRED,
    STATE_PENDING,
    STATE_RUNNING,
    ApproxQueryService,
    LocalClient,
    ServiceClient,
    ServiceError,
    ServiceServer,
)

FAST_CFG = dict(sigma=0.2, B_override=10, n_override=100, max_iterations=5)
#: Never-met bound: the session keeps iterating until cancelled/expired.
ENDLESS_CFG = dict(sigma=0.0001, B_override=10, n_override=50,
                   expansion_factor=1.5, max_iterations=50)


def population(seed=0, size=20_000):
    return np.random.default_rng(seed).lognormal(1.0, 0.5, size)


def make_service(config=None, **kwargs):
    # A long batch window makes batching flush()-driven: every test
    # controls exactly which submissions share a dispatch (and thus a
    # pilot), independent of transport timing.
    service = ApproxQueryService(
        config=config or EarlConfig(**FAST_CFG), seed=1234,
        batch_window=5.0, **kwargs)
    service.register_dataset("pop", population())
    return service


def run(coro):
    return asyncio.run(coro)


async def with_service(body, config=None, **kwargs):
    service = make_service(config, **kwargs)
    await service.start()
    try:
        return await body(service, LocalClient(service))
    finally:
        await service.stop()


def assert_contiguous(events):
    assert [e.seq for e in events] == list(range(1, len(events) + 1))


class TestStatisticLifecycle:
    def test_full_lifecycle_event_shape(self):
        async def body(service, client):
            sid = await client.submit({"kind": "statistic", "dataset": "pop",
                                       "statistic": "mean"})
            await service.flush()
            return sid, await client.drain(sid), await client.status(sid)

        sid, events, status = run(with_service(body))
        assert sid == "s000001"
        assert_contiguous(events)
        types = [e.type for e in events]
        assert types[0] == EVENT_STATE
        assert events[0].payload == {"state": STATE_PENDING}
        assert types[1] == EVENT_STATE
        assert events[1].payload == {"state": STATE_RUNNING}
        assert types[-1] == EVENT_STATE
        assert events[-1].payload == {"state": STATE_DONE}
        assert types[-2] == EVENT_FINAL
        assert all(t == EVENT_SNAPSHOT for t in types[2:-2])
        final = events[-2].payload
        assert final["final"] is True
        assert final["statistic"] == "mean"
        assert final["estimate"] == pytest.approx(population().mean(),
                                                  rel=0.1)
        assert status["state"] == STATE_DONE

    def test_shared_pilot_batch_runs_one_engine(self):
        async def body(service, client):
            sids = [await client.submit(
                {"kind": "statistic", "dataset": "pop", "statistic": stat})
                for stat in ("mean", "sum", "std", "median")]
            await service.flush()
            streams = [await client.drain(sid) for sid in sids]
            batch_threads = [t.name for t in service._threads
                             if t.name.startswith("svc-batch-")]
            return streams, batch_threads

        streams, batch_threads = run(with_service(body))
        # One dispatch window over one dataset => one runner thread
        # (one SessionManager: one pilot shared by all four sessions).
        assert batch_threads == ["svc-batch-pop"]
        for events in streams:
            assert_contiguous(events)
            assert events[-1].payload == {"state": STATE_DONE}
            assert sum(e.type == EVENT_FINAL for e in events) == 1

    def test_estimates_land_near_truth(self):
        async def body(service, client):
            sids = {stat: await client.submit(
                {"kind": "statistic", "dataset": "pop", "statistic": stat})
                for stat in ("mean", "sum")}
            await service.flush()
            out = {}
            for stat, sid in sids.items():
                events = await client.drain(sid)
                out[stat] = [e for e in events
                             if e.type == EVENT_FINAL][0].payload["estimate"]
            return out

        estimates = run(with_service(body))
        pop = population()
        assert estimates["mean"] == pytest.approx(pop.mean(), rel=0.1)
        assert estimates["sum"] == pytest.approx(pop.sum(), rel=0.1)

    def test_proportion_uses_its_closed_form(self, monkeypatch):
        """A ``proportion`` spec reaches the engine's closed form
        (Appendix A) through the service: no resampling, ``B == 1``,
        whatever B the service config pins."""
        results = []
        publish = ApproxQueryService._publish_snapshot

        def spy(self, rec, snap, **kwargs):
            if snap.final:
                results.append(snap.result)
            return publish(self, rec, snap, **kwargs)

        monkeypatch.setattr(ApproxQueryService, "_publish_snapshot", spy)

        async def body(service, client):
            coins = np.random.default_rng(2).random(20_000) < 0.4
            service.register_dataset("coins", coins.astype(float))
            sid = await client.submit({"kind": "statistic",
                                       "dataset": "coins",
                                       "statistic": "proportion"})
            await service.flush()
            return await client.drain(sid)

        events = run(with_service(body))
        assert events[-1].payload == {"state": STATE_DONE}
        (result,) = results
        assert result.B == 1 and result.statistic == "proportion"
        assert result.estimate == pytest.approx(0.4, abs=0.05)


class TestGroupedQueryLifecycle:
    def test_grouped_session_events(self):
        async def body(service, client):
            rng = np.random.default_rng(3)
            service.register_table("orders", {
                "region": np.repeat(["east", "west"], 3000),
                "amount": rng.exponential(40.0, 6000)})
            sid = await client.submit({
                "kind": "query", "table": "orders", "group_by": "region",
                "select": [{"statistic": "mean", "column": "amount"}]})
            return await client.drain(sid)

        events = run(with_service(body))
        assert_contiguous(events)
        assert events[-1].payload == {"state": STATE_DONE}
        final = [e for e in events if e.type == EVENT_FINAL][0].payload
        assert final["final"] is True
        assert set(final["groups"]) == {"east", "west"}
        for group in final["groups"].values():
            (entry,) = group.values()
            assert entry["statistic"] == "mean"
            assert entry["estimate"] > 0

    def test_unknown_column_rejected_at_submit(self):
        async def body(service, client):
            service.register_table("t", {"v": np.arange(100.0)})
            with pytest.raises(ServiceError) as err:
                await client.submit({
                    "kind": "query", "table": "t",
                    "select": [{"statistic": "mean", "column": "missing"}]})
            return err.value

        err = run(with_service(body))
        assert err.code == ERR_BAD_SPEC


class TestDeterminism:
    @staticmethod
    async def _run_once(executor="serial"):
        cfg = EarlConfig(executor=executor, **FAST_CFG)
        service = make_service(cfg)
        await service.start()
        try:
            client = LocalClient(service)
            sids = [await client.submit(
                {"kind": "statistic", "dataset": "pop", "statistic": stat})
                for stat in ("mean", "std")]
            await service.flush()
            return [[e.raw for e in await client.drain(sid)]
                    for sid in sids]
        finally:
            await service.stop()

    def test_same_seed_same_submissions_same_bytes(self):
        async def body():
            return await self._run_once(), await self._run_once()

        first, second = run(body())
        assert first == second

    def test_bytes_identical_across_executors(self):
        async def body():
            return (await self._run_once("serial"),
                    await self._run_once("threads"))

        serial, threads = run(body())
        assert serial == threads


class TestCancellation:
    def test_cancel_stops_the_stream(self):
        async def body(service, client):
            sid = await client.submit({"kind": "statistic", "dataset": "pop",
                                       "statistic": "mean"})
            await service.flush()
            # Read (and ack) until the run has produced a snapshot; the
            # tiny event capacity keeps the engine at most a couple of
            # events ahead of us, so the cancel lands mid-run.
            after, saw_snapshot = 0, False
            while not saw_snapshot:
                page = await client.poll(sid, after=after, wait=True,
                                         timeout=5)
                if page.events:
                    after = page.events[-1].seq
                    saw_snapshot = any(e.type == EVENT_SNAPSHOT
                                       for e in page.events)
            response = await client.cancel(sid)
            events = await client.drain(sid, after=after)
            status = await client.status(sid)
            return response, events, status

        response, events, status = run(with_service(
            body, EarlConfig(**ENDLESS_CFG), event_capacity=2))
        assert response["state"] == STATE_CANCELLED
        assert not response["already_terminal"]
        assert status["state"] == STATE_CANCELLED
        # The sealed log ends with the terminal state event.
        assert events[-1].type == EVENT_STATE
        assert events[-1].payload["state"] == STATE_CANCELLED

    def test_cancel_twice_reports_already_terminal(self):
        async def body(service, client):
            sid = await client.submit({"kind": "statistic", "dataset": "pop",
                                       "statistic": "mean"})
            await service.flush()
            await client.cancel(sid)
            return await client.cancel(sid)

        response = run(with_service(body, EarlConfig(**ENDLESS_CFG),
                                    event_capacity=2))
        assert response["already_terminal"]
        assert response["state"] == STATE_CANCELLED

    def test_cancel_before_dispatch_never_runs(self):
        async def body(service, client):
            sid = await client.submit({"kind": "statistic", "dataset": "pop",
                                       "statistic": "mean"})
            await client.cancel(sid)         # still PENDING
            await service.flush()
            events = await client.drain(sid)
            return events

        events = run(with_service(body))
        types = [e.type for e in events]
        assert EVENT_SNAPSHOT not in types and EVENT_FINAL not in types
        assert events[-1].payload["state"] == STATE_CANCELLED


class TestTtlSweeper:
    def test_idle_session_expires_and_then_lingers_out(self):
        clock = {"now": 1000.0}

        async def body(service, client):
            sid = await client.submit({"kind": "statistic", "dataset": "pop",
                                       "statistic": "mean"})
            await service.flush()
            await client.poll(sid, after=0)          # touch at t=1000
            clock["now"] += 20.0                     # ttl=10 exceeded
            await service.sweep()
            status = await client.status(sid)
            events = await client.drain(sid)
            clock["now"] += 200.0                    # linger=60 exceeded
            await service.sweep()
            with pytest.raises(ServiceError) as gone:
                await client.status(sid)
            return status, events, gone.value

        status, events, gone = run(with_service(
            body, EarlConfig(**ENDLESS_CFG), event_capacity=2,
            ttl_seconds=10.0, linger_seconds=60.0, sweep_interval=3600.0,
            clock=lambda: clock["now"]))
        assert status["state"] == STATE_EXPIRED
        assert "idle" in status["error_detail"]
        assert events[-1].payload["state"] == STATE_EXPIRED
        assert gone.code == ERR_UNKNOWN_SESSION

    def test_expired_mid_round_releases_executor_pool(self):
        """EXPIRED with an engine round in flight: the sweeper seals
        the logs and cancels the engines; the window's runner thread
        must unwind and close its worker pools (regression: a sealed
        log blocking the runner used to strand the scheduler's
        executors until interpreter exit)."""
        import gc

        from repro.exec import live_pool_executors

        clock = {"now": 0.0}

        async def body(service, client):
            gc.collect()
            before = set(id(ex) for ex in live_pool_executors())
            sids = [await client.submit({"kind": "statistic",
                                         "dataset": "pop",
                                         "statistic": stat})
                    for stat in ("mean", "median")]
            await service.flush()
            for sid in sids:     # each session mid-run, pool live
                after, saw_snapshot = 0, False
                while not saw_snapshot:
                    page = await client.poll(sid, after=after, wait=True,
                                             timeout=5)
                    if page.events:
                        after = page.events[-1].seq
                        saw_snapshot = any(e.type == EVENT_SNAPSHOT
                                           for e in page.events)
            clock["now"] += 100.0            # ttl=10 exceeded
            await service.sweep()
            loop = asyncio.get_running_loop()
            deadline = loop.time() + 30.0
            while any(t.is_alive() for t in service._threads
                      if t.name.startswith("svc-batch-")):
                assert loop.time() < deadline, "runner thread stuck"
                await asyncio.sleep(0.02)
            gc.collect()
            leaked = [ex for ex in live_pool_executors()
                      if id(ex) not in before]
            return leaked, [await client.status(sid) for sid in sids]

        leaked, statuses = run(with_service(
            body,
            EarlConfig(executor="threads", max_workers=2, **ENDLESS_CFG),
            event_capacity=2, ttl_seconds=10.0, linger_seconds=3600.0,
            sweep_interval=3600.0, clock=lambda: clock["now"]))
        assert leaked == []
        assert all(s["state"] == STATE_EXPIRED for s in statuses)

    def test_expired_mid_round_reaps_process_workers(self):
        """The same expiry on the process backend: the stages live in
        forked workers, and the runner's unwinding must reap them."""
        import multiprocessing

        from repro.exec import live_pool_executors

        clock = {"now": 0.0}
        children = set(multiprocessing.active_children())

        async def body(service, client):
            sids = [await client.submit({"kind": "statistic",
                                         "dataset": "pop",
                                         "statistic": stat})
                    for stat in ("mean", "median")]
            await service.flush()
            for sid in sids:     # each mid-run: the stages are out there
                after, saw_snapshot = 0, False
                while not saw_snapshot:
                    page = await client.poll(sid, after=after, wait=True,
                                             timeout=5)
                    if page.events:
                        after = page.events[-1].seq
                        saw_snapshot = any(e.type == EVENT_SNAPSHOT
                                           for e in page.events)
            forked = set(multiprocessing.active_children()) - children
            clock["now"] += 100.0            # ttl=10 exceeded
            await service.sweep()
            loop = asyncio.get_running_loop()
            deadline = loop.time() + 30.0
            while any(t.is_alive() for t in service._threads
                      if t.name.startswith("svc-batch-")):
                assert loop.time() < deadline, "runner thread stuck"
                await asyncio.sleep(0.02)
            return forked, [await client.status(sid) for sid in sids]

        forked, statuses = run(with_service(
            body,
            EarlConfig(executor="processes", max_workers=2, **ENDLESS_CFG),
            event_capacity=2, ttl_seconds=10.0, linger_seconds=3600.0,
            sweep_interval=3600.0, clock=lambda: clock["now"]))
        assert len(forked) == 2
        assert all(s["state"] == STATE_EXPIRED for s in statuses)
        assert live_pool_executors() == []
        assert set(multiprocessing.active_children()) <= children

    def test_polling_keeps_a_session_alive(self):
        clock = {"now": 0.0}

        async def body(service, client):
            sid = await client.submit({"kind": "statistic", "dataset": "pop",
                                       "statistic": "mean"})
            await service.flush()
            for _ in range(5):
                clock["now"] += 8.0                  # always under ttl=10
                await client.poll(sid, after=0)
                await service.sweep()
            status = await client.status(sid)
            await client.cancel(sid)
            return status

        status = run(with_service(
            body, EarlConfig(**ENDLESS_CFG),
            ttl_seconds=10.0, sweep_interval=3600.0,
            clock=lambda: clock["now"]))
        assert status["state"] not in (STATE_EXPIRED,)


def _exit_in_the_worker(args):
    import os
    os._exit(3)


class TestDeadPoolWorker:
    def test_session_fails_with_exactly_one_error_event(self, monkeypatch):
        """A pool worker that dies mid-round is one clean failure: every
        session of the window ends FAILED with one ``error`` event
        naming the worker, and nothing is left running."""
        import multiprocessing

        from repro.exec import live_pool_executors
        from repro.service import EVENT_ERROR, STATE_FAILED

        children = set(multiprocessing.active_children())
        # Workers are forked with this patch: the first fanned-out
        # round kills both.
        monkeypatch.setattr("repro.core.engine._resident_round",
                            _exit_in_the_worker)

        async def body(service, client):
            sids = [await client.submit({"kind": "statistic",
                                         "dataset": "pop",
                                         "statistic": stat})
                    for stat in ("mean", "median")]
            await service.flush()
            return ([await client.drain(sid) for sid in sids],
                    [await client.status(sid) for sid in sids])

        streams, statuses = run(asyncio.wait_for(with_service(
            body,
            EarlConfig(executor="processes", max_workers=2, **ENDLESS_CFG),
            engine_retries=0), 60.0))
        for events, status in zip(streams, statuses):
            assert status["state"] == STATE_FAILED
            errors = [e for e in events if e.type == EVENT_ERROR]
            assert len(errors) == 1
            assert "process worker" in errors[0].payload["message"]
            assert "died" in status["error_detail"]
            assert events[-1].payload["state"] == STATE_FAILED
        assert live_pool_executors() == []
        assert set(multiprocessing.active_children()) <= children


class TestBackpressure:
    def test_retained_events_stay_bounded_with_slow_reader(self):
        async def body(service, client):
            sid = await client.submit({"kind": "statistic", "dataset": "pop",
                                       "statistic": "mean"})
            await service.flush()
            events, after = [], 0
            while True:
                await asyncio.sleep(0.005)    # a deliberately lazy reader
                page = await client.poll(sid, after=after, wait=True,
                                         timeout=2.0)
                events.extend(page.events)
                if page.events:
                    after = page.events[-1].seq
                elif page.terminal:
                    break
            return events, (await client.stats())["max_retained_events"]

        events, high_water = run(with_service(body, event_capacity=3))
        assert_contiguous(events)
        assert events[-1].payload == {"state": STATE_DONE}
        # capacity + at most the forced terminal state event.
        assert high_water <= 3 + 1


class TestTcpTransport:
    def test_end_to_end_bytes_match_local_client(self):
        async def body():
            local_raw = await TestDeterminism._run_once()

            service = make_service()
            server = ServiceServer(service)
            await service.start()
            await server.start()
            try:
                host, port = server.address
                client = await ServiceClient.connect(host, port)
                assert await client.ping()
                sids = [await client.submit({"kind": "statistic",
                                             "dataset": "pop",
                                             "statistic": stat})
                        for stat in ("mean", "std")]
                await service.flush()
                tcp_raw = [[e.raw for e in await client.drain(sid)]
                           for sid in sids]
                stats = await client.stats()
                await client.close()
                return local_raw, tcp_raw, stats
            finally:
                await server.stop()
                await service.stop()

        local_raw, tcp_raw, stats = run(body())
        assert tcp_raw == local_raw    # canonical bytes survive the wire
        assert stats["sessions"] == 2
        assert stats["datasets"] == ["pop"]

    def test_invalid_json_line_gets_bad_request(self):
        async def body():
            service = make_service()
            server = ServiceServer(service)
            await service.start()
            await server.start()
            try:
                host, port = server.address
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(b"this is not json\n")
                await writer.drain()
                import json
                response = json.loads(await reader.readline())
                writer.close()
                await writer.wait_closed()
                return response
            finally:
                await server.stop()
                await service.stop()

        response = run(body())
        assert response["ok"] is False
        assert response["error"] == ERR_BAD_REQUEST


class TestErrorResponses:
    def test_error_codes(self):
        async def body(service, client):
            codes = {}

            async def code_of(request):
                response = await service.handle(request)
                assert response["ok"] is False
                return response["error"]

            codes["unknown-op"] = await code_of({"op": "teleport"})
            codes["not-object"] = await code_of("poll")
            codes["unknown-session"] = await code_of(
                {"op": "poll", "session": "s999999"})
            codes["bad-session-type"] = await code_of(
                {"op": "poll", "session": 7})
            codes["unknown-dataset"] = await code_of(
                {"op": "submit", "spec": {"kind": "statistic",
                                          "dataset": "nope",
                                          "statistic": "mean"}})
            codes["unknown-table"] = await code_of(
                {"op": "submit", "spec": {
                    "kind": "query", "table": "nope",
                    "select": [{"statistic": "mean", "column": "v"}]}})
            codes["unknown-cluster"] = await code_of(
                {"op": "submit", "spec": {"kind": "job", "cluster": "nope",
                                          "path": "/x"}})
            sid = await client.submit({"kind": "statistic", "dataset": "pop",
                                       "statistic": "mean"})
            await service.flush()
            await client.drain(sid)
            codes["poll-ahead"] = await code_of(
                {"op": "poll", "session": sid, "after": 10_000})
            codes["bool-after"] = await code_of(
                {"op": "poll", "session": sid, "after": True})
            return codes

        codes = run(with_service(body))
        assert codes["unknown-op"] == ERR_UNKNOWN_OP
        assert codes["not-object"] == ERR_BAD_REQUEST
        assert codes["unknown-session"] == ERR_UNKNOWN_SESSION
        assert codes["bad-session-type"] == ERR_BAD_REQUEST
        assert codes["unknown-dataset"] == ERR_BAD_SPEC
        assert codes["unknown-table"] == ERR_BAD_SPEC
        assert codes["unknown-cluster"] == ERR_BAD_SPEC
        assert codes["poll-ahead"] == ERR_BAD_REQUEST
        assert codes["bool-after"] == ERR_BAD_REQUEST

    @pytest.mark.parametrize("timeout, ok", [
        (None, True), (0, True), (2.5, True),
        ("abc", False), (True, False), (float("nan"), False),
        (float("inf"), False), (-1, False), ([1], False)])
    def test_poll_timeout_must_be_null_or_finite_non_negative(self, timeout,
                                                              ok):
        async def body(service, client):
            sid = await client.submit({"kind": "statistic", "dataset": "pop",
                                       "statistic": "mean"})
            return await service.handle(
                {"op": "poll", "session": sid, "timeout": timeout})

        response = run(with_service(body))
        assert response["ok"] is ok
        if not ok:
            assert response["error"] == ERR_BAD_REQUEST

    def test_resume_gap_error_code(self):
        async def body(service, client):
            sid = await client.submit({"kind": "statistic", "dataset": "pop",
                                       "statistic": "mean"})
            await service.flush()
            events = await client.drain(sid)      # acks everything read
            response = await service.handle(
                {"op": "poll", "session": sid, "after": 1})
            return events, response

        events, response = run(with_service(body))
        assert len(events) >= 4
        assert response["ok"] is False
        assert response["error"] == ERR_RESUME_GAP

    def test_requests_rejected_when_not_running(self):
        async def body():
            service = make_service()
            return await service.handle({"op": "ping"})

        response = run(body())
        assert response["ok"] is False
        assert response["error"] == ERR_BAD_REQUEST
