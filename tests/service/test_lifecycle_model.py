"""The session lifecycle, model-checked step by step.

A Hypothesis state machine drives one in-memory service on a fake clock
through random interleavings of submit, ``poll(after=)``, cancel,
``flush`` and clock advance plus TTL sweep, while the runner threads
stream real engine snapshots.  After every step it checks what the
lifecycle promises each client:

* event ids are contiguous from 1, and a re-read returns the same bytes;
* a terminal session has exactly one terminal ``state`` event, the last
  one in its stream; a live session has none;
* the ack floor never moves down;
* a session leaves the store only once ``linger_seconds`` have passed
  since the client last touched it.

Polls never long-poll, so no coroutine holds a log's lock across a
suspension: a transition runs within one step of the loop, and a check
that reads in one step sees it either whole or not at all.
"""

import asyncio
import threading
import time

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant,
                                 precondition, rule)

from repro.core import EarlConfig
from repro.service import (
    ERR_RESUME_GAP,
    ERR_UNKNOWN_SESSION,
    EVENT_STATE,
    TERMINAL_STATES,
    ApproxQueryService,
)
from repro.service.protocol import Event

CFG = dict(sigma=0.2, B_override=10, n_override=100,
           expansion_factor=1.5, max_iterations=5)
POP = np.random.default_rng(11).lognormal(1.0, 0.5, 4000)
TTL, LINGER = 20.0, 30.0


class FakeClock:
    def __init__(self) -> None:
        self.value = 0.0

    def __call__(self) -> float:
        return self.value


class LifecycleModel(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        # The loop runs on its own thread, as in a server: runner threads
        # publish while the rules and checks wait on it.
        self.loop = asyncio.new_event_loop()
        self.loop_thread = threading.Thread(target=self.loop.run_forever,
                                            daemon=True)
        self.loop_thread.start()
        self.clock = FakeClock()
        # Dispatch and sweeps happen only when a rule asks for them.
        self.service = ApproxQueryService(
            config=EarlConfig(**CFG), seed=5, event_capacity=2,
            batch_window=3600.0, sweep_interval=3600.0,
            ttl_seconds=TTL, linger_seconds=LINGER, clock=self.clock)
        self.service.register_dataset("pop", POP)
        self.run(self.service.start())
        self.seen = {}      # session -> events read so far, in id order
        self.floor = {}     # session -> ack floor at the last check
        self.touched = {}   # session -> clock at the client's last touch

    def run(self, coro):
        return asyncio.run_coroutine_threadsafe(coro, self.loop).result(30)

    def request(self, op, **fields):
        response = self.run(self.service.handle({"op": op, **fields}))
        if ("session" in fields
                and response.get("error") != ERR_UNKNOWN_SESSION):
            self.touched[fields["session"]] = self.clock()
        return response

    def teardown(self):
        try:
            self.run(self.service.stop())
            assert all(rec.terminal for rec in self.service.store.records())
            self.lifecycle_holds()
        finally:
            self.loop.call_soon_threadsafe(self.loop.stop)
            self.loop_thread.join(timeout=30)
            self.loop.close()

    # ---------------------------------------------------------------- rules
    # What a rule draws depends only on earlier rules, never on how far
    # the runner threads got: Hypothesis replays a run from its draws.
    @precondition(lambda self: len(self.seen) < 4)
    @rule(sigma=st.sampled_from([None, 0.001]),
          deadline=st.sampled_from([None, 5.0]), dispatch=st.booleans())
    def submit(self, sigma, deadline, dispatch):
        spec = {"kind": "statistic", "dataset": "pop", "statistic": "mean",
                "sigma": sigma, "deadline_seconds": deadline}
        response = self.request("submit", spec=spec)
        assert response["ok"], response
        sid = response["session"]
        self.seen[sid], self.floor[sid] = [], 0
        self.touched[sid] = self.clock()
        if dispatch:
            self.flush()

    @precondition(lambda self: self.seen)
    @rule(data=st.data(), back=st.sampled_from([0, 0, 0, 1, 2]))
    def poll(self, data, back):
        """Poll from ``back`` events before the last one read, so the
        model sees every event; below the ack floor is a resume gap."""
        sid = data.draw(st.sampled_from(sorted(self.seen)))
        rec, seen = self.service.store.get(sid), self.seen[sid]
        after = max(0, len(seen) - back)
        response = self.request("poll", session=sid, after=after)
        if rec is None:
            assert response["error"] == ERR_UNKNOWN_SESSION
            return
        if after < rec.log.acked:
            assert response["error"] == ERR_RESUME_GAP
            return
        assert response["ok"], response
        events = [Event.from_raw(raw) for raw in response["events"]]
        assert [e.seq for e in events] == list(
            range(after + 1, after + 1 + len(events)))
        for event in events:
            if event.seq <= len(seen):
                assert event.raw == seen[event.seq - 1].raw
            else:
                seen.append(event)

    @precondition(lambda self: self.seen)
    @rule(data=st.data())
    def cancel(self, data):
        sid = data.draw(st.sampled_from(sorted(self.seen)))
        response = self.request("cancel", session=sid)
        assert response["ok"] or response["error"] == ERR_UNKNOWN_SESSION

    @rule()
    def flush(self):
        self.run(self.service.flush())

    @rule(seconds=st.sampled_from([0.0, 1.0, 3.0, 25.0]))
    def advance_and_sweep(self, seconds):
        self.clock.value += seconds
        self.run(self.service.sweep())

    @rule()
    def let_runners_publish(self):
        time.sleep(0.005)

    # ------------------------------------------------------------ invariant
    async def _observe(self):
        """Every session's state, ack floor and retained events, read in
        one step of the loop (no await here suspends), so no runner
        append lands in between."""
        observed = {}
        for sid in self.seen:
            rec = self.service.store.get(sid)
            if rec is not None:
                retained = await rec.log.read(rec.log.acked)  # acks nothing
                observed[sid] = (rec.terminal, rec.log.acked,
                                 rec.log.last_seq, retained)
        return observed

    @invariant()
    def lifecycle_holds(self):
        now = self.clock()
        observed = self.run(self._observe())
        for sid, seen in self.seen.items():
            if sid not in observed:
                assert now - self.touched[sid] >= LINGER, sid
                continue
            terminal, acked, last_seq, retained = observed[sid]
            assert acked >= self.floor[sid], sid
            self.floor[sid] = acked
            for event in retained[:len(seen) - acked]:
                assert event.raw == seen[event.seq - 1].raw, sid
            stream = seen[:acked] + retained
            assert [e.seq for e in stream] == list(range(1, last_seq + 1)), \
                sid
            ends = [i for i, e in enumerate(stream)
                    if e.type == EVENT_STATE
                    and e.payload["state"] in TERMINAL_STATES]
            assert ends == ([len(stream) - 1] if terminal else []), \
                (sid, [e.raw for e in stream])


LifecycleModel.TestCase.settings = settings(
    max_examples=40, stateful_step_count=40, deadline=None)
TestLifecycleModel = LifecycleModel.TestCase
