"""Round-boundary checkpoints: replay resumes byte-identically.

The engines never serialize bootstrap state — a checkpoint is just
``{"rounds_completed", "loss_events"}`` and recovery re-runs a fresh,
identically-constructed engine, re-fires recorded losses at their
boundaries, and discards already-emitted snapshots.  These tests pin
the contract the durable service's recovery path is built on: for
every engine, *interrupt + restore* produces the same snapshot
dictionaries as one uninterrupted run, loss events included.  The
three entry points share one implementation, so one contract class is
instantiated per entry point.
"""

import numpy as np
import pytest

from repro.core import (
    CategoricalEarlSession,
    DependentEarlSession,
    EarlConfig,
    EarlSession,
)
from repro.core.checkpoint import (
    CheckpointReplayError,
    checkpoint_doc,
    loss_event,
    replay_stream,
)
from repro.core.grouped import GroupedEarlSession, Measure
from repro.streaming import SessionManager
from repro.workloads import ar1_series

DATA = np.random.default_rng(0).lognormal(0, 1, 200_000)
KEYS = np.array([i % 3 for i in range(200_000)])
COINS = DATA > 1.5
SERIES = ar1_series(40_000, phi=0.85, seed=4)


class TestCheckpointDoc:
    def test_loss_event_shape(self):
        event = loss_event(3, 0.25, 99)
        assert event == {"at": 3, "fraction": 0.25, "seed": 99}
        with_keys = loss_event(0, 0.5, 1, keys=[2, 0])
        assert with_keys["keys"] == [0, 2]   # sorted, JSON-stable

    def test_checkpoint_doc_copies_events(self):
        events = [loss_event(1, 0.3, 7)]
        doc = checkpoint_doc(4, events)
        assert doc == {"rounds_completed": 4, "loss_events": events}
        assert doc["loss_events"][0] is not events[0]

    def test_negative_rounds_rejected(self):
        class Stub:
            def stream(self):
                return iter(())

        with pytest.raises(ValueError):
            list(replay_stream(Stub(), {"rounds_completed": -1}))


class _CheckpointContract:
    """The one checkpoint/restore contract, run against every in-memory
    entry point (all three share ``repro.core.engine.LossRecovery``).
    A subclass says how to ``build()`` its engine from ``CONFIG`` and
    which ``report_loss`` arguments to inject; streams are compared as
    ``to_dict()`` items, tagged with the query name where the stream
    yields ``(handle, snapshot)`` pairs."""

    # A tiny sigma alone triggers the exact-computation fallback (one
    # snapshot, nothing to interrupt); the override knobs force
    # genuinely multi-round streams instead.
    CONFIG = EarlConfig(sigma=0.01, seed=3, B_override=15, n_override=100,
                        expansion_factor=1.6, max_iterations=12)
    LOSS = {"fraction": 0.25, "seed": 11}
    LOSS_AT = 1          # stream index after which the loss is reported
    INTERRUPT_AFTER = 3  # ... and after which the live run is killed

    def build(self):
        raise NotImplementedError

    @staticmethod
    def _plain(item):
        if isinstance(item, tuple):
            return (item[0].name, item[1].to_dict())
        return item.to_dict()

    def _drive(self, engine, *, interrupt=False):
        out = []
        stream = engine.stream()
        for i, item in enumerate(stream):
            out.append(self._plain(item))
            if i == self.LOSS_AT:
                engine.report_loss(**self.LOSS)
            if interrupt and i == self.INTERRUPT_AFTER:
                break
        stream.close()
        return out

    def test_resume_is_byte_identical_with_losses(self):
        reference = self._drive(self.build())
        # the loss path and a real resume must both be exercised
        assert len(reference) > self.INTERRUPT_AFTER + 1

        live = self.build()
        pre = self._drive(live, interrupt=True)
        ckpt = live.checkpoint()
        assert ckpt["rounds_completed"] == self.INTERRUPT_AFTER + 1
        # the loss lands on the boundary right after the item it
        # followed (every case reports it on a round's last item)
        assert ckpt["loss_events"] == [
            {"at": self.LOSS_AT + 1, **self.LOSS}]

        post = [self._plain(item) for item in self.build().restore(ckpt)]
        assert pre + post == reference

    def test_checkpoint_is_json_safe(self):
        import json

        live = self.build()
        self._drive(live, interrupt=True)
        doc = json.loads(json.dumps(live.checkpoint()))
        assert list(self.build().restore(doc))   # replays from JSON

    def test_checkpoint_of_fresh_session_is_empty(self):
        assert self.build().checkpoint() == {"rounds_completed": 0,
                                             "loss_events": []}

    def test_restore_refuses_streamed_session(self):
        engine = self.build()
        next(engine.stream())
        with pytest.raises(RuntimeError):
            engine.restore({"rounds_completed": 0, "loss_events": []})

    def test_replay_divergence_raises(self):
        live = self.build()
        done = len(self._drive(live))
        # The fresh engine's stream dries up long before this round.
        with pytest.raises(CheckpointReplayError):
            list(self.build().restore({"rounds_completed": done + 50,
                                       "loss_events": []}))


class TestEarlSessionCheckpoint(_CheckpointContract):
    def build(self):
        return EarlSession(DATA, "mean", config=self.CONFIG)


class TestSessionManagerCheckpoint(_CheckpointContract):
    def build(self):
        mgr = SessionManager(DATA, config=self.CONFIG)
        mgr.submit("mean")
        mgr.submit("p90")
        return mgr


class TestGroupedSessionCheckpoint(_CheckpointContract):
    LOSS = {"fraction": 0.25, "keys": [0, 2], "seed": 11}

    def build(self):
        return GroupedEarlSession(KEYS, [Measure("m", "mean", DATA)],
                                  config=self.CONFIG)


class TestCategoricalSessionCheckpoint(_CheckpointContract):
    def build(self):
        return CategoricalEarlSession(COINS, config=self.CONFIG)


class TestDependentSessionCheckpoint(_CheckpointContract):
    # The mean of an AR(1) around 100 meets σ = 0.01 at once; a tight
    # bound keeps the blocks growing.
    CONFIG = EarlConfig(sigma=1e-4, seed=3, B_override=15, n_override=100,
                        expansion_factor=1.6, max_iterations=12)

    def build(self):
        return DependentEarlSession(SERIES, "mean", config=self.CONFIG)


# SSABE runs here (B is its pick), so the replay also has to reproduce
# the pilot/SSABE draws that precede the first round.  Both cases pin
# the first sample size only: whatever n the pilot would choose — a
# group's can land on the §3.1 cliff and answer exactly at set-up — the
# stream must have rounds left to lose rows in and to interrupt.
class TestEarlSessionSsabeCheckpoint(TestEarlSessionCheckpoint):
    CONFIG = EarlConfig(sigma=0.015, seed=7, n_override=500)
    LOSS = {"fraction": 0.3, "seed": 99}
    LOSS_AT = 0
    INTERRUPT_AFTER = 1


class TestGroupedSessionSsabeCheckpoint(TestGroupedSessionCheckpoint):
    CONFIG = EarlConfig(sigma=0.02, seed=3, n_override=500)
    LOSS_AT = 0
    INTERRUPT_AFTER = 1
