"""What crossed the worker pipes is visible in the system: the process
backend's message/byte counts publish as metrics and ride the
``executor.wave`` span — and publishing them changes no result."""

import numpy as np
import pytest

from repro.core import EarlConfig
from repro.exec import get_executor
from repro.obs import REGISTRY, TRACER, enable_telemetry
from repro.streaming import SessionManager

BYTES = "repro_executor_pipe_bytes_total"
MESSAGES = "repro_executor_pipe_messages_total"


@pytest.fixture(autouse=True)
def _no_env_override(monkeypatch):
    monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
    monkeypatch.delenv("REPRO_MAX_WORKERS", raising=False)


def _square(x):
    return x * x


def _two_waves():
    with get_executor("processes", max_workers=2) as ex:
        ex.map(_square, range(10))
        ex.map(_square, range(10), place=[1] * 10)    # one worker only
        return dict(ex.pipe_bytes), dict(ex.pipe_messages)


def test_counters_publish_per_direction_and_ride_the_wave_span():
    enable_telemetry()
    crossed, messages = _two_waves()
    assert messages == {"out": 3, "back": 3}
    for direction in ("out", "back"):
        labels = {"direction": direction}
        assert REGISTRY.value(BYTES, labels) == crossed[direction] > 0
        assert REGISTRY.value(MESSAGES, labels) == messages[direction]
    waves = [s for s in TRACER.spans() if s.name == "executor.wave"]
    assert [w.attrs["pipe_messages_out"] for w in waves] == [2, 1]
    assert [w.attrs["pipe_messages_back"] for w in waves] == [2, 1]
    for direction in ("out", "back"):
        assert sum(w.attrs[f"pipe_bytes_{direction}"]
                   for w in waves) == crossed[direction]


def test_disabled_telemetry_publishes_nothing_but_the_executor_counts():
    crossed, messages = _two_waves()
    assert crossed["out"] > 0 and messages == {"out": 3, "back": 3}
    for direction in ("out", "back"):
        assert REGISTRY.value(BYTES, {"direction": direction}) == 0
        assert REGISTRY.value(MESSAGES, {"direction": direction}) == 0
    assert TRACER.spans() == []


def test_a_run_on_the_pool_moves_estimates_not_stages():
    """Four rounds of three queries: the replies are estimates only
    (a few hundred bytes each), however large the stages have grown."""
    enable_telemetry()
    data = np.random.default_rng(3).lognormal(0.0, 1.0, 150_000)
    manager = SessionManager(data, config=EarlConfig(
        sigma=0.015, seed=5, B_override=20, n_override=2_000,
        executor="processes", max_workers=2))
    for statistic in ("mean", "median", "std"):
        manager.submit(statistic)
    events = list(manager.stream())
    offers = sum(len(q.iterations) for q in manager.queries)
    assert offers > 6 and len(events) == offers
    back = REGISTRY.value(BYTES, {"direction": "back"})
    assert 0 < back < 600 * offers
    # ... and each stage went out once, fresh (about 1 KB), not B x n
    # floats (320 KB at the first round alone) every round.
    assert REGISTRY.value(BYTES, {"direction": "out"}) < 4_000 * offers
    rounds = max(len(q.iterations) for q in manager.queries)
    assert REGISTRY.value(MESSAGES, {"direction": "out"}) <= 2 * rounds


def test_flipping_telemetry_changes_no_result_byte():
    data = np.random.default_rng(4).lognormal(0.0, 1.0, 60_000)

    def run():
        manager = SessionManager(data, config=EarlConfig(
            sigma=0.03, seed=9, B_override=20, n_override=500,
            executor="processes", max_workers=2))
        manager.submit("mean")
        manager.submit("median")
        return [(q.name, snap.to_dict()) for q, snap in manager.stream()]

    quiet = run()
    enable_telemetry()
    assert run() == quiet
