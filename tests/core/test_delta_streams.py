"""Cross-commit safety net for §4.1 delta maintenance.

``tests/fixtures/delta_streams.json`` pins, for fixed seeded schedules,
what the item-at-a-time reference (``tests/delta_reference.py``)
draws: per resample set the :class:`MaintenanceCounters`, the simulated
seconds charged to the cost ledger, the generator's end state and a
sha256 of every resample's segments (float64 bytes, one length prefix
per segment).  The schedules cover every maintainer that keeps
per-resample segments — naive in memory and over storage, sketched
optimized over storage, and the stock-bootstrap rebuild — for scalar
statistics and for (x, y) row items.  The reference must reproduce
every byte of it, and so must the batched kernel, except the ledger's
float summation order (the reference charges one access at a time).

Record named cases (only new ones, or with ``--rerecord`` when the draw
order is *meant* to change, and say so in the commit):
``PYTHONPATH=src:tests python tests/core/test_delta_streams.py CASE...``
(see ``tests/fixture_record.py``).
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.cluster.costmodel import CostLedger
from repro.core.delta import ResampleSet

from delta_reference import ReferenceResampleSet

FIXTURE = Path(__file__).resolve().parents[1] / "fixtures" / "delta_streams.json"

POPULATION = np.random.default_rng(1).lognormal(3.0, 1.0, 12_000)
_rng = np.random.default_rng(5)
_x = _rng.normal(size=4200)
PAIRS = np.column_stack([_x, 0.6 * _x + _rng.normal(size=4200)])
#: Five deltas, so the last expansions choose among >= 3 stored ones.
BOUNDS = [300, 700, 1500, 2600, 4200]
MODE_STORAGE = [("naive", "resident"), ("naive", "ledger"),
                ("optimized", "ledger")]


def _schedule(statistic, mode, data, bounds, *, B=10, seed=77,
              storage="resident", **kwargs):
    return dict(statistic=statistic, B=B, data=data, bounds=bounds,
                kwargs=dict(maintenance=mode, seed=seed, **kwargs),
                ledger=storage == "ledger")


CASES = {}
for _mode, _storage in MODE_STORAGE:
    for _stat in ("mean", "median", "p90", "std"):
        CASES[f"{_mode}/{_storage}/{_stat}"] = _schedule(
            _stat, _mode, POPULATION, BOUNDS, storage=_storage)
    CASES[f"{_mode}/{_storage}/correlation"] = _schedule(
        "correlation", _mode, PAIRS, BOUNDS, storage=_storage)
for _seed in range(8):
    CASES[f"optimized/ledger/mean/seed{_seed}"] = _schedule(
        "mean", "optimized", POPULATION, BOUNDS, B=6, seed=_seed,
        storage="ledger")
CASES["optimized/ledger/mean/c0.05"] = _schedule(
    "mean", "optimized", POPULATION, BOUNDS, B=8, seed=91,
    storage="ledger", sketch_c=0.05)
for _mode in ("naive", "none"):
    for _stat in ("mean", "median"):
        CASES[f"{_mode}/resident/{_stat}/b12"] = _schedule(
            _stat, _mode, POPULATION, [600, 1400, 2600], B=12, seed=33)


def run_case(case, make_set):
    """Play one schedule on ``make_set(statistic, B, ledger=, **kw)``;
    returns the set and the ledger bound to it (or None)."""
    ledger = CostLedger() if case["ledger"] else None
    rs = make_set(case["statistic"], case["B"], ledger=ledger,
                  **case["kwargs"])
    lo = 0
    for hi in case["bounds"]:
        (rs.expand if lo else rs.initialize)(case["data"][lo:hi])
        lo = hi
    return rs, ledger


def _segments_sha256(resample):
    digest = hashlib.sha256()
    for segment in resample.segments:
        items = np.ascontiguousarray(np.asarray(segment, dtype=np.float64))
        digest.update(np.int64(len(segment)).tobytes())
        digest.update(items.tobytes())
    return digest.hexdigest()


def record(rs, ledger):
    counters = rs.counters
    return {
        "counters": [counters.state_ops, counters.disk_accesses,
                     counters.sketch_draws, counters.full_rebuilds],
        "ledger_seconds": None if ledger is None
        else repr(ledger.total_seconds),
        "rng_state": rs._rng.bit_generator.state,
        "resamples": [_segments_sha256(r) for r in rs._resamples],
    }


@pytest.fixture(scope="module")
def pinned():
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_case(pinned):
    assert sorted(pinned) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_reference_reproduces_the_pinned_stream(pinned, name):
    assert record(*run_case(CASES[name], ReferenceResampleSet)) \
        == pinned[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_batched_kernel_reproduces_the_pinned_stream(pinned, name):
    got = record(*run_case(CASES[name], ResampleSet))
    want = pinned[name]
    if want["ledger_seconds"] is not None:
        assert float(got.pop("ledger_seconds")) == pytest.approx(
            float(want["ledger_seconds"]), rel=1e-9)
        want = {k: v for k, v in want.items() if k != "ledger_seconds"}
    assert got == want


if __name__ == "__main__":
    from fixture_record import record_cases

    raise SystemExit(record_cases(
        FIXTURE, {name: lambda case=case: record(
            *run_case(case, ReferenceResampleSet))
            for name, case in CASES.items()}))
