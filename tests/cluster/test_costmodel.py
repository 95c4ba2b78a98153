"""Tests for the simulated-time cost model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.costmodel import CATEGORIES, CostLedger, CostParameters


class TestCostParameters:
    def test_defaults_valid(self):
        params = CostParameters()
        assert params.disk_bandwidth > 0

    def test_invalid_bandwidth(self):
        with pytest.raises(ValueError):
            CostParameters(disk_bandwidth=0)

    def test_negative_overhead_rejected(self):
        with pytest.raises(ValueError):
            CostParameters(task_startup_seconds=-1)

    def test_frozen(self):
        with pytest.raises(Exception):
            CostParameters().disk_bandwidth = 1.0


class TestCostLedger:
    def test_starts_empty(self):
        ledger = CostLedger()
        assert ledger.total_seconds == 0.0
        for cat in CATEGORIES:
            assert ledger.seconds(cat) == 0.0

    def test_disk_read_charging(self):
        ledger = CostLedger(params=CostParameters(disk_bandwidth=100.0))
        ledger.charge_disk_read(250.0)
        assert ledger.seconds("disk_read") == pytest.approx(2.5)

    def test_seek_charging(self):
        ledger = CostLedger(params=CostParameters(disk_seek_seconds=0.01))
        ledger.charge_seeks(5)
        assert ledger.seconds("disk_seek") == pytest.approx(0.05)

    def test_network_charging(self):
        ledger = CostLedger(params=CostParameters(network_bandwidth=1000.0))
        ledger.charge_network(500.0)
        assert ledger.seconds("network") == pytest.approx(0.5)

    def test_cpu_records_with_factor(self):
        params = CostParameters(cpu_seconds_per_record=0.001)
        ledger = CostLedger(params=params)
        ledger.charge_cpu_records(100, cpu_factor=2.0)
        assert ledger.seconds("cpu") == pytest.approx(0.2)

    def test_startup_charges(self):
        params = CostParameters(task_startup_seconds=1.5, job_setup_seconds=3.0)
        ledger = CostLedger(params=params)
        ledger.charge_task_startup(2)
        ledger.charge_job_setup()
        assert ledger.seconds("startup") == pytest.approx(6.0)

    def test_total_is_sum(self):
        ledger = CostLedger()
        ledger.charge_disk_read(1e8)
        ledger.charge_network(1.25e8)
        ledger.charge_cpu_seconds(3.0)
        assert ledger.total_seconds == pytest.approx(
            ledger.seconds("disk_read") + ledger.seconds("network") + 3.0)

    def test_merge(self):
        a, b = CostLedger(), CostLedger()
        a.charge_cpu_seconds(1.0)
        b.charge_cpu_seconds(2.0)
        a.merge(b)
        assert a.seconds("cpu") == pytest.approx(3.0)
        assert b.seconds("cpu") == pytest.approx(2.0)

    def test_spawn_shares_params(self):
        params = CostParameters(disk_bandwidth=42.0)
        child = CostLedger(params=params).spawn()
        assert child.params.disk_bandwidth == 42.0
        assert child.total_seconds == 0.0

    def test_reset(self):
        ledger = CostLedger()
        ledger.charge_cpu_seconds(5.0)
        ledger.reset()
        assert ledger.total_seconds == 0.0

    def test_negative_charges_rejected(self):
        ledger = CostLedger()
        with pytest.raises(ValueError):
            ledger.charge_seeks(-1)
        with pytest.raises(ValueError):
            ledger.charge_cpu_records(-5)

    def test_unknown_category_raises(self):
        with pytest.raises(KeyError):
            CostLedger().seconds("quantum")

    def test_breakdown_is_copy(self):
        ledger = CostLedger()
        ledger.charge_cpu_seconds(1.0)
        snapshot = ledger.breakdown()
        snapshot["cpu"] = 0.0
        assert ledger.seconds("cpu") == 1.0


@settings(max_examples=200, deadline=None)
@given(start=st.floats(0.0, 1e4), count=st.integers(0, 3000),
       scale=st.floats(0.0, 1e3), cpu_factor=st.floats(0.0, 10.0))
def test_a_record_run_charges_what_the_per_record_walk_does(
        start, count, scale, cpu_factor):
    walked, run = CostLedger(), CostLedger()
    for ledger in (walked, run):
        ledger.charge_cpu_seconds(start)
    for _ in walked.charge_cpu_per_record(range(count), scale, cpu_factor):
        pass
    run.charge_cpu_record_run(count, scale, cpu_factor)
    assert run.seconds("cpu").hex() == walked.seconds("cpu").hex()


def test_a_record_run_refuses_a_negative_scale():
    with pytest.raises(ValueError):
        CostLedger().charge_cpu_record_run(3, -1.0)
