"""Unit tests for the EARL driver building blocks."""

import numpy as np
import pytest

from repro.cluster import Cluster
from repro.cluster.costmodel import CostLedger
from repro.core import EarlConfig
from repro.core.earl import (
    BootstrapReducer,
    StatisticReducer,
    make_estimation_stage,
)
from repro.core.accuracy import AccuracyEstimate, AccuracyEstimationStage
from repro.core.estimators import get_statistic
from repro.core.jackknife_stage import JackknifeEstimationStage
from repro.mapreduce import FeedbackChannel
from repro.mapreduce.counters import Counters
from repro.mapreduce.types import TaskContext


def make_ctx(task_id="reduce-0", record_scale=1.0, **config) -> TaskContext:
    return TaskContext(ledger=CostLedger(), counters=Counters(),
                       rng=np.random.default_rng(0),
                       record_scale=record_scale,
                       config=config, task_id=task_id)


class TestStatisticReducer:
    def test_mean_roundtrip(self):
        reducer = StatisticReducer("mean")
        state = reducer.initialize([1.0, 2.0, 3.0])
        assert reducer.finalize(state) == pytest.approx(2.0)

    def test_update_with_scalar(self):
        reducer = StatisticReducer("mean")
        state = reducer.initialize([1.0])
        state = reducer.update(state, 3.0)
        assert reducer.finalize(state) == pytest.approx(2.0)

    def test_update_with_state_merges(self):
        reducer = StatisticReducer("mean")
        a = reducer.initialize([1.0, 2.0])
        b = reducer.initialize([3.0, 4.0])
        merged = reducer.update(a, b)
        assert reducer.finalize(merged) == pytest.approx(2.5)

    def test_update_with_unmergeable_state_raises(self):
        reducer = StatisticReducer("median")
        a = reducer.initialize([1.0, 2.0])
        b = reducer.initialize([3.0])
        with pytest.raises(TypeError):
            reducer.update(a, b)

    def test_auto_correction_for_sum(self):
        reducer = StatisticReducer("sum")
        assert reducer.correct(10.0, 0.1) == pytest.approx(100.0)

    def test_auto_correction_for_mean_is_identity(self):
        reducer = StatisticReducer("mean")
        assert reducer.correct(10.0, 0.1) == 10.0

    def test_classic_reduce_with_context_fraction(self):
        reducer = StatisticReducer("sum")
        ctx = make_ctx(sample_fraction=0.25)
        out = list(reducer.reduce("k", [1.0, 2.0], ctx))
        assert out == [("k", 12.0)]


class TestBootstrapReducer:
    @pytest.fixture
    def values(self):
        return list(np.random.default_rng(1).lognormal(3.0, 1.0, 400))

    def test_emits_accuracy_estimate(self, values):
        reducer = BootstrapReducer("mean", B=20, seed=2)
        reducer.setup(make_ctx())
        (key, est), = reducer.reduce("k", values, make_ctx())
        assert key == "k"
        assert isinstance(est, AccuracyEstimate)
        assert est.n == len(values)

    def test_per_key_stages_are_independent(self, values):
        reducer = BootstrapReducer("mean", B=10, seed=3)
        ctx = make_ctx()
        reducer.setup(ctx)
        list(reducer.reduce("a", values[:100], ctx))
        list(reducer.reduce("b", values[100:150], ctx))
        sizes = reducer.sample_sizes()
        assert sizes == {"a": 100, "b": 50}

    def test_second_offer_expands_same_key(self, values):
        reducer = BootstrapReducer("mean", B=10, seed=4)
        ctx = make_ctx()
        reducer.setup(ctx)
        list(reducer.reduce("k", values[:100], ctx))
        list(reducer.reduce("k", values[100:300], ctx))
        assert reducer.sample_sizes() == {"k": 300}
        assert len(reducer.key_estimates()) == 1

    def test_charges_resampling_cpu(self, values):
        reducer = BootstrapReducer("mean", B=25, seed=5)
        ctx = make_ctx()
        reducer.setup(ctx)
        list(reducer.reduce("k", values, ctx))
        assert ctx.ledger.seconds("cpu") > 0

    def test_cpu_charge_scales_with_record_scale(self, values):
        def charge(scale):
            reducer = BootstrapReducer("mean", B=25, seed=6)
            ctx = make_ctx(record_scale=scale)
            reducer.setup(ctx)
            list(reducer.reduce("k", values, ctx))
            return ctx.ledger.seconds("cpu")

        assert charge(100.0) > 50 * charge(1.0)

    def test_publishes_error_to_channel(self, values):
        cluster = Cluster(n_nodes=2, seed=7)
        channel = FeedbackChannel(cluster.hdfs, "test-job")
        reducer = BootstrapReducer("mean", B=20, seed=8, channel=channel)
        ctx = make_ctx(task_id="reduce-3", iteration=2)
        reducer.setup(ctx)
        list(reducer.reduce("k", values, ctx))
        list(reducer.cleanup(ctx))
        entries = channel.read_errors()
        assert len(entries) == 1
        ts, err = entries[0]
        assert ts == 2.0
        assert err > 0

    def test_no_channel_cleanup_is_silent(self, values):
        reducer = BootstrapReducer("mean", B=10, seed=9)
        ctx = make_ctx()
        reducer.setup(ctx)
        list(reducer.reduce("k", values, ctx))
        assert list(reducer.cleanup(ctx)) == []

    def test_jackknife_estimation_variant(self, values):
        reducer = BootstrapReducer(
            "mean", B=10, seed=10,
            config=EarlConfig(estimation="jackknife"))
        ctx = make_ctx()
        reducer.setup(ctx)
        (key, est), = reducer.reduce("k", values, ctx)
        assert est.B == len(values)  # n leave-one-out replicates

    def test_invalid_B(self):
        with pytest.raises(ValueError):
            BootstrapReducer("mean", B=0)


class TestStageFactory:
    def test_bootstrap_default(self):
        stage = make_estimation_stage(get_statistic("mean"), 10,
                                      EarlConfig(seed=1))
        assert isinstance(stage, AccuracyEstimationStage)

    def test_jackknife_selected(self):
        cfg = EarlConfig(seed=1, estimation="jackknife")
        stage = make_estimation_stage(get_statistic("mean"), 10, cfg)
        assert isinstance(stage, JackknifeEstimationStage)
