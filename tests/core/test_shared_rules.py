"""Unit tests for the rules every EARL driver shares: the (B, n)
decision, the first target, the growth schedule and the final snapshot
of a finished result."""

import math

import numpy as np
import pytest

from repro.core import EarlConfig
from repro.core.accuracy import AccuracyEstimate
from repro.core.engine import (
    choose_parameters,
    exact_fallback_result,
    first_target,
    grow_target,
    result_snapshot,
)
from repro.core.estimators import get_statistic
from repro.core.result import EarlResult
from repro.core.ssabe import estimate_parameters


@pytest.fixture(scope="module")
def pilot():
    return np.random.default_rng(3).lognormal(3.0, 1.0, 2_000)


class TestGrowTarget:
    def test_grows_by_expansion_factor(self):
        assert grow_target(10, 1_000, EarlConfig(expansion_factor=2.0)) == 20

    def test_rounds_up(self):
        assert grow_target(11, 1_000, EarlConfig(expansion_factor=1.5)) == 17

    def test_capped_at_population(self):
        assert grow_target(600, 1_000, EarlConfig(expansion_factor=2.0)) \
            == 1_000


class TestFirstTarget:
    def test_is_ssabe_n(self):
        assert first_target(37, 100) == 37

    def test_at_least_two_rows(self):
        assert first_target(1, 100) == 2

    def test_capped_at_population(self):
        assert first_target(500, 100) == 100


class TestChooseParameters:
    def test_both_pinned_never_draws_the_pilot(self):
        def no_pilot():
            raise AssertionError("pilot drawn with B and n pinned")

        B, n, ssabe = choose_parameters(
            get_statistic("mean"), 10_000, EarlConfig(), no_pilot,
            sigma=0.05, B=12, n=300, seed=1)
        assert (B, n, ssabe) == (12, 300, None)

    def test_unpinned_come_from_ssabe(self, pilot):
        cfg = EarlConfig()
        B, n, ssabe = choose_parameters(
            get_statistic("mean"), 100_000, cfg, lambda: pilot,
            sigma=0.05, B=None, n=None, seed=4)
        direct = estimate_parameters(
            pilot, 100_000, get_statistic("mean"), sigma=0.05, tau=cfg.tau,
            levels=cfg.subsample_levels, B_min=cfg.B_min,
            stability_window=cfg.stability_window,
            maintenance=cfg.maintenance, seed=4)
        assert (B, n) == (ssabe.B, ssabe.n) == (direct.B, direct.n)

    def test_one_pin_is_kept(self, pilot):
        B, n, ssabe = choose_parameters(
            get_statistic("mean"), 100_000, EarlConfig(), lambda: pilot,
            sigma=0.05, B=7, n=None, seed=4)
        assert ssabe is not None
        assert B == 7
        assert n == ssabe.n

    def test_closed_form_solves_n_without_ssabe(self):
        """``proportion`` (Appendix A): B = 1 and the closed form's n
        off the pilot's Laplace-smoothed p̂, with 25 % head-room; a
        zero-success pilot still gives a finite n, and a pinned n
        stands."""
        pilot = np.r_[np.ones(30), np.zeros(70)]
        stat = get_statistic("proportion")
        B, n, ssabe = choose_parameters(stat, 100_000, EarlConfig(),
                                        lambda: pilot, sigma=0.05, B=40,
                                        n=None, seed=1)
        p = 30 / 101
        assert (B, ssabe) == (1, None)
        assert n == math.ceil(1.25 * math.ceil((1 - p) / (p * 0.05 ** 2)))
        _, n0, _ = choose_parameters(stat, 100_000, EarlConfig(),
                                     lambda: np.zeros(100), sigma=0.05,
                                     B=None, n=None, seed=1)
        assert n0 > n
        assert choose_parameters(stat, 100_000, EarlConfig(), None,
                                 sigma=0.05, B=None, n=500,
                                 seed=1) == (1, 500, None)


class TestResultSnapshot:
    def test_exact_result_is_a_zero_width_iteration_zero(self):
        data = np.arange(10.0)
        result = exact_fallback_result(get_statistic("mean"), data,
                                       sigma=0.05, ssabe=None)
        result.simulated_seconds = 3.5
        snap = result_snapshot(result)
        assert snap.iteration == 0 and snap.final and snap.achieved
        assert snap.ci_low == snap.ci_high == snap.estimate == 4.5
        assert snap.error == 0.0 and snap.cv == 0.0
        assert snap.cost_delta_seconds == snap.cost_total_seconds == 3.5
        assert snap.accuracy is None and snap.result is result

    def test_sampled_result_is_restated_at_its_iteration(self):
        accuracy = AccuracyEstimate(
            estimate=10.2, point_estimate=10.1, error=0.03, cv=0.03,
            std=0.3, variance=0.09, bias=0.1, ci_low=9.6, ci_high=10.8,
            n=400, B=30)
        result = EarlResult(
            estimate=10.25, uncorrected_estimate=10.2, error=0.03,
            achieved=True, sigma=0.05, statistic="mean", n=400, B=30,
            population_size=10_000, sample_fraction=0.04,
            used_fallback=False, simulated_seconds=8.0, accuracy=accuracy,
            degraded=True, lost_fraction=0.1)
        snap = result_snapshot(result, 3, 1.25)
        assert snap.iteration == 3 and snap.final
        assert (snap.ci_low, snap.ci_high) == (9.6, 10.8)
        assert snap.estimate == 10.25 and snap.uncorrected_estimate == 10.2
        assert snap.cv == 0.03 and snap.accuracy is accuracy
        assert snap.cost_delta_seconds == 1.25
        assert snap.cost_total_seconds == 8.0
        assert snap.degraded and snap.lost_fraction == 0.1
        assert math.isclose(snap.sample_fraction, 0.04)
