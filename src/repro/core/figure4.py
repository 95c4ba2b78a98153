"""The paper's Figure 4 API, ported faithfully.

Figure 4 shows "an example of how a user job would work with the EARL
framework": a ``Sampler`` object is initialized with the dataset path,
``GenerateSamples(sample_size, num_resamples)`` draws the sample and its
resamples, the user's job runs once per resample, an AES job folds the
results into an updated error, and
``UpdateSampleSizeAndNumResamples()`` adjusts the parameters (falling
back to ``sample_size = N, num_resamples = 1`` when early approximation
is not possible) — all inside ``while (error > sigma)``.

:class:`Figure4Sampler` exposes exactly those steps over this library's
substrate, for users who want the paper's explicit loop rather than the
packaged :class:`~repro.core.earl.EarlJob` driver:

>>> import numpy as np
>>> from repro.cluster import Cluster
>>> cluster = Cluster(n_nodes=4, seed=0)
>>> values = np.random.default_rng(0).lognormal(0.0, 1.0, 20_000)
>>> meta = cluster.hdfs.write_lines("/data/values",
...                                 [f"{v:.6f}" for v in values])
>>> sigma = 0.05
>>> s = Figure4Sampler(cluster, statistic="mean", seed=7)
>>> s.init("/data/values")
>>> while s.error is None or s.error > sigma:
...     s.generate_samples(s.sample_size, s.num_resamples)
...     estimates = s.run_user_job()
...     accuracy = s.run_aes_job(estimates)
...     s.update_sample_size_and_num_resamples(sigma)
>>> s.result().error <= sigma
True
"""

from __future__ import annotations

import math
from typing import List, Optional

import numpy as np

from repro.cluster.cluster import Cluster
from repro.core.accuracy import AccuracyEstimate, summarize_distribution
from repro.core.bootstrap import bootstrap
from repro.core.earl import estimate_record_count
from repro.core.estimators import StatisticLike, get_statistic
from repro.core.ssabe import estimate_parameters
from repro.sampling.premap import PreMapSampler
from repro.util.rng import SeedLike, ensure_rng
from repro.util.validation import check_positive_int


class Figure4Sampler:
    """Step-by-step EARL loop in the shape of the paper's Figure 4."""

    def __init__(self, cluster: Cluster, *,
                 statistic: StatisticLike = "mean",
                 initial_sample_size: int = 128,
                 initial_num_resamples: int = 20,
                 seed: SeedLike = None) -> None:
        check_positive_int("initial_sample_size", initial_sample_size)
        check_positive_int("initial_num_resamples", initial_num_resamples)
        self._cluster = cluster
        self._stat = get_statistic(statistic)
        self._rng = ensure_rng(seed)
        self.sample_size = initial_sample_size
        self.num_resamples = initial_num_resamples
        self.error: Optional[float] = None
        self.simulated_seconds = 0.0
        self._sampler: Optional[PreMapSampler] = None
        self._population: Optional[int] = None
        self._sample_values: List[float] = []
        self._resample_estimates: Optional[np.ndarray] = None
        self._accuracy: Optional[AccuracyEstimate] = None
        self._full_data_mode = False

    # --------------------------------------------------------------- s.Init
    def init(self, path: str) -> None:
        """``s.Init(path_string)`` — bind the sampler to the dataset."""
        self._sampler = PreMapSampler(self._cluster.hdfs, path)
        self._population, probe_s = estimate_record_count(self._cluster,
                                                          path)
        self.simulated_seconds += probe_s
        self._sample_values = []
        self._resample_estimates = None
        self._accuracy = None
        self.error = None
        self._full_data_mode = False

    # ------------------------------------------------------ GenerateSamples
    def generate_samples(self, sample_size: int, num_resamples: int) -> None:
        """``s.GenerateSamples(sample_size, num_resamples)``.

        Grows the drawn sample to ``sample_size`` lines (the pre-map
        sampler never re-reads already-delivered lines) and records the
        resample count for the next user-job round.
        """
        if self._sampler is None:
            raise RuntimeError("call init() first")
        check_positive_int("sample_size", sample_size)
        check_positive_int("num_resamples", num_resamples)
        self.sample_size = sample_size
        self.num_resamples = num_resamples
        target = min(sample_size, self._population or sample_size)
        if target > self._sampler.sampled_count:
            ledger = self._cluster.new_ledger()
            self._sampler.set_total_target(target)
            for split in self._sampler.splits:
                for _, line in self._sampler.read(
                        self._cluster.hdfs, split, ledger, self._rng):
                    self._sample_values.append(float(line))
            self.simulated_seconds += ledger.total_seconds

    # ------------------------------------------------------- user job round
    def run_user_job(self) -> np.ndarray:
        """Run the user's job once per resample; returns the B estimates.

        (The paper's loop submits ``num_resamples`` MR jobs; here each
        evaluation is the statistic on one bootstrap resample, charged
        as resampling work.)
        """
        if not self._sample_values:
            raise RuntimeError("generate_samples() produced no data")
        sample = np.asarray(self._sample_values)
        boot = bootstrap(sample, self._stat, B=self.num_resamples,
                         seed=self._rng)
        ledger = self._cluster.new_ledger()
        ledger.charge_cpu_records(self.num_resamples * sample.size)
        self.simulated_seconds += ledger.total_seconds
        self._resample_estimates = boot.estimates
        self._point_estimate = boot.point_estimate
        return boot.estimates

    # ------------------------------------------------------------- AES job
    def run_aes_job(self, estimates: Optional[np.ndarray] = None
                    ) -> AccuracyEstimate:
        """``runJob(aes_job)`` — fold the user-job outputs into an error."""
        if estimates is None:
            estimates = self._resample_estimates
        if estimates is None:
            raise RuntimeError("run_user_job() must produce estimates first")
        self._accuracy = summarize_distribution(
            np.asarray(estimates), self._point_estimate,
            len(self._sample_values))
        self.error = self._accuracy.error
        return self._accuracy

    # -------------------------------------- UpdateSampleSizeAndNumResamples
    def update_sample_size_and_num_resamples(self, sigma: float,
                                             tau: float = 0.01) -> None:
        """``UpdateSampleSizeAndNumResamples()`` (Figure 4's last step).

        Re-estimates (B, n) via SSABE from the current sample.  "In cases
        where early approximation is not possible, sample_size and
        num_resamples will be set to N and 1 respectively."
        """
        if self.error is not None and self.error <= sigma:
            return  # loop will exit; nothing to update
        if not self._sample_values or self._population is None:
            raise RuntimeError("nothing sampled yet")
        pilot = np.asarray(self._sample_values)
        if pilot.size < 32:
            self.sample_size = min(self._population, self.sample_size * 2)
            return
        ssabe = estimate_parameters(pilot, self._population, self._stat,
                                    sigma=sigma, tau=tau, seed=self._rng)
        if ssabe.fallback_to_exact:
            self.sample_size = self._population
            self.num_resamples = 1
            self._full_data_mode = True
            return
        self.sample_size = max(ssabe.n,
                               math.ceil(len(self._sample_values) * 1.5))
        self.num_resamples = ssabe.B

    # --------------------------------------------------------------- result
    @property
    def full_data_mode(self) -> bool:
        """Whether the §3.1 fallback was triggered."""
        return self._full_data_mode

    def result(self) -> AccuracyEstimate:
        """The latest accuracy estimate (the early result + its error)."""
        if self._accuracy is None:
            raise RuntimeError("run_aes_job() has not produced a result")
        return self._accuracy

    def run_loop(self, sigma: float, *, tau: float = 0.01,
                 max_iterations: int = 12) -> AccuracyEstimate:
        """Convenience: execute Figure 4's ``while (error > sigma)`` loop."""
        check_positive_int("max_iterations", max_iterations)
        for _ in range(max_iterations):
            self.generate_samples(self.sample_size, self.num_resamples)
            self.run_user_job()
            self.run_aes_job()
            if (self.error is not None and self.error <= sigma) \
                    or self._full_data_mode:
                break
            before = (self.sample_size, self.num_resamples)
            self.update_sample_size_and_num_resamples(sigma, tau)
            if (self.sample_size, self.num_resamples) == before \
                    and self._sampler.sampled_count >= (self._population or 0):
                break
        return self.result()
