"""EARL core: the paper's contribution.

Bootstrap-based accuracy estimation (§3), SSABE parameter estimation
(§3.2), delta-maintained resampling (§4.1), intra-iteration sharing
(§4.2), categorical and dependent-data extensions (Appendix A), and the
driver loops tying them to the sampling layer and the MapReduce engine.
"""

from repro.core.accuracy import (
    ERROR_METRICS,
    AccuracyEstimate,
    AccuracyEstimationStage,
    get_error_metric,
    summarize_distribution,
)
from repro.core.bootstrap import (
    BootstrapResult,
    bootstrap,
    bootstrap_cv_curve,
    bootstrap_cv_vs_n,
    bootstrap_file,
    exact_bootstrap_count,
    theoretical_num_bootstraps,
)
from repro.core.categorical_session import CategoricalEarlSession
from repro.core.categorical import (
    CategoricalEstimate,
    proportion_estimate,
    required_sample_size_proportion,
    z_test_proportion,
)
from repro.core.config import SAMPLER_POSTMAP, SAMPLER_PREMAP, EarlConfig
from repro.core.correction import (
    CORRECTIONS,
    get_correction,
    inverse_fraction,
    no_correction,
)
from repro.core.delta import (
    MAINTENANCE_NAIVE,
    MAINTENANCE_NONE,
    MAINTENANCE_OPTIMIZED,
    MaintenanceCounters,
    NaiveMaintainer,
    Resample,
    ResampleSet,
    SketchMaintainer,
)
from repro.core.dependent import (
    auto_block_length,
    block_bootstrap,
    lag1_autocorrelation,
)
from repro.core.dependent_session import DependentEarlSession
from repro.core.figure4 import Figure4Sampler
from repro.core.earl import (
    BootstrapReducer,
    EarlJob,
    EarlSession,
    StatisticReducer,
    estimate_record_count,
    run_grouped_stock_job,
    run_stock_job,
)
from repro.core.grouped import (
    GroupEstimate,
    GroupedEarlSession,
    GroupedResult,
    GroupedSnapshot,
    Measure,
)
from repro.core.estimators import (
    EstimatorState,
    Statistic,
    available_statistics,
    get_statistic,
    register_statistic,
)
from repro.core.intra import (
    SharedBootstrapResult,
    average_optimal_saving,
    optimal_sharing,
    optimal_sharing_search,
    prob_identical_fraction,
    shared_prefix_bootstrap,
    work_saved,
    work_saved_curve,
)
from repro.core.jackknife import JackknifeResult, jackknife
from repro.core.jackknife_stage import (
    JACKKNIFE_SAFE_STATISTICS,
    JackknifeEstimationStage,
)
from repro.core.result import EarlResult, IterationRecord, ProgressSnapshot
from repro.core.sketch import ITEM_BYTES, Sketch
from repro.core.ssabe import (
    SSABEResult,
    estimate_num_bootstraps,
    estimate_parameters,
    estimate_sample_size,
    theoretical_sample_size_mean,
)

__all__ = [
    # drivers
    "EarlSession", "EarlJob", "EarlConfig", "EarlResult", "IterationRecord",
    "ProgressSnapshot",
    "BootstrapReducer", "StatisticReducer", "run_stock_job",
    "run_grouped_stock_job", "estimate_record_count",
    # grouped sessions
    "GroupedEarlSession", "Measure", "GroupEstimate", "GroupedSnapshot",
    "GroupedResult",
    # bootstrap / jackknife
    "bootstrap", "BootstrapResult", "bootstrap_cv_curve", "bootstrap_cv_vs_n",
    "bootstrap_file",
    "exact_bootstrap_count", "theoretical_num_bootstraps",
    "jackknife", "JackknifeResult",
    "JackknifeEstimationStage", "JACKKNIFE_SAFE_STATISTICS",
    # accuracy
    "AccuracyEstimate", "AccuracyEstimationStage", "summarize_distribution",
    "get_error_metric", "ERROR_METRICS",
    # ssabe
    "SSABEResult", "estimate_parameters", "estimate_num_bootstraps",
    "estimate_sample_size", "theoretical_sample_size_mean",
    # delta maintenance
    "ResampleSet", "Resample", "NaiveMaintainer", "SketchMaintainer",
    "MaintenanceCounters", "Sketch", "ITEM_BYTES",
    "MAINTENANCE_NAIVE", "MAINTENANCE_OPTIMIZED", "MAINTENANCE_NONE",
    # intra-iteration
    "prob_identical_fraction", "work_saved", "work_saved_curve",
    "optimal_sharing", "optimal_sharing_search",
    "average_optimal_saving", "shared_prefix_bootstrap",
    "SharedBootstrapResult",
    # statistics
    "Statistic", "EstimatorState", "get_statistic", "register_statistic",
    "available_statistics",
    # corrections
    "get_correction", "no_correction", "inverse_fraction", "CORRECTIONS",
    # categorical / dependent
    "proportion_estimate", "z_test_proportion",
    "CategoricalEarlSession",
    "required_sample_size_proportion", "CategoricalEstimate",
    "block_bootstrap", "auto_block_length", "lag1_autocorrelation",
    "DependentEarlSession",
    "Figure4Sampler",
    # sampler names
    "SAMPLER_PREMAP", "SAMPLER_POSTMAP",
]
