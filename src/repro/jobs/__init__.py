"""Evaluation jobs: aggregates, correlation analysis, and K-Means."""

from repro.jobs.aggregates import CountingMapper, run_count
from repro.jobs.correlation import (
    PairMapper,
    bootstrap_correlation,
    run_correlation,
)
from repro.jobs.kmeans import (
    CentroidStore,
    EarlKMeans,
    KMeansAssignMapper,
    KMeansResult,
    KMeansUpdateReducer,
    centroid_relative_error,
    kmeans_inmemory,
    kmeans_mapreduce,
    match_centroids,
)

__all__ = [
    "run_count",
    "CountingMapper",
    "PairMapper",
    "run_correlation",
    "bootstrap_correlation",
    "kmeans_inmemory",
    "kmeans_mapreduce",
    "EarlKMeans",
    "KMeansResult",
    "KMeansAssignMapper",
    "KMeansUpdateReducer",
    "CentroidStore",
    "match_centroids",
    "centroid_relative_error",
]
