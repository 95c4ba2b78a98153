"""Contract of ``bench_e2e``: what ``BENCHMARK.json`` promises is what
a report holds.

Outside the tier-1 ``testpaths``; run it explicitly::

    python -m pytest benchmarks/e2e/test_bench_contract.py -q

It checks ``benchmarks/e2e/results/e2e.json`` (or the file named by
``BENCH_E2E_REPORT``) and produces that report first, with a short run,
when it does not exist yet.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")

WORKLOADS = {"stats_shared_scan", "grouped_query", "grouped_procs",
             "cluster_job", "session_churn", "crash_resume"}
#: Per-layer metrics that belong to some workloads only: they read 0
#: everywhere else.
ONLY_ON = {
    "client.exact_job_s": {"cluster_job"},
    "client.resume_first_event_s": {"crash_resume"},
    "client.resume_drain_s": {"crash_resume"},
    "service.wal_overhead_ratio": WORKLOADS - {"crash_resume"},
    "service.wal_load_s": {"crash_resume"},
    "service.recover_start_s": {"crash_resume"},
    "service.replay_rounds": {"crash_resume"},
    "service.replay_s": {"crash_resume"},
    "core.grouped_stream_s": {"grouped_query", "grouped_procs"},
    "core.job_stream_s": {"cluster_job"},
    "sampling.stratified_build_s": {"grouped_query", "grouped_procs"},
    "sampling.premap_read_s": {"cluster_job"},
    "exec.pool_start_s": {"grouped_procs"},
    "exec.procs_over_serial_ratio": {"grouped_procs"},
    "mapreduce.run_s": {"cluster_job"},
    "hdfs.read_s": {"cluster_job"},
    "cluster.sim_cost_s": {"cluster_job"},
    "cluster.sim_speedup_vs_exact": {"cluster_job"},
    "cluster.speedup_vs_exact": {"cluster_job"},
}


@pytest.fixture(scope="module")
def manifest():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def report():
    path = Path(os.environ.get("BENCH_E2E_REPORT",
                               HERE / "results" / "e2e.json"))
    if not path.exists():
        subprocess.run([sys.executable, str(HERE / "run.py"), "--seed", "1",
                        "--seconds", "2", "--out", str(path)], check=True)
    return json.loads(path.read_text())


def test_manifest_shape(manifest):
    assert set(manifest) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert manifest["paths"] == ["benchmarks/e2e"]
    assert {w["name"] for w in manifest["workloads"]} == WORKLOADS
    assert all(set(w) == {"name", "why"} and 0 < len(w["why"]) <= 200
               and "\n" not in w["why"] for w in manifest["workloads"])
    assert 1 <= len(manifest["end_to_end"]) <= 16
    assert 1 <= len(manifest["per_layer"]) <= 128
    names = [m["name"] for m in manifest["end_to_end"] + manifest["per_layer"]]
    names += [w["name"] for w in manifest["workloads"]]
    assert len(names) == len(set(names)), "a name is used twice"
    assert all(NAME.match(name) for name in names)
    for metric in manifest["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert metric["better"] in ("lower", "higher")
        assert 0 < metric["bound"] <= 0.25
    for metric in manifest["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    setup = [m for m in manifest["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" \
        and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"]
                                    for m in manifest["end_to_end"])


def test_every_workload_reports_exactly_its_metrics(manifest, report):
    end_to_end = {m["name"] for m in manifest["end_to_end"]}
    per_layer = {m["name"] for m in manifest["per_layer"]}
    assert set(report["workloads"]) == WORKLOADS
    for name, entry in report["workloads"].items():
        assert set(entry["end_to_end"]) == end_to_end, name
        assert set(entry["per_layer"]) == per_layer, name
        assert all(m["value"] > 0 for m in entry["end_to_end"].values()), \
            f"{name}: an end-to-end metric reads 0"
        for metric, owners in ONLY_ON.items():
            value = entry["per_layer"][metric]["value"]
            assert (value > 0) == (name in owners), (name, metric, value)


def test_percentiles_carry_their_sample_count(report):
    for name, entry in report["workloads"].items():
        for section in ("end_to_end", "per_layer"):
            for metric, doc in entry[section].items():
                if re.search(r"_p\d+_", metric):
                    assert doc["n"] >= 1 and 50 <= doc["percentile"] <= 99, \
                        (name, metric, doc)
                if "q1" in doc:
                    assert doc["n"] >= 1 and doc["q1"] <= doc["q3"]


def test_report_is_correct_and_self_describing(report):
    for name, entry in report["workloads"].items():
        assert entry["failed"] == 0 and entry["failed_share"] == 0.0, \
            (name, entry["failures"])
        assert entry["attempted"] >= 1
        assert entry["fsync"] is False
        assert entry["per_layer"]["exec.live_pools_at_end"]["value"] == 0
        for key in ("seed", "sizes", "laps", "nproc", "python", "numpy",
                    "commit"):
            assert key in entry, (name, key)
