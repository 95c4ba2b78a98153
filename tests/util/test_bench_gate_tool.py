"""``tools/check_bench_regression.py --manifest``: every listed
benchmark is run and gated, a red gate does not hide the ones after it,
and the exit status is non-zero if any failed."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

_spec = importlib.util.spec_from_file_location(
    "check_bench_regression", ROOT / "tools" / "check_bench_regression.py")
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)

#: A stand-in benchmark: writes one gated row whose speedup is baked in.
_SCRIPT = """\
import argparse, json, pathlib
p = argparse.ArgumentParser()
p.add_argument("--smoke", action="store_true")
p.add_argument("--no-assert", action="store_true")
p.add_argument("--out", type=pathlib.Path)
a = p.parse_args()
assert a.smoke and a.no_assert
if {speedup} is None:
    raise SystemExit(3)
a.out.parent.mkdir(parents=True, exist_ok=True)
a.out.write_text(json.dumps({{"results": [
    {{"n": 100000, "mode": "m", "stage": {{"speedup": {speedup}}},
      "other": {{"speedup": 0.1}}}}]}}))
"""


def _fake_repo(tmp_path, speedups):
    """A root with one fake benchmark per name; baselines all 10x."""
    bench = tmp_path / "benchmarks"
    bench.mkdir()
    manifest = []
    for name, speedup in speedups.items():
        (bench / f"bench_{name}.py").write_text(
            _SCRIPT.format(speedup=speedup))
        (bench / f"BENCH_{name}.json").write_text(json.dumps({"results": [
            {"n": 100000, "mode": "m", "stage": {"speedup": 10.0},
             "other": {"speedup": 10.0}}]}))
        manifest.append({"name": name, "script": f"benchmarks/bench_{name}.py",
                         "stages": "stage"})
    path = bench / "bench_gates.json"
    path.write_text(json.dumps(manifest))
    return path


def test_a_red_gate_does_not_hide_the_gates_after_it(tmp_path, capsys):
    manifest = _fake_repo(tmp_path, {"first": 9.0, "red": 5.0,
                                     "crashes": None, "last": 12.0})
    assert gate.run_manifest(manifest, 0.2, 100_000, root=tmp_path) == 1
    summary = capsys.readouterr().out.split("\n\n")[-1].split("\n")
    assert [line.split(None, 1) for line in summary if line] == [
        ["first", "ok"], ["red", "gate failed"],
        ["crashes", "benchmark exited 3"], ["last", "ok"]]
    # `last` really ran: its fresh report is on disk.
    assert (tmp_path / "benchmarks" / "results" / "BENCH_last.json").exists()


def test_all_green_exits_zero_and_gates_only_the_named_stage(tmp_path):
    # The un-named stage "other" is 0.1x against 10x and must not count.
    manifest = _fake_repo(tmp_path, {"a": 8.5, "b": 30.0})
    assert gate.run_manifest(manifest, 0.2, 100_000, root=tmp_path) == 0


def test_an_eight_entry_manifest_is_iterated_to_the_end(tmp_path, capsys):
    # The committed manifest's size, with a red gate in the middle: the
    # eighth is still run, gated and reported.
    speedups = {f"g{i}": 11.0 for i in range(1, 9)}
    speedups["g4"] = 2.0
    manifest = _fake_repo(tmp_path, speedups)
    assert gate.run_manifest(manifest, 0.2, 100_000, root=tmp_path) == 1
    summary = capsys.readouterr().out.split("\n\n")[-1].split("\n")
    assert [line.split(None, 1) for line in summary if line] == [
        [name, "gate failed" if name == "g4" else "ok"] for name in speedups]
    assert (tmp_path / "benchmarks" / "results" / "BENCH_g8.json").exists()


def test_committed_manifest_points_at_real_scripts_and_baselines():
    entries = json.loads((ROOT / "benchmarks" / "bench_gates.json").read_text())
    assert len({entry["name"] for entry in entries}) == len(entries) == 8
    assert entries[-1] == {"name": "exec",
                           "script": "benchmarks/bench_exec.py",
                           "stages": "residency"}
    for entry in entries:
        assert (ROOT / entry["script"]).is_file(), entry
        assert (ROOT / "benchmarks" / f"BENCH_{entry['name']}.json").is_file()
