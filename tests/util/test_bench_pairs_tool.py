"""``tools/bench_pairs.py``: the aggregation of alternating
parent/change pairs — medians, quartiles, pairs won, and the verdict
rule (a gain needs nine tenths of the pairs *and* medians further apart
than the parent's own quartiles)."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]

_spec = importlib.util.spec_from_file_location(
    "bench_pairs", ROOT / "tools" / "bench_pairs.py")
pairs_tool = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs_tool)

LATENCY = {"name": "time_s", "unit": "s", "better": "lower", "bound": 0.25}
RATE = {"name": "per_s", "unit": "1/s", "better": "higher", "bound": 0.25}


def _pairs(parent, change, name="time_s"):
    return [({name: p}, {name: c}) for p, c in zip(parent, change)]


def _row(parent, change, metric=LATENCY):
    (row,) = pairs_tool.summarize(
        _pairs(parent, change, metric["name"]), [metric])
    return row


class TestSummarize:
    def test_medians_quartiles_and_pairs_won(self):
        parent = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9]
        change = [0.5] * 9 + [2.5]
        row = _row(parent, change)
        assert row["pairs"] == 10 and row["won"] == 9 and row["lost"] == 1
        assert row["parent_median"] == pytest.approx(1.45)
        assert row["parent_q1"] == pytest.approx(1.225)
        assert row["parent_q3"] == pytest.approx(1.675)
        assert row["change_median"] == 0.5
        assert row["change_over_parent"] == pytest.approx(0.5 / 1.45)
        # 9/10 won and 0.95 apart against an inter-quartile 0.45
        assert row["verdict"] == "gain"

    def test_eight_of_ten_is_not_a_gain(self):
        parent = [1.0] * 10
        change = [0.5] * 8 + [1.5, 1.5]
        assert _row(parent, change)["verdict"] == "same"

    def test_medians_inside_the_parents_spread_are_not_a_gain(self):
        parent = [1.0, 1.2, 1.4, 1.6, 1.8, 2.0, 2.2, 2.4, 2.6, 2.8]
        change = [p - 0.05 for p in parent]     # wins every pair, barely
        row = _row(parent, change)
        assert row["won"] == 10
        assert row["verdict"] == "unresolved"   # spread 0.9 > bound 0.475

    def test_ties_count_for_neither_side(self):
        row = _row([1.0] * 10, [1.0] * 10)
        assert row["won"] == 0 and row["lost"] == 0
        assert row["verdict"] == "same"

    def test_worse_beyond_the_bound(self):
        row = _row([1.0] * 10, [1.3] * 10)
        assert row["lost"] == 10 and row["verdict"] == "worse"
        assert _row([1.0] * 10, [1.2] * 10)["verdict"] == "same"

    def test_higher_is_better_metrics_flip_every_comparison(self):
        parent = [10.0, 10.5, 11.0, 11.5, 12.0] * 2
        row = _row(parent, [p * 2 for p in parent], RATE)
        assert row["won"] == 10 and row["verdict"] == "gain"
        assert row["parent_q1"] < row["parent_median"] < row["parent_q3"]
        assert _row(parent, [p * 0.7 for p in parent],
                    RATE)["verdict"] == "worse"

    def test_noisy_parent_is_unresolved_unless_a_clean_sweep(self):
        parent = [1.0, 3.0] * 5                 # spread 2.0 >> bound
        assert _row(parent, [1.5, 2.5] * 5)["verdict"] == "unresolved"
        # Every run of the change beats every run of the parent: the
        # bound certainly holds (not a gain — medians 1.5 apart against
        # a spread of 2.0).
        assert _row(parent, [0.5] * 10)["verdict"] == "same"

    def test_one_row_per_metric_and_a_rendering(self):
        pairs = [({"time_s": 1.0, "per_s": 5.0}, {"time_s": 0.4, "per_s": 9.0})
                 for _ in range(10)]
        rows = pairs_tool.summarize(pairs, [LATENCY, RATE])
        assert [row["metric"] for row in rows] == ["time_s", "per_s"]
        assert all(row["verdict"] == "gain" for row in rows)
        text = pairs_tool.render(rows)
        assert "time_s" in text and "10/10" in text and "gain" in text


def test_export_parent_is_the_committed_tree(tmp_path):
    """``git archive`` of a revision into ``benchmarks/results/pairs/``:
    the committed bytes, not the working tree's; exported once."""
    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t",
                        *args], cwd=tmp_path, check=True,
                       capture_output=True)

    git("init", "-q")
    (tmp_path / "f.txt").write_text("committed\n")
    git("add", "f.txt")
    git("commit", "-q", "-m", "one")
    (tmp_path / "f.txt").write_text("working tree\n")
    target = pairs_tool.export_parent("HEAD", root=tmp_path)
    assert target.parent == tmp_path / "benchmarks" / "results" / "pairs"
    assert (target / "f.txt").read_text() == "committed\n"
    assert pairs_tool.export_parent("HEAD", root=tmp_path) == target


MANIFEST = {"command": ["bench"], "end_to_end": [LATENCY, RATE],
            "workloads": [{"name": "scan"}, {"name": "grouped"},
                          {"name": "churn"}]}


class TestManyWorkloads:
    def test_workload_is_a_name_a_comma_list_or_all(self):
        resolve = pairs_tool.resolve_workloads
        assert resolve("grouped", MANIFEST) == ["grouped"]
        assert resolve("churn, scan", MANIFEST) == ["churn", "scan"]
        assert resolve("all", MANIFEST) == ["scan", "grouped", "churn"]
        for bad in ("", ",", "scan,nope"):
            with pytest.raises(ValueError):
                resolve(bad, MANIFEST)

    def test_pairs_alternate_share_seeds_and_count_bad_runs(self,
                                                            monkeypatch,
                                                            capsys):
        calls = []

        def fake_run(checkout, command, workload, seed, seconds):
            side = checkout.name
            calls.append((side, workload, seed, seconds))
            fast = side == "change"
            return {"correct": not (fast and seed == 43), "failed": 0,
                    "metrics": {"time_s": {"value": 0.5 if fast else 1.0},
                                "per_s": {"value": 8.0 if fast else 4.0}}}

        monkeypatch.setattr(pairs_tool, "run_once", fake_run)
        sides = {"parent": Path("/x/parent"), "change": Path("/x/change")}
        runs, rows, bad = pairs_tool.run_pairs(sides, MANIFEST, "grouped",
                                               4, 40, 15)
        assert calls == [
            ("parent", "grouped", 40, 15), ("change", "grouped", 40, 15),
            ("change", "grouped", 41, 15), ("parent", "grouped", 41, 15),
            ("parent", "grouped", 42, 15), ("change", "grouped", 42, 15),
            ("change", "grouped", 43, 15), ("parent", "grouped", 43, 15)]
        assert [run["first"] for run in runs] == ["parent", "change"] * 2
        assert bad == 1
        assert [(row["metric"], row["won"], row["verdict"])
                for row in rows] == [("time_s", 4, "gain"),
                                     ("per_s", 4, "gain")]
        assert "1 run(s) incorrect" in capsys.readouterr().out

    def test_markdown_has_a_row_per_workload_and_metric(self):
        gain = pairs_tool.summarize(
            [({"time_s": 1.0, "per_s": 5.0}, {"time_s": 0.4, "per_s": 9.0})
             for _ in range(10)], [LATENCY, RATE])
        same = pairs_tool.summarize(
            [({"time_s": 1.0, "per_s": 5.0}, {"time_s": 1.0, "per_s": 5.0})
             for _ in range(4)], [LATENCY, RATE])
        lines = pairs_tool.markdown({"grouped": gain,
                                     "churn": same}).splitlines()
        assert lines[0].startswith("| workload | metric |")
        assert set(lines[1]) == {"|", "-"}
        body = [[cell.strip() for cell in line.strip("|").split("|")]
                for line in lines[2:]]
        assert [(row[0], row[1], row[5], row[6]) for row in body] == [
            ("grouped", "time_s", "10/10", "gain"),
            ("grouped", "per_s", "10/10", "gain"),
            ("churn", "time_s", "0/4", "same"),
            ("churn", "per_s", "0/4", "same")]
        assert body[0][2] == "1 (1–1)" and body[0][3] == "0.4 (0.4–0.4)"
        assert body[0][4] == "0.400"
