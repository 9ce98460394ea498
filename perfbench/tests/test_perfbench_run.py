"""run.py's aggregation, and its refusal to run without an equiflow source tree."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402
import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parents[1]


def test_unit_time_takes_the_fastest_lap_of_each_kind():
    passes = [
        {"unit_laps": [[["a", 0.3]], [["b", 2.0], ["c", 1.0], ["c", 0.5]]]},
        {"unit_laps": [[["a", 0.1]], [["b", 2.5], ["c", 0.25], ["c", 0.75]]]},
    ]
    assert run.unit_best(passes) == [0.1, 2.0 + 2 * 0.25]
    passes[1]["unit_laps"][1].append(["c", 0.25])
    with pytest.raises(run.BenchmarkError, match="different laps"):
        run.unit_best(passes)


def test_runs_every_workload_and_benchmark_json_lists_only_those():
    assert set(run.WORKLOADS) == set(workloads.WORKLOADS)
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)


def test_traced_counts_must_agree_and_times_are_medians():
    passes = [
        {"layers": {"a.calls": 4, "a.self_ms": 1.0}},
        {"layers": {"a.calls": 4, "a.self_ms": 3.0}},
    ]
    assert run.traced_metrics(passes) == {"a.calls": 4, "a.self_ms": 2.0}
    passes[1]["layers"]["a.calls"] = 5
    with pytest.raises(run.BenchmarkError, match="a.calls differs"):
        run.traced_metrics(passes)


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "drift-shear", "--seed", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0 and done.stdout == ""
    assert "no equiflow source tree" in done.stderr
