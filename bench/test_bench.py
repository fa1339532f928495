"""The benchmark's own check: every workload, briefly, on a fixed seed.

    python3 -m pytest bench/test_bench.py

It asserts that each run reports exactly the metrics named in
``BENCHMARK.json`` with their units, that the oracle read the output of every
op that exited 0, that the count metrics of two traced runs repeat exactly,
that ``attempted`` and ``failed`` count the corpus's distinct inputs, so
that they do not depend on the run's length, and that a directory holding
only the benchmark exits non-zero without a result.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 7
SECONDS = 1


def bench_run(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def parse(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    detail = next(json.loads(line[len("detail: "):]) for line in lines
                  if line.startswith("detail: "))
    return result, detail


def check_result(result, specs):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in specs}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


def test_benchmark_json_matches_the_runner():
    assert [(w["name"], w["why"]) for w in BENCH["workloads"]] == \
        [(w.name, w.why) for w in WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == run.PER_LAYER
    assert any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
               for m in BENCH["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in BENCH["end_to_end"])


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_untraced_run_reports_end_to_end_metrics(workload):
    result, detail = parse(bench_run(workload, 0))
    check_result(result, BENCH["end_to_end"])
    ops, inputs = detail["ops"], detail["inputs"]
    assert inputs["distinct"] == result["attempted"] <= ops["attempted"]
    assert inputs["raised"] + inputs["tolerance"] + inputs["malformed"] == result["failed"]
    assert inputs["verdict_changed_on_repeat"] == 0
    assert ops["oracle_checked"] == ops["attempted"] - ops["raised"]
    assert detail["provenance"]["blas_threads"]["OPENBLAS_NUM_THREADS"] == "1"
    assert all(len(detail[f"setup_{part}_s"]) == run.SETUP_REPEATS
               for part in ("import", "rest", "write"))


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_traced_counts_repeat_exactly(workload):
    first, detail = parse(bench_run(workload, 1))
    second, _ = parse(bench_run(workload, 1))
    for result in (first, second):
        check_result(result, BENCH["per_layer"])
    assert detail["ops"]["oracle_checked"] == detail["ops"]["attempted"] - detail["ops"]["raised"]
    counts = [name for name in first["metrics"] if run.is_window_metric(name)]
    assert "veronese.veronese_flag.calls" in counts and "fail.raised" in counts
    assert {n: first["metrics"][n]["value"] for n in counts} == \
        {n: second["metrics"][n]["value"] for n in counts}
    assert first["metrics"]["cli.main.self_ms"]["value"] > 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench_run(BENCH["workloads"][0]["name"], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
