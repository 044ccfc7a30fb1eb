"""Smoke test of the benchmark: each workload at a tiny size with every check
on, one traced run, and the refusal to run without the program's sources.
Each run is a subprocess, since a run imports and wraps the package."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd, *args):
    cmd = [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=cwd)


def _result(*args):
    done = _run(ROOT, *args)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_smoke(workload):
    result = _result("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "0", "--smoke")
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        measured = result["metrics"][metric["name"]]
        assert measured["unit"] == metric["unit"]
        assert measured["value"] > 0


def test_traced_smoke_reports_every_layer_metric():
    result = _result("--workload", "records", "--seed", "3", "--seconds", "0", "--trace", "1", "--smoke")
    assert result["correct"] is True
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert result["metrics"]["galois.ab_dimension.s"]["value"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    done = _run(tmp_path, "--workload", "survey", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
