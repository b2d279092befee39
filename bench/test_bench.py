"""Self-test of the benchmark: a tiny run of every workload, so the harness
cannot rot. Run from the repository root with ``python -m pytest bench``."""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_reports_every_end_to_end_metric(workload):
    out = result(bench("--workload", workload, "--seed", "3", "--seconds", "0.5", "--trace", "0", "--smoke"))
    assert out["correct"] and out["failed"] == 0 and out["attempted"] > 0
    assert [(k, m["unit"]) for k, m in out["metrics"].items()] == [(n, u) for n, u, _ in run.END_TO_END]
    assert all(m["value"] > 0 for m in out["metrics"].values())


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_traced_run_reports_every_per_layer_metric(workload):
    # The traced run itself fails when its counts differ in a fresh interpreter.
    out = result(bench("--workload", workload, "--seed", "5", "--seconds", "0.5", "--trace", "1", "--smoke"))
    assert out["correct"] and out["failed"] == 0
    assert [(k, m["unit"]) for k, m in out["metrics"].items()] == [(n, u) for n, u, _ in run.per_layer_specs()]


def test_benchmark_json_lists_what_the_harness_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.per_layer_specs()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_expected_outputs_never_come_from_the_package():
    probe = "import sys, gen, reference, workloads; print(sorted(m for m in sys.modules if m.startswith('ontologik')))"
    done = subprocess.run([sys.executable, "-c", probe], cwd=BENCH, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "reference_mix", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout
