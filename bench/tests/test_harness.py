"""Self-test of the benchmark harness at tiny sizes (p <= 3).

    python -m pytest bench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture(autouse=True)
def one_setup_run(monkeypatch):
    monkeypatch.setattr(run, "SETUP_RUNS", 1)


@pytest.mark.parametrize("seed", [7, 8])
@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_tiny_workload_reports_every_named_metric(name, trace, seed):
    result, lines, _ = run.run(name, seed, 0.05, trace, tiny=True)
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        key: metric["unit"] for key, metric in result["metrics"].items()
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert lines[0] == f"workload {name} seed {seed} trace {int(trace)} tiny True"


def test_wrong_golden_digest_counts_as_failed(monkeypatch, tmp_path):
    goldens = json.loads(workloads.GOLDENS_PATH.read_text("utf-8"))
    goldens["sha256"]["tiny"]["render"] = "0" * 64
    wrong = tmp_path / "goldens.json"
    wrong.write_text(json.dumps(goldens), "utf-8")
    monkeypatch.setattr(workloads, "GOLDENS_PATH", wrong)
    result, lines, _ = run.run("cli", 7, 0.05, False, tiny=True)
    assert result["failed"] / result["attempted"] > 0
    assert not result["correct"]
    assert any(line.startswith("cli render: stdout sha256") for line in lines)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
