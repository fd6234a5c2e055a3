"""Smoke test of the benchmark: every workload at a tiny size passes all checks.

    python3 -m pytest bench/test_smoke.py -q

Not part of the tier-1 suite, which collects tests/ only.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_passes_every_check(workload, trace):
    done = run(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_same_seed_gives_same_inputs(tmp_path):
    def manifest(out: Path) -> dict:
        done = subprocess.run(
            [sys.executable, str(HERE / "inputs.py"), "--workload", "huge-domain", "--seed", "9",
             "--out", str(out), "--smoke"],
            capture_output=True, text=True, check=True, timeout=120)
        return {name: f["sha256"] for name, f in json.loads(done.stdout)["files"].items()}

    assert manifest(tmp_path / "a") == manifest(tmp_path / "b")


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run(tmp_path, "census-sweep", 0)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
