"""Toy-scale smoke test of the benchmark; not part of the tier-1 suite.

    python3 -m pytest bench/test_smoke.py -q

Every workload runs through the same code as a full run, on inputs small
enough that the whole file takes well under a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "bench" / "run.py"), "--scale", "toy", "--seconds", "0", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_names_every_declared_metric(workload, trace):
    res = result(run("--workload", workload, "--seed", "3", "--trace", str(trace)))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, res
    declared = SPEC["end_to_end"] if trace == 0 else SPEC["per_layer"]
    assert {k: m["unit"] for k, m in res["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    if trace == 0:
        assert all(m["value"] > 0 for m in res["metrics"].values())


def test_traced_counters_repeat_exactly():
    first, second = (result(run("--workload", "pipeline", "--seed", "5", "--trace", "1")) for _ in range(2))
    counts = [name for name, m in first["metrics"].items() if m["unit"] == "count"]
    assert counts
    assert all(first["metrics"][n]["value"] == second["metrics"][n]["value"] for n in counts)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("--workload", "desk-dp", "--seed", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
