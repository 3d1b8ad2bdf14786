"""Self-tests of the benchmark, in smoke mode.

Run from the checkout root:  python3 -m pytest bench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args, "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_result_has_every_end_to_end_metric(workload):
    out = result(bench("--workload", workload, "--seed", "3", "--seconds", "0.5", "--trace", "0"))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True
    assert out["attempted"] >= 1
    assert {k: v["unit"] for k, v in out["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_for_a_seed(workload):
    runs = [
        result(bench("--workload", workload, "--seed", "5", "--seconds", "0.5", "--trace", "1"))
        for _ in range(2)
    ]
    names = {m["name"] for m in SPEC["per_layer"]}
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "bytes")]
    for out in runs:
        assert out["correct"] is True
        assert set(out["metrics"]) == names
    first, second = ({k: out["metrics"][k]["value"] for k in counts} for out in runs)
    assert first == second
    assert first["trace.spans"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "warm_small", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_oracle_rejects_an_empty_answer():
    sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src"), str(ROOT / "tests")]
    import workloads

    for workload in workloads.WORKLOADS.values():
        for q in next(workload.blocks(7, smoke=True)) + workloads.probes():
            assert q.check({}) is not None, q.argv
