"""Tests of the benchmark itself: seeded inputs and the metric list.

    PYTHONPATH=src python -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import inputs
import run

HERE = Path(__file__).resolve().parent
SEEDED = sorted(inputs.GENERATORS)


@pytest.mark.parametrize("workload", SEEDED)
def test_same_seed_gives_identical_inputs(workload):
    generate = inputs.GENERATORS[workload]
    assert inputs.digest(generate(7)) == inputs.digest(generate(7))


@pytest.mark.parametrize("workload", SEEDED)
def test_different_seed_gives_different_inputs(workload):
    generate = inputs.GENERATORS[workload]
    assert inputs.digest(generate(7)) != inputs.digest(generate(8))


def test_batch_small_mix_is_the_same_for_every_seed():
    for seed in (1, 2):
        problems = inputs.batch_small(seed)
        assert [p.m for p in problems] == [2 + i % 7 for i in range(inputs.BATCH_FILES)]
        assert sum(p.schema == "ensemble" for p in problems) == inputs.BATCH_FILES // 2
        tied = [p for p in problems if p.tied]
        assert len(tied) == inputs.BATCH_FILES // 6
        for p in tied:
            top = min(p.m, inputs.TIE_BLOCK_MAX)
            assert len(set(sorted(p.probs)[:top])) == 1


def test_benchmark_json_matches_the_metrics_the_runner_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig1", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_host_clock_scales_by_the_samples_around_an_interval():
    import hostspeed

    clock = hostspeed.HostClock()
    clock.at, clock.took = [1.0, 2.0, 3.0], [1e-3, 2e-3, 4e-3]
    # samples at 2.0 and 3.0 bracket [2.1, 2.9]: mean 3 ms
    assert clock.scale(2.1, 2.9) == hostspeed.KERNEL_REF_S / 3e-3
    # before the first sample the first one stands in for both sides
    assert clock.scale(0.0, 0.5) == hostspeed.KERNEL_REF_S / 1e-3
